"""Benchmark inputs and output checks: data, splits, digests, labels."""

from __future__ import annotations

import hashlib

import numpy as np

from repro.data import GeneratorConfig, generate_synthetic
from repro.data.generator import HiddenCluster, SyntheticDataset
from repro.mapreduce.types import InputSplit, split_records
from workloads import (
    BATCH_ROWS,
    D,
    GENERATOR_SEED,
    NOISE_FRACTION,
    NUM_CLUSTERS,
    NUM_SPLITS,
    SERVE_BATCHES,
    SERVE_WARMUP_BATCHES,
)


def make_dataset(n: int, seed: int) -> SyntheticDataset:
    """The generator's paper-shape data set, rows shuffled by ``seed``.

    The points are ``generate_synthetic`` at ``GENERATOR_SEED``; the
    benchmark seed permutes the records, which decides the points each
    input split holds and the order partial sums combine in.
    """
    dataset = generate_synthetic(
        GeneratorConfig(
            n=n,
            d=D,
            num_clusters=NUM_CLUSTERS,
            noise_fraction=NOISE_FRACTION,
            seed=GENERATOR_SEED,
        )
    )
    order = np.random.default_rng(seed).permutation(n)
    rank = np.empty_like(order)
    rank[order] = np.arange(n)
    return SyntheticDataset(
        data=dataset.data[order],
        hidden_clusters=[
            HiddenCluster(signature=h.signature, members=np.sort(rank[h.members]))
            for h in dataset.hidden_clusters
        ],
        noise_indices=np.sort(rank[dataset.noise_indices]),
        config=dataset.config,
    )


def make_splits(dataset: SyntheticDataset) -> list[InputSplit]:
    return split_records(dataset.data, NUM_SPLITS)


def result_digest(result) -> str:
    """Hash of everything a fit outputs: members, relevant attributes,
    signatures (interval bounds bit-exact) and outliers."""
    h = hashlib.sha256()
    for cluster in result.clusters:
        h.update(np.asarray(cluster.members, dtype=np.int64).tobytes())
        h.update(repr(sorted(cluster.relevant_attributes)).encode())
        signature = cluster.signature
        intervals = signature.intervals if signature is not None else ()
        h.update(
            repr(
                [(i.attribute, float(i.lower).hex(), float(i.upper).hex())
                 for i in intervals]
            ).encode()
        )
        h.update(b"|")
    h.update(np.asarray(result.outliers, dtype=np.int64).tobytes())
    return h.hexdigest()


def fit_labels(result, model) -> np.ndarray:
    """Per-point cluster ids of a fit, in the serving model's id space
    (the index of the cluster's core in ``model.cores``; -1 = outlier)."""
    labels = np.full(result.n_points, -1, dtype=np.int64)
    for cluster in result.clusters:
        labels[cluster.members] = model.cores.index(cluster.core)
    return labels


def serve_rows(n: int) -> np.ndarray:
    """Start row of each serving batch: consecutive 256-row windows
    of the (already shuffled) training data, wrapping at ``n``."""
    count = SERVE_WARMUP_BATCHES + SERVE_BATCHES
    return (np.arange(count, dtype=np.int64) * BATCH_ROWS) % (n - BATCH_ROWS)
