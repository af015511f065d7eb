"""The benchmark's own tests, at small n.

Run from the repository root with ``python3 -m pytest perfbench -q``
(the tier-1 suite collects ``tests/`` only).
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import repro.mr.core_generation  # noqa: E402
import repro.mr.p3c_mr  # noqa: E402
from repro.mapreduce.chain import JobChain  # noqa: E402
from repro.serving.model import FittedModel  # noqa: E402

N = 4_000
SEED = 3


def _fit(workload_name: str, n: int = N, seed: int = SEED, **overrides):
    workload = WORKLOADS[workload_name]
    dataset = inputs.make_dataset(n, seed)
    driver = workload.driver()
    driver.mr_config = dataclasses.replace(driver.mr_config, **overrides)
    return driver.fit_splits(inputs.make_splits(dataset), n, workloads.D)


def _traced_fit(workload_name: str, n: int = N):
    tracer = tracing.LayerTracer()
    with tracer.installed():
        result = _fit(workload_name, n)
    return tracer, result


def test_light_process_matches_serial():
    """MR on two worker processes gives the serial executor's output."""
    process = _fit("light-100k-process")
    serial = _fit("light-100k-process", executor="serial", max_workers=1)
    assert inputs.result_digest(process) == inputs.result_digest(serial)
    assert process.num_clusters > 0


def test_tracing_changes_no_output():
    for name, n, wrapped in (
        ("exact-100k", N, "mr.em"),
        ("coreset-1m", 5 * N, "serving.assign"),
    ):
        untraced = _fit(name, n)
        tracer, traced = _traced_fit(name, n)
        assert inputs.result_digest(traced) == inputs.result_digest(untraced)
        assert tracer.calls["mr.core_generation"] == 1
        assert tracer.calls[wrapped] > 0


def test_tracer_restores_the_program():
    originals = (
        repro.mr.p3c_mr.run_em_mr,
        repro.mr.core_generation.run_support_job,
        JobChain.run,
        FittedModel.assign,
    )
    with tracing.LayerTracer().installed():
        assert repro.mr.p3c_mr.run_em_mr is not originals[0]
    assert (
        repro.mr.p3c_mr.run_em_mr,
        repro.mr.core_generation.run_support_job,
        JobChain.run,
        FittedModel.assign,
    ) == originals


def test_counts_repeat_at_a_fixed_seed():
    counts = []
    for _ in range(2):
        tracer, _ = _traced_fit("exact-100k")
        metrics = tracer.metrics()
        counts.append(
            (
                metrics["mapreduce.jobs"],
                metrics["mapreduce.shuffle_bytes"],
                metrics["mr.em.iterations"],
                tracer.candidates_per_level,
            )
        )
    assert counts[0] == counts[1]
    assert counts[0][0] > 0 and counts[0][2] > 0


class _ReferenceSpeed:
    """Stands in for the speed probe: no pinning, factor 1."""

    samples: list = []

    def pin_with_caller(self) -> None:
        pass

    def unpin(self) -> None:
        pass

    def factor(self, *windows: tuple[float, float], median: bool = False) -> float:
        return 1.0


def test_traced_run_accounts_for_the_fit_alone():
    """Stage seconds plus ``fit.unattributed_s`` give the traced fit,
    although serving afterwards adds top-level ``assign`` calls."""
    workload = dataclasses.replace(
        WORKLOADS["exact-100k"], n=N, warmup_n=1_000, setup_repeats=1
    )
    measured = run.run(workload, SEED, 0.0, True, _ReferenceSpeed())
    result, _ = run.report(workload, measured, _ReferenceSpeed())
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    tracer = measured.tracer
    assert result["failed"] == 0 and tracer.jobs_outside_stages == 0
    assert metrics["serving.assign.calls"] > 0
    fit_stages = [
        layer
        for layer, depth in tracer.order.items()
        if depth == 0 and layer != tracing.SERVING_LAYER
    ]
    assert "mr.em" in fit_stages and "mr.support" not in fit_stages
    stage_s = sum(tracer.seconds[layer] for layer in fit_stages)
    assert abs(metrics["fit.s"] - stage_s - metrics["fit.unattributed_s"]) < 1e-9
    assert 0.0 <= metrics["fit.unattributed_s"] < metrics["fit.s"]


def test_gaps_leave_out_busy_windows():
    busy = [(2.0, 3.0), (-1.0, 1.0), (9.0, 12.0), (2.5, 4.0), (5.0, 6.0), (5.2, 5.8)]
    assert speed.gaps(0.0, 10.0, busy) == [(1.0, 2.0), (4.0, 5.0), (6.0, 9.0)]
    assert speed.gaps(0.0, 1.0, []) == [(0.0, 1.0)]


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    metrics = tracing.LayerTracer().metrics()
    assert set(metrics) <= set(tracing.metric_units())


def test_seed_shuffles_rows_and_keeps_ground_truth():
    def first_cluster(dataset):
        return sorted(map(tuple, dataset.data[dataset.hidden_clusters[0].members]))

    a = inputs.make_dataset(500, 1)
    b = inputs.make_dataset(500, 2)
    assert not (a.data == b.data).all()
    assert first_cluster(a) == first_cluster(b)
