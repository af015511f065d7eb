"""Workload definitions: the paper-shape table and its drivers.

Every workload fits the generator's paper shape (Section 7.1): d = 50,
five hidden clusters, 10 % uniform noise, eight input splits.  The
points are the generator's data set at ``GENERATOR_SEED``; the
benchmark's ``--seed`` shuffles the record order (see
``inputs.make_dataset``).  Drawing fresh points per seed would move the
work itself: over five fresh samples of this layout the exact fit at
n = 100k ran 5 or 6 EM iterations and collected 2088 to 2606 level-4
and level-5 Apriori candidates, and across generator seeds 0-2 level 3
alone held 3224 to 5760, enough to hide a 10 % change in the code.
"""

from __future__ import annotations

from dataclasses import dataclass

D = 50
NUM_CLUSTERS = 5
NOISE_FRACTION = 0.1
NUM_SPLITS = 8
GENERATOR_SEED = 0
#: Rows per serving request: small batches, where per-call cost
#: dominates per-row cost.
BATCH_ROWS = 256
SERVE_BATCHES = 200
SERVE_WARMUP_BATCHES = 5
SERVE_PASSES = 2
SERVE_SECONDS = 3.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: algorithm, executor and input size."""

    name: str
    light: bool
    n: int
    executor: str
    workers: int
    coreset_size: int | None
    #: Lowest E4SC against the generator's ground truth that counts as
    #: a correct fit (the layout's score sits well above it).
    e4sc_floor: float
    setup_repeats: int
    warmup_n: int
    why: str

    def driver(self):
        """A fresh driver with observability off (the default)."""
        from repro.mr import P3CPlusMR, P3CPlusMRConfig, P3CPlusMRLight

        mr_config = P3CPlusMRConfig(
            num_splits=NUM_SPLITS,
            executor=self.executor,
            max_workers=self.workers,
            coreset_size=self.coreset_size,
            coreset_mode="uniform",
        )
        cls = P3CPlusMRLight if self.light else P3CPlusMR
        return cls(mr_config=mr_config)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="exact-100k",
            light=False,
            n=100_000,
            executor="serial",
            workers=1,
            coreset_size=None,
            e4sc_floor=0.85,
            setup_repeats=15,
            warmup_n=5_000,
            why=(
                "exact P3C+-MR, serial: EM + MVB + OD dominate; small-batch "
                "serving scores through the Gaussian quadratic form"
            ),
        ),
        Workload(
            name="light-100k-process",
            light=True,
            n=100_000,
            executor="process",
            workers=2,
            coreset_size=None,
            e4sc_floor=0.75,
            setup_repeats=15,
            warmup_n=5_000,
            why=(
                "Light on 2 worker processes: no EM or OD; Apriori + RSSC "
                "support and executor transport dominate"
            ),
        ),
        Workload(
            name="coreset-1m",
            light=False,
            n=1_000_000,
            executor="serial",
            workers=1,
            coreset_size=4_000,
            # The seed decides which points the sample holds, and the
            # score with it (0.855-0.955 over 20 seeds).  The floor is
            # just under 0.9 x the exact fit's 0.9187, the retention
            # that benchmarks/bench_coreset.py gates.
            e4sc_floor=0.82,
            setup_repeats=5,
            warmup_n=10_000,
            why=(
                "uniform 4000-point coreset of 1M points: the full-data "
                "assign pass and summary build dominate; EM runs on 4000"
            ),
        ),
    )
}
