"""Paper-shape fit benchmark for P3C+-MR, P3C+-MR-Light and the coreset path.

Usage (from the repository root)::

    python3 perfbench/run.py --workload exact-100k --seed 0 --seconds 10 --trace 0

``--trace 0`` times untraced fits and prints every end-to-end metric;
``--trace 1`` runs one untraced and one traced fit and prints the
per-layer metrics plus a stage x {driver, mapreduce} table.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
run's context (speed probe, nproc, versions, seed, raw seconds).
The exit code is 0 when every output check passed, 1 when one failed
and 2 on a usage or set-up error (for example when ``src/repro`` is
not next to this directory).

See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from speed import REFERENCE_PROBE_S, SpeedProbe, gaps, widened

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

END_TO_END_UNITS = {
    "setup_s": "s",
    "fit_s": "s",
    "e4sc": "score",
    "peak_rss_mb": "MB",
    "assign_batch_ms_p50": "ms",
    "assign_batch_ms_p95": "ms",
}


def reset_peak_rss() -> None:
    """Reset this process's RSS high-water mark (Linux ``clear_refs``),
    so the peak reported covers the measured phase, not set-up."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Driver high-water mark plus the largest reaped worker's, in MB."""
    own_kb = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    own_kb = float(line.split()[1])
    except OSError:
        pass
    child_kb = float(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return (own_kb + child_kb) / 1024.0


class Checks:
    """Counts operations and the ones whose output check failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)


class Timer:
    """Raw seconds of a phase plus its window on the monotonic clock,
    which the speed probe's samples share."""

    def __enter__(self) -> "Timer":
        self.start = time.monotonic()
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds = time.perf_counter() - self._started
        self.end = time.monotonic()


@contextlib.contextmanager
def job_windows(windows: list[tuple[float, float]]):
    """Record the ``time.monotonic()`` window of every ``JobChain.run``
    call made inside the ``with`` block."""
    from repro.mapreduce.chain import JobChain

    original = JobChain.run

    def run(chain, *args, **kwargs):
        started = time.monotonic()
        try:
            return original(chain, *args, **kwargs)
        finally:
            windows.append((started, time.monotonic()))

    JobChain.run = run
    try:
        yield windows
    finally:
        JobChain.run = original


def check_fit(result, reference: str | None, checks: Checks) -> str:
    import inputs

    digest = inputs.result_digest(result)
    matches = reference is None or digest == reference
    checks.record(
        result.num_clusters == workloads.NUM_CLUSTERS and matches,
        f"fit: {result.num_clusters} clusters, digest "
        f"{'matches' if matches else 'differs from the first fit'}",
    )
    return digest


def serve(model, data, labels, checks: Checks) -> list[list[Timer]]:
    """Timings of fixed 256-row requests: one list per batch, one
    timing per pass.

    At least ``SERVE_PASSES`` passes run over all batches, and more
    until ``SERVE_SECONDS`` have gone by, so each batch is timed at
    moments seconds apart.  Each batch must reproduce the fit's labels
    on every pass.
    """
    import inputs

    rows = workloads.BATCH_ROWS
    starts = inputs.serve_rows(len(data))
    for start in starts[: workloads.SERVE_WARMUP_BATCHES]:
        model.assign(data[start : start + rows])
    starts = starts[workloads.SERVE_WARMUP_BATCHES :]
    timings: list[list[Timer]] = [[] for _ in starts]
    agrees = [True] * len(starts)
    began = time.perf_counter()
    while len(timings[0]) < workloads.SERVE_PASSES or (
        time.perf_counter() - began < workloads.SERVE_SECONDS
    ):
        for i, start in enumerate(starts):
            with Timer() as timer:
                assigned = model.assign(data[start : start + rows])
            timings[i].append(timer)
            agrees[i] &= bool(
                (assigned.cluster_ids == labels[start : start + rows]).all()
            )
    for start, ok in zip(starts, agrees):
        checks.record(ok, f"assign batch at row {start} disagrees with the fit")
    return timings


@dataclass
class Measured:
    """Everything one run measured, in raw seconds."""

    checks: Checks
    setups: list[Timer]
    generation_s: list[float]
    fits: list[Timer]
    #: Windows of the MapReduce jobs that the timed fits ran.
    jobs: list[tuple[float, float]]
    #: One list per served batch, one timing per pass.
    batches: list[list[Timer]]
    e4sc: float
    peak_rss_mb: float
    tracer: object = None
    traced: Timer | None = None
    #: ``fit.*`` figures of the traced fit, taken before serving adds
    #: its own top-level ``assign`` calls to the tracer.
    fit_trace: dict[str, float] | None = None


def run(workload, seed: int, seconds: float, trace: bool, probe) -> Measured:
    # Imported inside functions: main() decides on which CPUs NumPy
    # loads.
    import inputs
    from repro.eval import e4sc_score
    from tracing import LayerTracer

    checks = Checks()
    n, d = workload.n, workloads.D

    setups: list[Timer] = []
    generation_s: list[float] = []
    for _ in range(workload.setup_repeats):
        dataset = splits = None
        with Timer() as setup:
            with Timer() as generate:
                dataset = inputs.make_dataset(n, seed)
            splits = inputs.make_splits(dataset)
        setups.append(setup)
        generation_s.append(generate.seconds)
    # Set-up ran on one CPU with the probe; fits on worker processes get
    # every CPU back.
    if workload.workers > 1:
        probe.unpin()

    # Warm-up: imports, lazily built tables and first-call costs are
    # paid by a small fit of the same shape, outside the timed region.
    warm = inputs.make_dataset(workload.warmup_n, seed)
    workload.driver().fit_splits(inputs.make_splits(warm), workload.warmup_n, d)
    del warm
    reset_peak_rss()

    fits: list[Timer] = []
    jobs: list[tuple[float, float]] = []
    reference: str | None = None
    tracer = traced = fit_trace = None
    started = time.perf_counter()
    with job_windows(jobs):
        while not fits or (not trace and time.perf_counter() - started < seconds):
            driver = workload.driver()
            with Timer() as timer:
                result = driver.fit_splits(splits, n, d)
            fits.append(timer)
            reference = check_fit(result, reference, checks)
        if trace:
            tracer = LayerTracer()
            with tracer.installed(), Timer() as traced:
                traced_result = workload.driver().fit_splits(splits, n, d)

    e4sc = e4sc_score(result.clusters, dataset.ground_truth_clusters())
    checks.record(
        e4sc >= workload.e4sc_floor,
        f"e4sc {e4sc:.4f} below the floor {workload.e4sc_floor}",
    )
    model = driver.fitted_model
    labels = inputs.fit_labels(result, model)

    if trace:
        check_fit(traced_result, reference, checks)
        checks.record(
            tracer.jobs_outside_stages == 0,
            f"{tracer.jobs_outside_stages} MapReduce jobs ran outside every "
            "wrapped stage",
        )
        fit_trace = {
            "fit.s": traced.seconds,
            "fit.driver_s": traced.seconds - tracer.counts["job_s"],
            "fit.unattributed_s": traced.seconds - tracer.stage_seconds,
        }
        print(tracer.stage_table(traced.seconds))
    # Serving is single-threaded on every workload: it runs on one CPU,
    # shared with the probe.
    probe.pin_with_caller()
    with tracer.installed() if trace else contextlib.nullcontext():
        batches = serve(model, dataset.data, labels, checks)
    return Measured(
        checks=checks,
        setups=setups,
        generation_s=generation_s,
        fits=fits,
        jobs=jobs,
        batches=batches,
        e4sc=e4sc,
        peak_rss_mb=peak_rss_mb(),
        tracer=tracer,
        traced=traced,
        fit_trace=fit_trace,
    )


def report(workload, measured: Measured, probe) -> tuple[dict, dict]:
    """Scale the phases' seconds to reference speed; build the result
    object and the context record."""
    from repro.obs.resources import percentile
    from tracing import metric_units

    def normalised(timer: Timer) -> float:
        return timer.seconds * probe.factor(widened(timer.start, timer.end))

    def fit_factor(timer: Timer) -> float:
        if workload.workers == 1:
            return probe.factor(widened(timer.start, timer.end))
        # Worker processes share the CPUs with the probe: only the gaps
        # between jobs show the host's speed (see speed.py).
        return probe.factor(
            *gaps(timer.start, timer.end, measured.jobs), median=True
        )

    checks = measured.checks
    fits = measured.fits
    fit_factors = [fit_factor(t) for t in fits]
    raw_fit_s = statistics.median(t.seconds for t in fits)
    fit_s = statistics.median(t.seconds * f for t, f in zip(fits, fit_factors))
    # A batch's latency is the median over passes of its timings, each
    # scaled by the probe over the surrounding second.
    batch_ms = sorted(
        1e3 * statistics.median(normalised(t) for t in passes)
        for passes in measured.batches
    )
    context = {
        "fits": len(fits),
        "fit_raw_s": [t.seconds for t in fits],
        "fit_speed_factor": fit_factors,
        "setup_raw_s": statistics.median(t.seconds for t in measured.setups),
        "serve_passes": len(measured.batches[0]),
        "probe_samples": len(probe.samples),
    }
    print(
        f"{workload.name}: fit_s {fit_s:.3f} s at reference speed "
        f"({raw_fit_s:.3f} s raw; median of {len(fits)} "
        f"fit{'s' if len(fits) != 1 else ''}), e4sc {measured.e4sc:.4f}, "
        f"{len(batch_ms)} assign batches of 256 rows"
    )
    for problem in checks.problems:
        print(f"CHECK FAILED: {problem}")

    if measured.tracer is not None:
        values = measured.tracer.metrics()
        values.update(measured.fit_trace)
        traced = measured.traced
        values["trace.overhead_s"] = traced.seconds * fit_factor(traced) - fit_s
        values["data.generate.s"] = statistics.median(measured.generation_s)
        values["data.generate.calls"] = len(measured.generation_s)
        units = metric_units()
    else:
        values = {
            "setup_s": statistics.median(normalised(t) for t in measured.setups),
            "fit_s": fit_s,
            "e4sc": measured.e4sc,
            "peak_rss_mb": measured.peak_rss_mb,
            "assign_batch_ms_p50": percentile(batch_ms, 0.50),
            "assign_batch_ms_p95": percentile(batch_ms, 0.95),
        }
        units = END_TO_END_UNITS
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    return result, context


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: no source tree at {SRC / 'repro'}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"error: unknown workload {args.workload!r}; expected one of "
            f"{sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    with SpeedProbe() as probe:
        # Set-up, serving and a serial workload's fits run on one CPU,
        # shared with the probe, so the probe sees the speed they get.
        # A serial run pins before NumPy is imported, so its BLAS starts
        # one thread; a parallel run loads NumPy on every CPU first.
        if workload.workers > 1:
            import numpy  # noqa: F401
        probe.pin_with_caller()
        sys.path.insert(0, str(SRC))
        measured = run(workload, args.seed, args.seconds, bool(args.trace), probe)
    result, context = report(workload, measured, probe)
    import numpy as np

    context.update(
        workload=workload.name,
        seed=args.seed,
        trace=args.trace,
        n=workload.n,
        calibration_probe_s=probe.median_probe_s(),
        reference_probe_s=REFERENCE_PROBE_S,
        nproc=os.cpu_count(),
        python=platform.python_version(),
        numpy=np.__version__,
    )
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
