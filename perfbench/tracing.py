"""Per-layer timing from outside the program.

:class:`LayerTracer` wraps the public functions that the drivers
import (the names bound in ``repro.mr.p3c_mr``, ``repro.mr.p3c_mr_light``
and ``repro.mr.core_generation``), ``FittedModel.assign`` and
``JobChain.run``, and keeps spans in memory while it is installed:

- every wrapped function gets ``<layer>.s`` and ``<layer>.calls``, plus
  ``<layer>.mr_s`` (time spent inside ``JobChain.run`` during the call)
  and ``<layer>.driver_s = s - mr_s``;
- a call made while no other wrapped function is running is a
  top-level *stage*; stage seconds plus ``fit.unattributed_s`` add up
  to the fit's wall clock;
- a ``JobChain.run`` call made outside every stage is counted in
  :attr:`LayerTracer.jobs_outside_stages`: its time would land in
  ``fit.unattributed_s`` unseen, so the benchmark checks for none;
- every ``JobResult`` that ``JobChain.run`` returns feeds the
  ``mapreduce.*`` counters.

Nothing inside ``src/`` changes: installing swaps module attributes and
:meth:`LayerTracer.installed` puts the originals back on exit.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict
from typing import Any, Callable, Iterator

from repro.mapreduce.chain import JobChain
from repro.mapreduce.counters import Counters
from repro.serving.model import FittedModel

#: (module, attribute, layer): the driver-imported public functions.
#: The first group runs as top-level stages of a fit; the second runs
#: inside ``mr.core_generation``.
FUNCTION_LAYERS: tuple[tuple[str, str, str], ...] = (
    ("repro.mr.p3c_mr", "run_histogram_job", "mr.histogram"),
    ("repro.mr.p3c_mr", "find_relevant_intervals", "core.intervals"),
    ("repro.mr.p3c_mr", "generate_cluster_cores_mr", "mr.core_generation"),
    ("repro.mr.p3c_mr", "run_em_mr", "mr.em"),
    ("repro.mr.p3c_mr", "run_mvb_jobs", "mr.mvb"),
    ("repro.mr.p3c_mr", "run_od_job", "mr.od"),
    ("repro.mr.p3c_mr", "mr_attribute_inspection", "mr.inspection"),
    ("repro.mr.p3c_mr", "run_tightening_job", "mr.tightening"),
    ("repro.mr.p3c_mr", "build_coreset", "mr.coreset.build"),
    ("repro.mr.p3c_mr", "run_assign_job", "mr.coreset.assign"),
    ("repro.mr.p3c_mr_light", "run_light_membership_job", "mr.light_membership"),
    ("repro.mr.core_generation", "run_candidate_generation", "mr.candidates"),
    ("repro.mr.core_generation", "run_support_job", "mr.support"),
    ("repro.mr.core_generation", "maximal_signatures", "core.apriori.maximal"),
    ("repro.mr.core_generation", "filter_redundant", "core.redundancy"),
)

SERVING_LAYER = "serving.assign"

MAPREDUCE_COUNTS = (
    "jobs",
    "tasks",
    "task_retries",
    "shuffle_records",
    "shuffle_bytes",
)
MAPREDUCE_SECONDS = (
    "job_s",
    "map_s",
    "reduce_s",
    "task_busy_s",
    "overhead_s",
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for _, _, layer in FUNCTION_LAYERS:
        units[f"{layer}.s"] = "s"
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.mr_s"] = "s"
        units[f"{layer}.driver_s"] = "s"
    units["mr.candidates.generated"] = "count"
    units["mr.core_generation.proven_ratio"] = "ratio"
    units["mr.em.iterations"] = "count"
    units[f"{SERVING_LAYER}.s"] = "s"
    units[f"{SERVING_LAYER}.calls"] = "count"
    units[f"{SERVING_LAYER}.points"] = "count"
    for name in MAPREDUCE_COUNTS:
        units[f"mapreduce.{name}"] = "count"
    units["mapreduce.shuffle_bytes"] = "bytes"
    for name in MAPREDUCE_SECONDS:
        units[f"mapreduce.{name}"] = "s"
    units["mapreduce.utilisation"] = "ratio"
    units["fit.s"] = "s"
    units["fit.driver_s"] = "s"
    units["fit.unattributed_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["data.generate.s"] = "s"
    units["data.generate.calls"] = "count"
    return units


class LayerTracer:
    """In-memory span accounting around the wrapped layer functions."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.mr_seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        #: Layer names in first-call order, with their nesting depth.
        self.order: dict[str, int] = {}
        #: Seconds of top-level (depth-0) calls.
        self.stage_seconds = 0.0
        #: Candidates per Apriori level of every core-generation call.
        self.candidates_per_level: list[list[int]] = []
        #: ``JobChain.run`` calls made while no wrapped function ran.
        self.jobs_outside_stages = 0
        self._depth = 0
        self._mr_clock = 0.0

    # -- wrapping ------------------------------------------------------

    def _span(self, layer: str, fn: Callable, on_result=None) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            self.order.setdefault(layer, self._depth)
            depth = self._depth
            mr_start = self._mr_clock
            self._depth += 1
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                self._depth -= 1
                self.seconds[layer] += elapsed
                self.calls[layer] += 1
                self.mr_seconds[layer] += self._mr_clock - mr_start
                if depth == 0:
                    self.stage_seconds += elapsed
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _chain_run(self, fn: Callable) -> Callable:
        tracer = self

        def run(chain: JobChain, *args: Any, **kwargs: Any):
            if tracer._depth == 0:
                tracer.jobs_outside_stages += 1
            started = time.perf_counter()
            try:
                result = fn(chain, *args, **kwargs)
            finally:
                tracer._mr_clock += time.perf_counter() - started
            tracer._record_job(chain, result)
            return result

        run.__wrapped__ = fn
        return run

    def _record_job(self, chain: JobChain, result) -> None:
        counts = self.counts
        workers = getattr(chain.runtime.default_executor, "max_workers", None) or 1
        if result.executor == "serial":
            workers = 1
        busy = sum(result.map_task_times) + sum(result.reduce_task_times)
        counts["jobs"] += 1
        counts["tasks"] += result.num_map_tasks + result.num_reduce_tasks
        counts["task_retries"] += result.counters.framework_value(
            Counters.TASK_RETRIES
        )
        counts["shuffle_records"] += result.counters.framework_value(
            Counters.SHUFFLE_RECORDS
        )
        counts["shuffle_bytes"] += result.counters.framework_value(
            Counters.SHUFFLE_BYTES
        )
        counts["job_s"] += result.wall_time
        counts["map_s"] += result.phase_seconds("map")
        counts["reduce_s"] += result.phase_seconds("reduce")
        counts["task_busy_s"] += busy
        counts["overhead_s"] += result.wall_time - busy / workers
        counts["slot_s"] += result.wall_time * workers

    def _on_core_generation(self, result) -> None:
        _, stats = result
        self.counts["proven"] += stats.prove_stats.proven
        self.counts["proving_candidates"] += stats.candidates_proven_total
        self.candidates_per_level.append(list(stats.candidates_per_level))

    def _on_candidates(self, result) -> None:
        self.counts["candidates_generated"] += len(result)

    def _on_em(self, result) -> None:
        self.counts["em_iterations"] += len(result.log_likelihood_history)

    def _on_assign(self, result) -> None:
        self.counts["assign_points"] += len(result.cluster_ids)

    @contextlib.contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Wrap every layer for the duration of the ``with`` block."""
        hooks = {
            "mr.core_generation": self._on_core_generation,
            "mr.candidates": self._on_candidates,
            "mr.em": self._on_em,
        }
        patches = []
        for module_name, attribute, layer in FUNCTION_LAYERS:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            wrapper = self._span(layer, original, hooks.get(layer))
            patches.append((module, attribute, original, wrapper))
        patches.append(
            (
                FittedModel,
                "assign",
                FittedModel.assign,
                self._span(SERVING_LAYER, FittedModel.assign, self._on_assign),
            )
        )
        patches.append((JobChain, "run", JobChain.run, self._chain_run(JobChain.run)))
        try:
            for owner, attribute, _, wrapper in patches:
                setattr(owner, attribute, wrapper)
            yield self
        finally:
            for owner, attribute, original, _ in patches:
                setattr(owner, attribute, original)

    # -- reporting -----------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer values (every layer, zero where it never ran)."""
        out: dict[str, float] = {}
        for _, _, layer in FUNCTION_LAYERS:
            seconds = self.seconds.get(layer, 0.0)
            mr_seconds = self.mr_seconds.get(layer, 0.0)
            out[f"{layer}.s"] = seconds
            out[f"{layer}.calls"] = self.calls.get(layer, 0)
            out[f"{layer}.mr_s"] = mr_seconds
            out[f"{layer}.driver_s"] = seconds - mr_seconds
        counts = self.counts
        out["mr.candidates.generated"] = counts["candidates_generated"]
        proving = counts["proving_candidates"]
        out["mr.core_generation.proven_ratio"] = (
            counts["proven"] / proving if proving else 0.0
        )
        out["mr.em.iterations"] = counts["em_iterations"]
        out[f"{SERVING_LAYER}.s"] = self.seconds.get(SERVING_LAYER, 0.0)
        out[f"{SERVING_LAYER}.calls"] = self.calls.get(SERVING_LAYER, 0)
        out[f"{SERVING_LAYER}.points"] = counts["assign_points"]
        for name in MAPREDUCE_COUNTS + MAPREDUCE_SECONDS:
            out[f"mapreduce.{name}"] = counts[name]
        slot_s = counts["slot_s"]
        out["mapreduce.utilisation"] = (
            counts["task_busy_s"] / slot_s if slot_s else 0.0
        )
        return out

    def stage_table(self, fit_s: float) -> str:
        """Stage x {driver, mapreduce} seconds, nested layers indented."""
        lines = [
            f"{'layer':<30} {'calls':>6} {'s':>9} {'mapreduce':>10} "
            f"{'driver':>9} {'% fit':>6}"
        ]
        for layer, depth in self.order.items():
            seconds = self.seconds[layer]
            mr_seconds = self.mr_seconds[layer]
            name = "  " * depth + layer
            lines.append(
                f"{name:<30} {self.calls[layer]:>6} {seconds:>9.3f} "
                f"{mr_seconds:>10.3f} {seconds - mr_seconds:>9.3f} "
                f"{100.0 * seconds / fit_s if fit_s else 0.0:>6.1f}"
            )
        unattributed = fit_s - self.stage_seconds
        lines.append(f"{'(unattributed)':<30} {'':>6} {unattributed:>9.3f}")
        lines.append(f"{'fit':<30} {'':>6} {fit_s:>9.3f}")
        return "\n".join(lines)
