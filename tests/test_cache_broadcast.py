"""Tests for the process-executor data plane: stable cache
fingerprints, per-worker broadcast via :class:`CacheHandle`, pickle-5
out-of-band argument packing and data-local split placement.
"""

from __future__ import annotations

import errno
import gc
import os
import pickle
import tempfile
from typing import Any

import numpy as np
import pytest

from repro.core.types import Interval, Signature
from repro.mapreduce import (
    CacheHandle,
    Context,
    DistributedCache,
    Job,
    JobConf,
    Mapper,
    MapReduceRuntime,
    ProcessExecutor,
    Reducer,
    SerialExecutor,
)
from repro.mapreduce import executors as executors_module
from repro.mapreduce import fs as fs_module
from repro.mapreduce.executors import (
    _WORKER_CACHES,
    _install_broadcasts,
    _pack_args,
    _run_packed,
)
from repro.mapreduce.faults import FaultPlan
from repro.mapreduce.fs import PlacedRecordStream
from repro.mapreduce.runtime import _resolve_block_rows, _resolve_broadcast
from repro.mapreduce.types import iter_split_blocks, split_records
from repro.mr import P3CPlusMR, P3CPlusMRConfig, P3CPlusMRLight


class TestFingerprintStability:
    def test_equal_entries_equal_fingerprint(self):
        a = DistributedCache({"x": 1, "y": [1, 2, 3]})
        b = DistributedCache({"y": [1, 2, 3], "x": 1})  # other insertion order
        assert a.fingerprint() == b.fingerprint()

    def test_different_entries_different_fingerprint(self):
        a = DistributedCache({"x": 1})
        assert a.fingerprint() != DistributedCache({"x": 2}).fingerprint()
        assert a.fingerprint() != DistributedCache({"z": 1}).fingerprint()

    def test_ndarray_entries(self):
        data = np.arange(12.0).reshape(3, 4)
        a = DistributedCache({"m": data})
        assert a.fingerprint() == DistributedCache({"m": data.copy()}).fingerprint()
        assert (
            a.fingerprint()
            != DistributedCache({"m": data + 1e-9}).fingerprint()
        )
        # Same bytes, different shape must not collide.
        assert (
            a.fingerprint()
            != DistributedCache({"m": data.reshape(4, 3)}).fingerprint()
        )

    def test_set_entries_order_independent(self):
        # Native set iteration order varies across processes under hash
        # randomisation; the fingerprint must not.
        a = DistributedCache({"s": {"alpha", "beta", "gamma"}})
        b = DistributedCache({"s": {"gamma", "alpha", "beta"}})
        assert a.fingerprint() == b.fingerprint()

    def test_nested_dict_entries(self):
        a = DistributedCache({"cfg": {"lo": 0.1, "hi": 0.9}})
        b = DistributedCache({"cfg": {"hi": 0.9, "lo": 0.1}})
        assert a.fingerprint() == b.fingerprint()

    def test_value_dataclass_entries(self):
        sigs = [Signature([Interval(0, 0.1, 0.4)])]
        a = DistributedCache({"signatures": sigs})
        assert (
            a.fingerprint()
            == DistributedCache({"signatures": list(sigs)}).fingerprint()
        )

    def test_pickle_roundtrip_preserves_fingerprint(self):
        cache = DistributedCache(
            {"b": np.ones(5), "a": {"k": (1, 2)}, "c": {3, 1, 2}}
        )
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.fingerprint() == cache.fingerprint()
        assert sorted(clone) == sorted(cache)
        np.testing.assert_array_equal(clone["b"], cache["b"])
        assert clone["a"] == cache["a"] and clone["c"] == cache["c"]


class TestCacheHandle:
    def test_resolves_against_registry(self):
        cache = DistributedCache({"k": 41})
        _WORKER_CACHES[cache.fingerprint()] = cache
        try:
            handle = CacheHandle(cache.fingerprint())
            assert handle["k"] == 41
            assert len(handle) == 1
            assert list(handle) == ["k"]
            assert handle.fingerprint() == cache.fingerprint()
        finally:
            del _WORKER_CACHES[cache.fingerprint()]

    def test_miss_raises_helpful_error(self):
        handle = CacheHandle("deadbeefdeadbeef")
        with pytest.raises(RuntimeError, match="not\\s+installed"):
            handle["anything"]

    def test_pickles_to_constant_size(self):
        big = DistributedCache({"blob": np.zeros((500, 500))})
        executor = ProcessExecutor(max_workers=1)
        handle = executor.broadcast(big)
        handle_bytes = pickle.dumps(handle, protocol=5)
        cache_bytes = pickle.dumps(big, protocol=5)
        assert len(handle_bytes) < 200
        assert len(cache_bytes) > 1_000_000
        clone = pickle.loads(handle_bytes)
        assert isinstance(clone, CacheHandle)
        assert clone.fingerprint() == big.fingerprint()

    def test_broadcast_is_idempotent(self):
        executor = ProcessExecutor(max_workers=1)
        cache = DistributedCache({"x": np.arange(4)})
        first = executor.broadcast(cache)
        second = executor.broadcast(DistributedCache({"x": np.arange(4)}))
        assert first.fingerprint() == second.fingerprint()
        assert len(executor._broadcasts) == 1

    def test_install_broadcasts_initializer(self):
        cache = DistributedCache({"seed": 7})
        try:
            _install_broadcasts({cache.fingerprint(): cache})
            assert CacheHandle(cache.fingerprint())["seed"] == 7
        finally:
            del _WORKER_CACHES[cache.fingerprint()]


class TestArgumentPacking:
    def test_roundtrip_plain_args(self):
        data, buffers = _pack_args((1, "two", [3.0]))
        assert _run_packed(lambda *a: a, data, buffers) == (1, "two", [3.0])

    def test_ndarrays_travel_out_of_band(self):
        block = np.arange(10_000, dtype=np.float64).reshape(100, 100)
        data, buffers = _pack_args((block, "meta"))
        # The array's 80kB payload left the pickle stream...
        assert len(data) < 2_000
        assert sum(len(b) for b in buffers) >= block.nbytes
        # ...and reassembles bit-identically on the worker side.
        restored, meta = _run_packed(lambda *a: a, data, buffers)
        np.testing.assert_array_equal(restored, block)
        assert meta == "meta"


# -- end-to-end: broadcast through a real process-pool job ---------------


class CacheProbeMapper(Mapper):
    """Emits, per record, the value looked up in the distributed cache
    and the concrete cache type the task saw."""

    def setup(self, context: Context) -> None:
        self._offsets: np.ndarray = context.cache["offsets"]
        self._cache_type = type(context.cache).__name__

    def map(self, key: Any, value: int, context: Context) -> None:
        context.emit(key, int(self._offsets[value]))
        context.emit(("cache_type", key), self._cache_type)


class FirstReducer(Reducer):
    def reduce(self, key: Any, values: list[Any], context: Context) -> None:
        context.emit(key, values[0])


def _probe_job() -> tuple[Job, list]:
    job = Job(
        mapper_factory=CacheProbeMapper,
        reducer_factory=FirstReducer,
        cache=DistributedCache({"offsets": np.arange(8) * 10}),
    )
    splits = split_records([(i, i) for i in range(8)], 4)
    return job, splits


class TestBroadcastEndToEnd:
    def test_process_tasks_see_a_handle_and_correct_values(self):
        job, splits = _probe_job()
        runtime = MapReduceRuntime(executor=ProcessExecutor(2))
        result = runtime.run(job, splits, JobConf(num_reducers=1))
        output = dict(result.output)
        for i in range(8):
            assert output[i] == i * 10
        # Every map task resolved the cache through the broadcast handle.
        assert {
            v for k, v in output.items()
            if isinstance(k, tuple) and k[0] == "cache_type"
        } == {"CacheHandle"}

    def test_serial_matches_process_output(self):
        job, splits = _probe_job()
        serial = MapReduceRuntime(executor=SerialExecutor()).run(
            job, splits, JobConf(num_reducers=1)
        )
        process = MapReduceRuntime(executor=ProcessExecutor(2)).run(
            job, splits, JobConf(num_reducers=1)
        )
        # Payloads match except the probe rows naming the cache type.
        def payload(result):
            return [
                (k, v) for k, v in result.output
                if not (isinstance(k, tuple) and k[0] == "cache_type")
            ]

        assert payload(serial) == payload(process)


# -- split placement: tasks carry a row range, not their rows ------------


class RowSumMapper(Mapper):
    def map(self, key: Any, value: np.ndarray, context: Context) -> None:
        context.emit(0, value)


class SumReducer(Reducer):
    def reduce(self, key: Any, values: list[Any], context: Context) -> None:
        context.emit(key, np.sum(values, axis=0))


def _spool_path(split) -> str:
    return split.records._chunk.path


class TestPlacement:
    @pytest.mark.parametrize("n", [1_000, 100_000])
    def test_placed_task_arguments_are_small(self, n):
        data = np.random.default_rng(n).uniform(size=(n, 16))
        executor = ProcessExecutor(2)
        job = _resolve_broadcast(
            Job(
                mapper_factory=RowSumMapper,
                reducer_factory=SumReducer,
                cache=DistributedCache({"offsets": np.arange(8)}),
            ),
            executor,
        )
        placed = executor.place(split_records(data, 8))
        for split in placed:
            assert isinstance(split.records, PlacedRecordStream)
            payload, buffers = _pack_args((job, split, JobConf()))
            assert len(payload) + sum(map(len, buffers)) < 1024

    def test_placed_split_delivers_the_original_blocks(self):
        data = np.random.default_rng(3).uniform(size=(103, 5))
        splits = split_records(data, 4)
        placed = ProcessExecutor(2).place(splits)
        for conf in (
            JobConf(),
            JobConf(max_block_rows=7),
            JobConf(memory_budget_bytes=64),
        ):
            for split, twin in zip(splits, placed):
                rows = _resolve_block_rows(split, conf)
                assert _resolve_block_rows(twin, conf) == rows
                want = list(iter_split_blocks(split, rows))
                got = list(iter_split_blocks(twin, rows))
                assert len(got) == len(want)
                for (k1, b1), (k2, b2) in zip(want, got):
                    np.testing.assert_array_equal(k1, k2)
                    np.testing.assert_array_equal(b1, b2)
        for split, twin in zip(splits, placed):
            assert [key for key, _ in twin] == [key for key, _ in split]
            assert twin.records[-1][0] == split.records[-1][0]

    def test_placement_is_written_once_per_array(self):
        data = np.random.default_rng(4).uniform(size=(40, 3))
        splits = split_records(data, 4)
        executor = ProcessExecutor(2)
        first = executor.place(splits)
        again = executor.place(split_records(data, 2))
        assert {_spool_path(s) for s in first + again} == {_spool_path(first[0])}

    def test_unplaceable_splits_pass_through(self):
        executor = ProcessExecutor(2)
        records = split_records([(i, i) for i in range(8)], 4)
        assert executor.place(records) == records
        strided = split_records(np.zeros((8, 4))[:, ::2], 4)
        assert executor.place(strided) == strided
        (single,) = split_records(np.zeros((8, 4)), 1)
        assert executor.place([single]) == [single]

    def test_spool_deleted_when_the_array_is_collected(self):
        data = np.random.default_rng(5).uniform(size=(40, 3))
        executor = ProcessExecutor(2)
        placed = executor.place(split_records(data, 4))
        path = _spool_path(placed[0])
        assert os.path.exists(path)
        del data, placed
        gc.collect()
        assert not os.path.exists(path)

    def test_release_drops_the_spool_and_sees_new_bytes(self):
        data = np.random.default_rng(7).uniform(size=(40, 3))
        executor = ProcessExecutor(2)
        path = _spool_path(executor.place(split_records(data, 4))[0])
        executor.release_placements()
        gc.collect()
        assert not os.path.exists(path)
        data *= 2.0  # an in-place change between fits is seen by the next
        placed = executor.place(split_records(data, 4))
        assert _spool_path(placed[0]) != path
        np.testing.assert_array_equal(
            np.concatenate([s.records.as_block()[1] for s in placed]), data
        )

    def test_spool_write_failure_leaves_splits_unplaced(self, monkeypatch):
        def no_space(data):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(executors_module, "spool_array", no_space)
        splits = split_records(np.zeros((8, 4)), 4)
        assert ProcessExecutor(2).place(splits) == splits

    def test_spool_dir_needs_room_for_the_array(self, monkeypatch):
        class Full:
            f_bavail, f_frsize = 16, 4096

        monkeypatch.setattr(fs_module.os, "statvfs", lambda path: Full)
        assert fs_module._spool_dir(1 << 30) == tempfile.gettempdir()

        def missing(path):
            raise FileNotFoundError(path)

        monkeypatch.setattr(fs_module.os, "statvfs", missing)
        assert fs_module._spool_dir(8) == tempfile.gettempdir()

    def test_spool_deleted_when_the_executor_is_collected(self):
        data = np.random.default_rng(6).uniform(size=(40, 3))
        executor = ProcessExecutor(2)
        path = _spool_path(executor.place(split_records(data, 4))[0])
        assert os.path.exists(path)
        del executor
        gc.collect()
        assert not os.path.exists(path)


def _fit_digest(result) -> list:
    clusters = [
        (
            np.asarray(c.members).tolist(),
            sorted(c.relevant_attributes),
            repr(c.signature),
        )
        for c in result.clusters
    ]
    return [clusters, np.asarray(result.outliers).tolist()]


@pytest.fixture()
def placements(monkeypatch):
    """Records every split list the process executor hands to tasks."""
    seen: list = []
    place = ProcessExecutor.place

    def spy(self, splits):
        placed = place(self, splits)
        seen.append(placed)
        return placed

    monkeypatch.setattr(ProcessExecutor, "place", spy)
    return seen


@pytest.fixture()
def spooled(monkeypatch):
    """Records the path of every spool file the process executor writes."""
    paths: list[str] = []

    def spy(data):
        spool = fs_module.spool_array(data)
        paths.append(spool.path)
        return spool

    monkeypatch.setattr(executors_module, "spool_array", spy)
    return paths


@pytest.mark.parametrize("light", [True, False], ids=["light", "exact"])
def test_no_spool_outlives_the_fit(small_dataset, spooled, light):
    cls = P3CPlusMRLight if light else P3CPlusMR
    data = small_dataset.data.copy()
    model = cls(
        mr_config=P3CPlusMRConfig(num_splits=4, executor="process", max_workers=2)
    )
    model.fit(data)
    assert spooled
    assert model.chain is not None  # model and data are both still alive
    assert not any(os.path.exists(path) for path in spooled)


def test_process_fit_without_spool_room_equals_serial(
    small_dataset, placements, monkeypatch
):
    def no_space(data):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(executors_module, "spool_array", no_space)
    serial = P3CPlusMRLight(mr_config=P3CPlusMRConfig(num_splits=4)).fit(
        small_dataset.data
    )
    process = P3CPlusMRLight(
        mr_config=P3CPlusMRConfig(num_splits=4, executor="process", max_workers=2)
    ).fit(small_dataset.data)
    assert _fit_digest(process) == _fit_digest(serial)
    assert placements
    assert not any(
        isinstance(split.records, PlacedRecordStream)
        for placed in placements
        for split in placed
    )


@pytest.mark.parametrize("light", [True, False], ids=["light", "exact"])
@pytest.mark.parametrize("variant", ["plain", "chaos", "budget"])
def test_process_fit_on_placed_splits_equals_serial(
    small_dataset, placements, light, variant
):
    cls = P3CPlusMRLight if light else P3CPlusMR
    serial = cls(mr_config=P3CPlusMRConfig(num_splits=4)).fit(small_dataset.data)
    process_config = P3CPlusMRConfig(
        num_splits=4,
        executor="process",
        max_workers=2,
        fault_plan=(
            FaultPlan.parse(
                "map:error:p=0.3;reduce:error:p=0.25;map:corrupt:p=0.2", seed=3
            )
            if variant == "chaos"
            else None
        ),
        memory_budget_bytes=4096 if variant == "budget" else None,
    )
    process = cls(mr_config=process_config).fit(small_dataset.data)
    assert _fit_digest(process) == _fit_digest(serial)
    assert any(
        isinstance(split.records, PlacedRecordStream)
        for placed in placements
        for split in placed
    )
