"""Work-queue fault injection: crashes, poisoned chunks, clean shutdown.

A streamed run must end exactly one of two ways: complete with results
byte-identical to a fault-free run (crashed workers replaced, their
chunks re-dispatched), or fail loudly with a *named* error and no
partial cache writes.  Faults are injected through the chunk descriptor
(:class:`~repro.engine.streaming.StreamFault`), so a re-dispatched
chunk is clean by construction unless the test pins the fault on.
"""

import pytest

from repro.engine import EngineConfig, ExperimentEngine
from repro.engine.streaming import (
    StreamChunkError,
    StreamFault,
    StreamWorkerCrash,
)
from repro.llm.profiles import MODEL_PROFILES

SEED = 11
WORKLOAD = "synthetic:default:n=8"
TASK = "syntax_error"


def _gpt4():
    return next(p for p in MODEL_PROFILES if p.name == "gpt4")


def _config(tmp_path, workers=2):
    return EngineConfig(
        seed=SEED, chunk_size=20, workers=workers, cache_dir=tmp_path / "cache"
    )


def _reference(tmp_path):
    with ExperimentEngine(
        EngineConfig(seed=SEED, chunk_size=20, cache_dir=tmp_path / "ref"),
        (_gpt4(),),
    ) as engine:
        return engine.run_cell("gpt4", TASK, WORKLOAD)


class TestWorkerCrashRecovery:
    def test_killed_worker_chunk_is_redispatched(self, tmp_path):
        reference = _reference(tmp_path)
        with ExperimentEngine(_config(tmp_path), (_gpt4(),)) as engine:
            engine.streaming.fault = StreamFault(kind="crash", chunk=2)
            result = engine.run_cell("gpt4", TASK, WORKLOAD)
            stats = engine.stream_stats()
        assert stats["redispatched"] >= 1
        assert (result.binary, result.typed) == (
            reference.binary,
            reference.typed,
        )
        assert result.instance_count == reference.instance_count

    def test_persistent_crash_fails_with_named_error(self, tmp_path):
        with ExperimentEngine(_config(tmp_path), (_gpt4(),)) as engine:
            engine.streaming.fault = StreamFault(
                kind="crash", chunk=1, once=False
            )
            with pytest.raises(StreamWorkerCrash):
                engine.run_cell("gpt4", TASK, WORKLOAD)
        # Nothing half-written: the failed cell left no cache entry.
        assert list((tmp_path / "cache").glob("cells/**/manifest.json")) == []
        assert list((tmp_path / "cache").glob("cells/**/seg-*.json")) == []


class TestPoisonedChunk:
    def test_poison_fails_loudly_with_no_partial_writes(self, tmp_path):
        with ExperimentEngine(_config(tmp_path), (_gpt4(),)) as engine:
            engine.streaming.fault = StreamFault(kind="poison", chunk=2)
            with pytest.raises(StreamChunkError, match="injected poison"):
                engine.run_cell("gpt4", TASK, WORKLOAD)
        assert list((tmp_path / "cache").glob("cells/**/manifest.json")) == []
        assert list((tmp_path / "cache").glob("cells/**/seg-*.json")) == []

    def test_engine_recovers_after_poisoned_run(self, tmp_path):
        reference = _reference(tmp_path)
        config = _config(tmp_path)
        with ExperimentEngine(config, (_gpt4(),)) as engine:
            engine.streaming.fault = StreamFault(kind="poison", chunk=0)
            with pytest.raises(StreamChunkError):
                engine.run_cell("gpt4", TASK, WORKLOAD)
            # Same engine, fault cleared: in-flight shards were drained
            # at a clean boundary and a fresh pool serves the retry.
            engine.streaming.fault = None
            result = engine.run_cell("gpt4", TASK, WORKLOAD)
        assert (result.binary, result.typed) == (
            reference.binary,
            reference.typed,
        )


class TestSerialFaultPath:
    """workers=1 streams in-process; faults surface as the same errors."""

    def test_serial_poison(self, tmp_path):
        with ExperimentEngine(_config(tmp_path, workers=1), (_gpt4(),)) as engine:
            engine.streaming.fault = StreamFault(kind="poison", chunk=1)
            with pytest.raises(StreamChunkError):
                engine.run_cell("gpt4", TASK, WORKLOAD)
        assert list((tmp_path / "cache").glob("cells/**/seg-*.json")) == []
        # The inline build the failed cell abandoned left nothing behind.
        assert _uncommitted(tmp_path / "cache") == []

    def test_serial_skip_discards_the_abandoned_build(self, tmp_path):
        config = EngineConfig(
            seed=SEED,
            chunk_size=20,
            workers=1,
            cache_dir=tmp_path / "cache",
            on_cell_error="skip",
        )
        with ExperimentEngine(config, (_gpt4(),)) as engine:
            engine.streaming.fault = StreamFault(kind="poison", chunk=1)
            assert engine.run_task(TASK, (WORKLOAD,)) == {}
            assert len(engine.failures) == 1
        assert _uncommitted(tmp_path / "cache") == []

    def test_serial_crash(self, tmp_path):
        with ExperimentEngine(_config(tmp_path, workers=1), (_gpt4(),)) as engine:
            engine.streaming.fault = StreamFault(kind="crash", chunk=0)
            with pytest.raises(StreamWorkerCrash):
                engine.run_cell("gpt4", TASK, WORKLOAD)


ALL_TASKS = (
    "syntax_error",
    "miss_token",
    "query_equiv",
    "performance_pred",
    "query_exp",
)
GRID_WORKLOAD = "synthetic:default:n=4"


def _metrics(grids):
    return {
        task: {key: (cell.binary, cell.typed, cell.location) for key, cell in grid.items()}
        for task, grid in grids.items()
    }


def _grid_reference(tmp_path, chunk_size=10):
    config = EngineConfig(seed=SEED, chunk_size=chunk_size, cache_dir=tmp_path / "ref")
    with ExperimentEngine(config, MODEL_PROFILES[:2]) as engine:
        return _metrics(dict(engine.run_tasks(ALL_TASKS, (GRID_WORKLOAD,))))


def _uncommitted(cache_dir):
    """Segment and temporary files of dataset/workload entries with no
    manifest — what a failed or interrupted build must not leave."""
    left = []
    for namespace in ("datasets", "workloads"):
        for entry in (cache_dir / namespace).glob("*"):
            if not (entry / "manifest.json").exists():
                left.extend(entry.iterdir())
            left.extend(entry.glob("*.tmp.*"))
    return left


class TestBuildFaults:
    """A build is a work item: its faults follow the chunk fault model."""

    @pytest.mark.parametrize("chunk_size", (10, None))
    def test_crashed_build_is_redispatched(self, tmp_path, chunk_size):
        reference = _grid_reference(tmp_path, chunk_size)
        config = EngineConfig(
            seed=SEED, chunk_size=chunk_size, workers=2, cache_dir=tmp_path / "cache"
        )
        with ExperimentEngine(config, MODEL_PROFILES[:2]) as engine:
            # The first build stores the workload; it dies after writing
            # (and announcing) every segment, so its re-dispatch writes
            # and announces them all again.
            engine.streaming.fault = StreamFault(kind="crash", chunk=0, build=True)
            grids = dict(engine.run_tasks(ALL_TASKS, (GRID_WORKLOAD,)))
            assert engine.streaming.stats.redispatched >= 1
            assert engine.streaming.stats.builds == len(ALL_TASKS)
        assert _metrics(grids) == reference
        assert _uncommitted(tmp_path / "cache") == []

    def test_persistent_build_crash_fails_its_cells(self, tmp_path):
        config = EngineConfig(
            seed=SEED, chunk_size=10, workers=2, cache_dir=tmp_path / "cache"
        )
        with ExperimentEngine(config, MODEL_PROFILES[:2]) as engine:
            engine.streaming.fault = StreamFault(
                kind="crash", chunk=0, build=True, once=False
            )
            with pytest.raises(StreamWorkerCrash, match="syntax_error build"):
                dict(engine.run_tasks(ALL_TASKS, (GRID_WORKLOAD,)))
        cache = tmp_path / "cache"
        assert list(cache.glob("cells/**/manifest.json")) == []
        assert list(cache.glob("datasets/*/manifest.json")) == []
        assert _uncommitted(cache) == []

    @pytest.mark.parametrize("index", (0, 2))
    def test_poisoned_build_fails_only_its_cells(self, tmp_path, index):
        reference = _grid_reference(tmp_path)
        config = EngineConfig(
            seed=SEED,
            chunk_size=10,
            workers=2,
            cache_dir=tmp_path / "cache",
            on_cell_error="skip",
        )
        with ExperimentEngine(config, MODEL_PROFILES[:2]) as engine:
            engine.streaming.fault = StreamFault(kind="poison", chunk=index, build=True)
            grids = dict(engine.run_tasks(ALL_TASKS, (GRID_WORKLOAD,)))
            failures = engine.failures
        poisoned = ALL_TASKS[index]
        assert {failure.task for failure in failures} == {poisoned}
        assert len(failures) == 2
        assert "injected poison" in failures[0].message
        assert grids[poisoned] == {}
        reference[poisoned] = {}
        assert _metrics(grids) == reference
        cache = tmp_path / "cache"
        assert _uncommitted(cache) == []
        assert len(list(cache.glob("datasets/*/manifest.json"))) == len(ALL_TASKS) - 1
        # With the first build poisoned, the next one stores the workload.
        assert len(list(cache.glob("workloads/*/manifest.json"))) == 1


class TestInterruptDuringBuild:
    def test_interrupt_stops_a_long_build_at_once(self, tmp_path, monkeypatch):
        """The drain stops a worker holding a build instead of waiting
        for it, even one that inherited the run's SIGTERM handler (the
        pool forks while the handler is installed, as under the CLI);
        the build's segments are discarded."""
        import signal
        import time

        import repro.tasks.streaming as task_streaming
        from repro.lifecycle import GracefulInterrupt, RunInterrupted

        original = task_streaming.iter_task_instances

        def slow(task, *args, **kwargs):
            if task == "miss_token":
                time.sleep(60)
            yield from original(task, *args, **kwargs)

        def hung(signum, frame):
            raise TimeoutError("the drain waited for the build")

        monkeypatch.setattr(task_streaming, "iter_task_instances", slow)
        config = EngineConfig(
            seed=SEED, chunk_size=10, workers=2, cache_dir=tmp_path / "cache"
        )
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(30)
        try:
            with GracefulInterrupt() as interrupt, ExperimentEngine(
                config, MODEL_PROFILES[:2]
            ) as engine:
                engine.interrupt = interrupt
                engine.on_cell_commit = lambda: interrupt.trigger("SIGTERM")
                started = time.monotonic()
                with pytest.raises(RunInterrupted):
                    dict(engine.run_tasks(ALL_TASKS, (GRID_WORKLOAD,)))
                elapsed = time.monotonic() - started
                assert engine.streaming.stats.builds >= 2
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert elapsed < 8, elapsed
        assert _uncommitted(tmp_path / "cache") == []
