"""Chunk-size invariance: how a grid is cut into chunks never shows.

Every cell goes through the same chunk scheduler; what varies is the
chunk size (none — the dataset is materialised and every answer kept —
or 1, a non-divisor of n, exactly n, and more than n), the worker count
(in-process or the work queue) and the cache state (no cache, cold,
warm).  Metrics must be byte-identical, not merely close, across all of
them: the same task instances in the same order for every workload
family and task, the same metrics from the engine, and interchangeable
cache entries (a chunked run warms an unchunked run and vice versa).
Each (task, workload) dataset is generated once per engine whatever
the cache setting, and so is each workload; with several workers both
are generated in the queue workers, never in the parent.
"""

import os
from itertools import chain

import pytest

import repro.engine.worker as worker
import repro.tasks.streaming as task_streaming
from repro.engine import EngineConfig, ExperimentEngine
from repro.engine.cache import ResultCache, dataset_key, workload_key
from repro.llm.profiles import MODEL_PROFILES
from repro.tasks.registry import build_dataset, tasks_for_workload
from repro.tasks.streaming import iter_instance_chunks, iter_task_instances
from repro.workloads import load_workload, resolve_workload_name
from repro.workloads.streaming import stream_workload

SEED = 3

#: One member of every workload family: the four paper workloads plus a
#: small synthetic spec (which exercises all five tasks).
WORKLOAD_FAMILIES = (
    "sdss",
    "sqlshare",
    "join_order",
    "spider",
    "synthetic:default:n=12",
)

#: chunk=1 (maximal fragmentation), 7 (a non-divisor of every family
#: size here), and 10**9 (a single chunk holding the whole stream).
CHUNK_SIZES = (1, 7, 10**9)

#: The invariance grid: two models, three tasks, 24 instances per cell.
#: Chunked, the tasks after the first read the workload the first one
#: stored (in the cache, else in the spill store).
GRID_WORKLOAD = "synthetic:default:n=2"
GRID_TASKS = ("syntax_error", "query_equiv", "miss_token")
GRID_N = 24

_REFERENCE: dict[tuple[str, str], list] = {}


def _reference_instances(task: str, workload_name: str) -> list:
    """Materialised build, memoised across the parametrised matrix."""
    key = (task, workload_name)
    if key not in _REFERENCE:
        _REFERENCE[key] = build_dataset(
            task, load_workload(workload_name, SEED), seed=SEED
        ).instances
    return _REFERENCE[key]


class TestChunkedProductionMatchesBuild:
    @pytest.mark.parametrize("workload_name", WORKLOAD_FAMILIES)
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_every_task_every_family(self, workload_name, chunk_size):
        canonical = resolve_workload_name(workload_name)
        for task in tasks_for_workload(canonical):
            reference = _reference_instances(task, canonical)
            chunks = list(
                iter_instance_chunks(
                    task,
                    stream_workload(canonical, SEED),
                    seed=SEED,
                    chunk_size=chunk_size,
                )
            )
            streamed = list(chain.from_iterable(chunks))
            assert streamed == reference, (task, canonical, chunk_size)
            # Every chunk but the last is exactly chunk_size instances.
            assert all(len(c) == chunk_size for c in chunks[:-1])
            assert all(0 < len(c) <= chunk_size for c in chunks)

    @pytest.mark.parametrize("workload_name", ("sdss", "synthetic:default:n=12"))
    def test_max_instances_caps_like_build_dataset(self, workload_name):
        canonical = resolve_workload_name(workload_name)
        for task in tasks_for_workload(canonical):
            capped = build_dataset(
                task, load_workload(canonical, SEED), seed=SEED, max_instances=17
            ).instances
            streamed = list(
                iter_task_instances(
                    task,
                    stream_workload(canonical, SEED),
                    seed=SEED,
                    max_instances=17,
                )
            )
            assert streamed == capped, (task, canonical)


def _gpt4():
    return next(p for p in MODEL_PROFILES if p.name == "gpt4")


def _metrics(cell):
    return (cell.binary, cell.typed, cell.location)


def _count(cell):
    return getattr(cell, "instance_count", None) or len(cell.answers)


class _Calls:
    """Calls of a wrapped function, from this process or a forked worker.

    Each call appends ``<pid> <label>`` to a file, so calls made in
    queue workers are counted too.
    """

    def __init__(self, path) -> None:
        self.path = path

    def wrap(self, monkeypatch, target, name, label=lambda *args: ""):
        """Record every call of ``target.name`` (or ``target[name]``)."""
        mapping = isinstance(target, dict)
        original = target[name] if mapping else getattr(target, name)
        path = self.path

        def recording(*args, **kwargs):
            with open(path, "a", encoding="utf-8") as log:
                log.write(f"{os.getpid()} {label(*args)}\n")
            return original(*args, **kwargs)

        if mapping:
            monkeypatch.setitem(target, name, recording)
        else:
            monkeypatch.setattr(target, name, recording)

    def records(self) -> list[tuple[int, str]]:
        if not self.path.exists():
            return []
        return [
            (int(pid), label)
            for pid, _, label in (
                line.partition(" ") for line in self.path.read_text().splitlines()
            )
        ]

    def labels(self) -> list[str]:
        return [label for _, label in self.records()]

    def clear(self) -> None:
        self.path.unlink(missing_ok=True)

    def __len__(self) -> int:
        return len(self.records())


_GRID_REFERENCE: dict = {}


def _grid_reference():
    """The unchunked, in-process, uncached grid every variant must match."""
    if not _GRID_REFERENCE:
        with ExperimentEngine(
            EngineConfig(seed=SEED), MODEL_PROFILES[:2]
        ) as engine:
            for task in GRID_TASKS:
                grid = engine.run_task(task, (GRID_WORKLOAD,))
                assert all(len(cell.answers) == GRID_N for cell in grid.values())
                _GRID_REFERENCE[task] = grid
    return _GRID_REFERENCE


class TestChunkSizeInvariance:
    @pytest.mark.parametrize("workers", (1, 2))
    @pytest.mark.parametrize("chunk_size", (None, 1, 7, GRID_N, GRID_N + 5))
    def test_grid_identical_across_cache_states(self, tmp_path, chunk_size, workers):
        references = _grid_reference()
        for label, cache_dir in (
            ("no cache", None),
            ("cold", tmp_path / "cache"),
            ("warm", tmp_path / "cache"),
        ):
            config = EngineConfig(
                seed=SEED, chunk_size=chunk_size, workers=workers, cache_dir=cache_dir
            )
            with ExperimentEngine(config, MODEL_PROFILES[:2]) as engine:
                grids = {
                    task: engine.run_task(task, (GRID_WORKLOAD,)) for task in GRID_TASKS
                }
                if label == "warm":
                    assert engine.computed_cells == 0, label
                else:
                    assert engine.cached_cells == 0, label
            for task, grid in grids.items():
                reference = references[task]
                assert list(grid) == list(reference), (label, task)
                for key, cell in grid.items():
                    where = (label, task, key)
                    assert _metrics(cell) == _metrics(reference[key]), where
                    assert _count(cell) == GRID_N, where
                    if chunk_size is None:
                        assert cell.answers == reference[key].answers, where
                    else:
                        assert cell.chunk_count == -(-GRID_N // chunk_size), where

    @pytest.mark.parametrize(
        "task",
        (
            "syntax_error",
            "miss_token",
            "query_equiv",
            "performance_pred",
            "query_exp",
        ),
    )
    def test_all_five_tasks_identical(self, task, tmp_path):
        workload_name = "synthetic:default:n=12"
        with ExperimentEngine(
            EngineConfig(seed=SEED, cache_dir=tmp_path / "m"), (_gpt4(),)
        ) as engine:
            reference = engine.run_cell("gpt4", task, workload_name)
        with ExperimentEngine(
            EngineConfig(seed=SEED, chunk_size=31, cache_dir=tmp_path / "s"),
            (_gpt4(),),
        ) as engine:
            streamed = engine.run_cell("gpt4", task, workload_name)
        assert _metrics(streamed) == _metrics(reference)
        assert streamed.instance_count == len(reference.dataset.instances)

    def test_paper_workload_streams_identically(self, tmp_path):
        with ExperimentEngine(
            EngineConfig(seed=SEED, cache_dir=tmp_path / "m"), (_gpt4(),)
        ) as engine:
            reference = engine.run_cell("gpt4", "syntax_error", "sdss")
        with ExperimentEngine(
            EngineConfig(seed=SEED, chunk_size=37, workers=2, cache_dir=tmp_path / "s"),
            (_gpt4(),),
        ) as engine:
            streamed = engine.run_cell("gpt4", "syntax_error", "sdss")
            stats = engine.stream_stats()
        assert _metrics(streamed) == _metrics(reference)
        assert stats is not None and stats["instances"] == streamed.instance_count


class TestDatasetGeneratedOnce:
    """One generator pass per (task, workload) and engine, whatever the
    cache setting; warm unchunked runs read each dataset once."""

    @pytest.fixture
    def passes(self, monkeypatch, tmp_path):
        calls = _Calls(tmp_path / "passes.log")
        calls.wrap(monkeypatch, task_streaming, "iter_task_instances")
        return calls

    @pytest.mark.parametrize("workers", (1, 2))
    def test_chunked_grid_generates_each_dataset_once(self, tmp_path, passes, workers):
        workload_name = "synthetic:default:n=10"
        for label, cache_dir, expected in (
            ("no cache", None, 1),
            ("cold", tmp_path / "cache", 1),
            ("warm", tmp_path / "cache", 0),
        ):
            passes.clear()
            config = EngineConfig(
                seed=SEED, chunk_size=30, workers=workers, cache_dir=cache_dir
            )
            with ExperimentEngine(config, MODEL_PROFILES) as engine:
                grid = engine.run_task("syntax_error", (workload_name,))
                assert engine.stream_stats()["builds"] == expected, label
            assert len(grid) == len(MODEL_PROFILES)
            assert len(passes) == expected, label

    def test_spill_directory_is_removed_on_close(self, passes):
        config = EngineConfig(seed=SEED, chunk_size=30)
        with ExperimentEngine(config, MODEL_PROFILES[:2]) as engine:
            engine.run_task("syntax_error", ("synthetic:default:n=10",))
            spill = engine._spill.root
            assert spill.is_dir()
        assert not spill.exists()
        assert len(passes) == 1

    def test_warm_unchunked_grid_reads_each_dataset_once(self, tmp_path):
        config = EngineConfig(seed=SEED, cache_dir=tmp_path / "cache")
        with ExperimentEngine(config, MODEL_PROFILES) as engine:
            engine.run_task("syntax_error", ("synthetic:default:n=10",))
        with ExperimentEngine(config, MODEL_PROFILES) as engine:
            engine.run_task("syntax_error", ("synthetic:default:n=10",))
            assert engine.cached_cells == len(MODEL_PROFILES)
            assert engine.cache.stats.dataset_hits == 1


class TestWorkloadGeneratedOnce:
    """The synthetic generator runs once per workload and engine: the
    first dataset built from a workload stores its queries (in the
    cache, else in the engine's spill directory), and the workload's
    other tasks read them."""

    ALL_TASKS = (
        "syntax_error",
        "miss_token",
        "query_equiv",
        "performance_pred",
        "query_exp",
    )

    @pytest.fixture
    def passes(self, monkeypatch, tmp_path):
        import repro.workloads.synthetic.generator as generator

        calls = _Calls(tmp_path / "passes.log")
        calls.wrap(
            monkeypatch,
            generator,
            "iter_synthetic_queries",
            label=lambda spec, *args: spec.canonical(),
        )
        return calls

    def _grid(self, config, tasks):
        with ExperimentEngine(config, MODEL_PROFILES[:2]) as engine:
            return {
                task: engine.run_task(task, (GRID_WORKLOAD,)) for task in tasks
            }

    @pytest.mark.parametrize("workers", (1, 2))
    def test_five_task_grid_generates_the_workload_once(
        self, tmp_path, passes, workers
    ):
        reference = None
        for label, cache_dir, expected in (
            ("cold", tmp_path / "cache", 1),
            ("warm", tmp_path / "cache", 0),
            ("no cache", None, 1),
        ):
            passes.clear()
            config = EngineConfig(
                seed=SEED, chunk_size=10, workers=workers, cache_dir=cache_dir
            )
            grids = self._grid(config, self.ALL_TASKS)
            assert passes.labels() == [GRID_WORKLOAD] * expected, label
            metrics = {
                task: [_metrics(cell) for cell in grid.values()]
                for task, grid in grids.items()
            }
            assert metrics == (reference or metrics), label
            reference = metrics

    @pytest.mark.parametrize("cache_first", (False, True))
    def test_capped_run_never_stores_a_workload(self, tmp_path, passes, cache_first):
        """A ``max_instances`` reader stops early, so a capped run writes
        no workload segment; it builds the same capped datasets as
        ``build_dataset`` and reads a complete entry when there is one."""
        cache_dir = tmp_path / "cache"
        if cache_first:
            config = EngineConfig(seed=SEED, chunk_size=10, cache_dir=cache_dir)
            self._grid(config, ("performance_pred",))
        passes.clear()
        config = EngineConfig(
            seed=SEED, chunk_size=7, max_instances=17, cache_dir=cache_dir
        )
        grids = self._grid(config, ("syntax_error", "query_equiv"))
        assert len(passes) == (0 if cache_first else 2)
        cache = ResultCache(cache_dir)
        assert len(cache.workload_entries()) == (1 if cache_first else 0)
        if not cache_first:
            assert not (cache_dir / "workloads").exists()
        workload = load_workload(GRID_WORKLOAD, SEED)
        for task, grid in grids.items():
            capped = build_dataset(task, workload, seed=SEED, max_instances=17)
            stored = cache.get_dataset(dataset_key(task, GRID_WORKLOAD, SEED, 17))
            assert stored.instances == capped.instances, task
            assert all(_count(cell) == 17 for cell in grid.values()), task
        # An uncapped run on the same cache sees the whole workload.
        config = EngineConfig(seed=SEED, chunk_size=7, cache_dir=cache_dir)
        grid = self._grid(config, ("syntax_error",))["syntax_error"]
        assert all(_count(cell) == GRID_N for cell in grid.values())
        assert len(cache.get_workload(workload_key(GRID_WORKLOAD, SEED))) == GRID_N


class TestBuildsRunInWorkers:
    """With several workers each dataset is one build work item, run in a
    queue worker: no task-instance or workload generator runs in the
    parent, which schedules, reads announced segments and merges."""

    ALL_TASKS = TestWorkloadGeneratedOnce.ALL_TASKS

    def test_chunked_five_task_grid(self, tmp_path, monkeypatch):
        import repro.workloads.synthetic.generator as generator

        calls = _Calls(tmp_path / "calls.log")
        calls.wrap(
            monkeypatch, task_streaming, "iter_task_instances", label=lambda task, *a: task
        )
        calls.wrap(
            monkeypatch, generator, "iter_synthetic_queries", label=lambda *a: "workload"
        )
        reference = None
        for label, cache_dir, builds in (
            ("cold", tmp_path / "cache", 5),
            ("warm", tmp_path / "cache", 0),
            ("no cache", None, 5),
        ):
            calls.clear()
            config = EngineConfig(seed=SEED, chunk_size=10, workers=2, cache_dir=cache_dir)
            with ExperimentEngine(config, MODEL_PROFILES[:2]) as engine:
                grids = dict(engine.run_tasks(self.ALL_TASKS, (GRID_WORKLOAD,)))
                stats = engine.stream_stats()
            assert stats["builds"] == builds, label
            expected = sorted([*self.ALL_TASKS, "workload"]) if builds else []
            assert sorted(calls.labels()) == expected, label
            assert os.getpid() not in {pid for pid, _ in calls.records()}, label
            metrics = {
                task: [_metrics(cell) for cell in grid.values()]
                for task, grid in grids.items()
            }
            assert metrics == (reference or metrics), label
            reference = metrics
        assert list(reference) == list(self.ALL_TASKS)

    @pytest.mark.parametrize("cached", (False, True))
    def test_unchunked_paper_task(self, tmp_path, monkeypatch, cached):
        import repro.tasks.registry as registry
        import repro.workloads as workloads

        with ExperimentEngine(EngineConfig(seed=SEED), MODEL_PROFILES[:2]) as engine:
            reference = engine.run_task("syntax_error", ("sdss",))
        # Forked workers would inherit a memo of this process's own.
        worker.reset_worker_caches()
        calls = _Calls(tmp_path / "calls.log")
        calls.wrap(monkeypatch, workloads._GENERATORS, "sdss", label=lambda *a: "workload")
        calls.wrap(
            monkeypatch,
            registry,
            "build_syntax_error_dataset",
            label=lambda *a: "syntax_error",
        )
        config = EngineConfig(
            seed=SEED, workers=2, cache_dir=tmp_path / "cache" if cached else None
        )
        with ExperimentEngine(config, MODEL_PROFILES[:2]) as engine:
            grid = engine.run_task("syntax_error", ("sdss",))
        assert sorted(calls.labels()) == ["syntax_error", "workload"]
        assert os.getpid() not in {pid for pid, _ in calls.records()}
        assert list(grid) == list(reference)
        for key, cell in grid.items():
            assert cell.answers == reference[key].answers, key


class TestOnePassGrid:
    """A ``--workload`` request is one scheduler pass over every task."""

    @pytest.mark.parametrize("workers", (1, 2))
    def test_reports_match_per_task_run_task(self, tmp_path, monkeypatch, workers):
        from repro import execution
        from repro.engine.streaming import StreamingEvaluator
        from repro.evalfw.runner import ExperimentRunner

        passes = []
        evaluate = StreamingEvaluator.evaluate

        def counted(self, *args, **kwargs):
            passes.append(args[0])
            return evaluate(self, *args, **kwargs)

        monkeypatch.setattr(StreamingEvaluator, "evaluate", counted)

        request = execution.RunRequest(
            workload=GRID_WORKLOAD,
            seed=SEED,
            workers=workers,
            chunk_size=10,
            cache_dir=tmp_path / "cache",
            runs_dir=tmp_path / "runs",
        )
        prepared = execution.prepare_run(request)
        emitted: list[str] = []
        outcome = execution.execute_prepared(
            prepared, None, emit=emitted.append, info=lambda message: None
        )
        assert outcome.status == "completed"
        assert [report["name"] for report in outcome.reports] == prepared.wanted
        assert len(passes) == 1 and len(passes[0]) == 5 * len(MODEL_PROFILES)
        runner = ExperimentRunner(seed=SEED, chunk_size=10)
        try:
            expected = []
            for task in prepared.wanted:
                expected.append(f"\n=== Task {task} over workload {GRID_WORKLOAD} ===\n")
                expected.append(execution.workload_grid_text(runner, task, GRID_WORKLOAD))
        finally:
            runner.close()
        assert len(prepared.wanted) == 5
        assert emitted == expected

    @pytest.mark.parametrize("workers", (1, 2))
    def test_each_report_follows_its_last_commit(self, tmp_path, workers):
        """Served from the cache, each task's report is rendered right
        after its own cells commit, not after the whole grid."""
        from repro import execution

        request = execution.RunRequest(
            workload=GRID_WORKLOAD,
            seed=SEED,
            workers=workers,
            chunk_size=10,
            cache_dir=tmp_path / "cache",
            runs_dir=tmp_path / "runs",
        )
        prepared = execution.prepare_run(request)
        quiet = {"emit": lambda text: None, "info": lambda message: None}
        execution.execute_prepared(prepared, None, **quiet)
        committed = {"cells": 0}
        at_report = []

        def emit(text: str) -> None:
            if text.startswith("\n=== "):
                at_report.append(committed["cells"])

        def on_commit(engine) -> None:
            committed["cells"] = engine.cached_cells

        outcome = execution.execute_prepared(
            prepared, None, emit=emit, info=quiet["info"], on_cell_commit=on_commit
        )
        assert outcome.cached_cells == 5 * len(MODEL_PROFILES)
        models = len(MODEL_PROFILES)
        assert at_report == [models * (i + 1) for i in range(5)]

    def test_unplanned_call_ends_the_plan(self):
        """A run_task call the plan does not expect ends the pass first;
        every call still returns its task's grid."""
        tasks = ("syntax_error", "miss_token", "query_equiv")
        config = EngineConfig(seed=SEED, chunk_size=10, workers=2)
        with ExperimentEngine(config, MODEL_PROFILES[:2]) as engine:
            reference = dict(engine.run_tasks(tasks, (GRID_WORKLOAD,)))
        with ExperimentEngine(config, MODEL_PROFILES[:2]) as engine:
            engine.plan_tasks(tasks, (GRID_WORKLOAD,))
            first = engine.run_task("syntax_error", (GRID_WORKLOAD,))
            skipped = engine.run_task("query_equiv", (GRID_WORKLOAD,))
            assert engine._plan is None
            late = engine.run_task("miss_token", (GRID_WORKLOAD,))
        for task, grid in zip(tasks, (first, late, skipped)):
            assert [_metrics(c) for c in grid.values()] == [
                _metrics(c) for c in reference[task].values()
            ], task


class TestCacheInterchangeability:
    """Chunked and unchunked runs share one cache, either direction."""

    def test_streamed_run_warms_materialised_run(self, tmp_path):
        workload_name = "synthetic:default:n=12"
        cache = tmp_path / "cache"
        with ExperimentEngine(
            EngineConfig(seed=SEED, chunk_size=23, cache_dir=cache), (_gpt4(),)
        ) as engine:
            streamed = engine.run_cell("gpt4", "syntax_error", workload_name)
        with ExperimentEngine(
            EngineConfig(seed=SEED, cache_dir=cache), (_gpt4(),)
        ) as engine:
            warmed = engine.run_cell("gpt4", "syntax_error", workload_name)
            assert engine.cached_cells == 1 and engine.computed_cells == 0
        # The unchunked serve read the chunked run's answer segments —
        # identical answers proves the segments are exact.
        fresh = ExperimentEngine(EngineConfig(seed=SEED), (_gpt4(),))
        reference = fresh.run_cell("gpt4", "syntax_error", workload_name)
        assert warmed.answers == reference.answers
        assert _metrics(streamed) == _metrics(reference)

    def test_materialised_run_warms_streamed_run(self, tmp_path):
        workload_name = "synthetic:default:n=12"
        cache = tmp_path / "cache"
        with ExperimentEngine(
            EngineConfig(seed=SEED, cache_dir=cache), (_gpt4(),)
        ) as engine:
            reference = engine.run_cell("gpt4", "miss_token", workload_name)
        with ExperimentEngine(
            EngineConfig(seed=SEED, chunk_size=23, cache_dir=cache), (_gpt4(),)
        ) as engine:
            streamed = engine.run_cell("gpt4", "miss_token", workload_name)
            assert engine.cached_cells == 1 and engine.computed_cells == 0
        assert _metrics(streamed) == _metrics(reference)
        assert streamed.instance_count == len(reference.dataset.instances)
