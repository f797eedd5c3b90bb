"""Chunks that name a dataset slice, and per-chunk timing.

A chunk names its dataset by cache key + range; workers materialize
from the process memo, the on-disk dataset cache, or a deterministic
rebuild.  Every path must yield answers byte-identical to inline
dispatch, and parallel cells must report real compute seconds.
"""

from pathlib import Path

from repro.engine.cache import ResultCache, dataset_key, workload_key
from repro.engine.worker import (
    ShardSpec,
    evaluate_shard,
    reset_worker_caches,
)
from repro.evalfw.runner import ExperimentRunner
from repro.llm.profiles import GPT4

SEED = 3
CAP = 12


def _spec(dataset, cache_root=None, with_key=True, instances=None, stop=CAP):
    return ShardSpec(
        profile=GPT4,
        task="syntax_error",
        workload="sdss",
        index=0,
        start=0,
        stop=stop,
        seed=SEED,
        max_instances=CAP,
        dataset_key=(
            dataset_key("syntax_error", "sdss", SEED, CAP) if with_key else None
        ),
        workload_cache_key=(
            workload_key("sdss", SEED) if with_key else None
        ),
        cache_root=str(cache_root) if cache_root else None,
        instances=instances,
    )


def _reference_answers(runner):
    cell = runner.run_cell("gpt4", "syntax_error", "sdss")
    return cell.dataset, cell.answers


class TestShardMaterialization:
    def test_inline_instances_still_work(self):
        reset_worker_caches()
        runner = ExperimentRunner(seed=SEED, max_instances=CAP)
        dataset, reference = _reference_answers(runner)
        index, answers, seconds = evaluate_shard(
            _spec(dataset, with_key=False, instances=tuple(dataset.instances))
        )
        assert index == 0
        assert answers == reference
        assert seconds > 0

    def test_materialize_from_disk_cache(self, tmp_path: Path):
        reset_worker_caches()
        runner = ExperimentRunner(seed=SEED, max_instances=CAP)
        dataset, reference = _reference_answers(runner)
        cache = ResultCache(tmp_path)
        cache.put_dataset(dataset_key("syntax_error", "sdss", SEED, CAP), dataset)
        index, answers, seconds = evaluate_shard(_spec(dataset, tmp_path))
        assert answers == reference
        assert seconds > 0

    def test_materialize_by_deterministic_rebuild(self, tmp_path: Path):
        """Missing cache entry: the worker rebuilds and still matches."""
        reset_worker_caches()
        runner = ExperimentRunner(seed=SEED, max_instances=CAP)
        _, reference = _reference_answers(runner)
        index, answers, _ = evaluate_shard(
            _spec(None, tmp_path)  # empty cache dir: nothing to load
        )
        assert answers == reference
        # The rebuild persisted the dataset and workload for siblings.
        cache = ResultCache(tmp_path)
        key = dataset_key("syntax_error", "sdss", SEED, CAP)
        assert cache.get_dataset(key) is not None
        assert cache.get_workload(workload_key("sdss", SEED)) is not None

    def test_shard_range_slices_the_dataset(self, tmp_path: Path):
        reset_worker_caches()
        runner = ExperimentRunner(seed=SEED, max_instances=CAP)
        dataset, reference = _reference_answers(runner)
        cache = ResultCache(tmp_path)
        cache.put_dataset(dataset_key("syntax_error", "sdss", SEED, CAP), dataset)
        _, answers, _ = evaluate_shard(_spec(dataset, tmp_path, stop=5))
        assert answers == reference[:5]

    def test_dataset_memoized_per_process(self, tmp_path: Path):
        reset_worker_caches()
        runner = ExperimentRunner(seed=SEED, max_instances=CAP)
        dataset, _ = _reference_answers(runner)
        key = dataset_key("syntax_error", "sdss", SEED, CAP)
        cache = ResultCache(tmp_path)
        cache.put_dataset(key, dataset)
        evaluate_shard(_spec(dataset, tmp_path))
        # Wipe the disk entry: the memo must serve the second shard.
        for path in cache.dataset_entries():
            path.unlink()
        _, answers, _ = evaluate_shard(_spec(dataset, tmp_path, stop=3))
        assert len(answers) == 3


class TestParallelTiming:
    def test_parallel_cells_report_real_seconds(self, tmp_path: Path):
        parallel = ExperimentRunner(
            seed=SEED,
            max_instances=CAP,
            workers=2,
            chunk_size=5,
            cache_dir=tmp_path,
        )
        serial = ExperimentRunner(seed=SEED, max_instances=CAP)
        try:
            theirs = parallel.run_cell("gpt4", "syntax_error", "sdss")
            ours = serial.run_cell("gpt4", "syntax_error", "sdss")
        finally:
            parallel.close()
        assert (theirs.binary, theirs.typed) == (ours.binary, ours.typed)
        assert theirs.chunk_count == 3  # 12 instances in chunks of 5
        computed = [
            entry for entry in parallel.engine.cell_log if not entry.cached
        ]
        assert computed
        for entry in computed:
            assert entry.seconds is not None and entry.seconds > 0

    def test_run_record_carries_parallel_seconds(self, tmp_path: Path):
        runner = ExperimentRunner(
            seed=SEED,
            max_instances=CAP,
            workers=2,
            chunk_size=5,
            cache_dir=tmp_path,
        )
        try:
            runner.run_cell("gpt4", "syntax_error", "sdss")
            record = runner.run_record()
        finally:
            runner.close()
        cells = [cell for cell in record.cells if not cell.cached]
        assert cells and all(cell.seconds is not None for cell in cells)
