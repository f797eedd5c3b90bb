"""Which public functions belong to which layer, and the per-layer metrics.

:func:`install` patches the program's layer entry points with the
timing wrappers of :mod:`spans`.  :func:`layer_metrics` turns the merged
per-process summaries into the ``per_layer`` metrics of BENCHMARK.json.
The table in ``perfbench/README.md`` says which end-to-end metric each
of them should move, and on which workload.
"""

from __future__ import annotations

import functools
import importlib
import multiprocessing.queues

from spans import WAIT, Tracer, covered_seconds, patch_function, patch_method

#: Modules imported before patching, so that every module which copies a
#: patched name with ``from x import f`` already holds it.
MODULES = (
    "repro.workloads",
    "repro.workloads.streaming",
    "repro.tasks.registry",
    "repro.tasks.streaming",
    "repro.engine.core",
    "repro.engine.worker",
    "repro.engine.streaming",
    "repro.engine.cache",
    "repro.evalfw.metrics",
    "repro.evalfw.runner",
    "repro.evalfw.accumulate",
    "repro.experiments.registry",
    "repro.reporting.run_record",
    "repro.reporting.bundle",
    "repro.lifecycle.journal",
    "repro.llm.backends.dispatch",
    "repro.execution",
)

CACHE_READS = (
    "get",
    "get_dataset",
    "get_workload",
    "get_dataset_manifest",
    "get_cell_manifest",
)
CACHE_WRITES = (
    "put",
    "put_dataset",
    "put_workload",
    "put_dataset_segment",
    "commit_dataset_segments",
    "put_cell_segment",
    "commit_cell_segments",
    "discard_segments",
)
METRIC_FUNCTIONS = (
    "binary_metrics",
    "weighted_metrics",
    "location_metrics",
    "binary_metrics_from_counts",
    "weighted_metrics_from_counts",
    "location_metrics_from_counts",
)


def _tally(key: str, size=lambda result: 1):
    """A counter callback adding ``size(result)`` to ``counts[key]``."""

    def count(counts, result, args) -> None:
        counts[key] += size(result)

    return count


def _count_dispatch(counts, result, args) -> None:
    counts["dispatch.requests"] += len(args[1])


def _count_answers(counts, result, args) -> None:
    counts["extract.answers"] += len(result)
    counts["extract.unparsed"] += sum(
        1
        for answer in result
        if answer.predicted is None
        and answer.predicted_type is None
        and answer.predicted_position is None
        and not answer.explanation
    )


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer metrics are built from."""
    modules = {name: importlib.import_module(name) for name in MODULES}

    def fn(module, name, layer, count=None, lazy=False):
        patch_function(tracer, module, name, layer, count, lazy)

    fn("repro.workloads", "load_workload", "workloads",
       _tally("workloads.queries", lambda workload: len(workload.queries)))
    patch_method(
        tracer,
        modules["repro.workloads.streaming"].WorkloadStream,
        "__iter__",
        "workloads",
        _tally("workloads.queries"),
        lazy=True,
    )
    fn("repro.tasks.registry", "build_dataset", "tasks",
       _tally("tasks.instances", lambda dataset: len(dataset.instances)))
    fn("repro.tasks.streaming", "iter_instance_chunks", "tasks",
       _tally("tasks.instances", len), lazy=True)
    fn("repro.tasks.registry", "build_request", "prompts",
       _tally("prompts.requests"))
    fn("repro.tasks.registry", "answers_from_responses", "extract",
       _count_answers)

    dispatcher = modules["repro.llm.backends.dispatch"].AsyncDispatcher
    original_run_sync = dispatcher.run_sync

    @functools.wraps(original_run_sync)
    def run_sync(self, *args, **kwargs):
        before = (self.stats.retries, self.stats.failures)
        try:
            return original_run_sync(self, *args, **kwargs)
        finally:
            with tracer.lock:
                tracer.counts["dispatch.retries"] += self.stats.retries - before[0]
                tracer.counts["dispatch.failures"] += self.stats.failures - before[1]

    dispatcher.run_sync = run_sync
    patch_method(tracer, dispatcher, "run_sync", "dispatch", _count_dispatch)

    cache_cls = modules["repro.engine.cache"].ResultCache

    def lookup(counts, result, args) -> None:
        # Only the outermost lookup counts: ``get`` falls back to the
        # manifest lookup internally.
        if tracer.outer_layer() not in ("cache.read", "cache.write"):
            counts["cache.misses" if result is None else "cache.hits"] += 1

    for name in CACHE_READS:
        patch_method(tracer, cache_cls, name, "cache.read", lookup)
    for name in ("iter_dataset_segments", "iter_cell_segments"):
        patch_method(tracer, cache_cls, name, "cache.read", lazy=True)
    for name in CACHE_WRITES:
        patch_method(tracer, cache_cls, name, "cache.write")

    engine_cls = modules["repro.engine.core"].ExperimentEngine
    for name in ("run_task", "run_cell"):
        patch_method(tracer, engine_cls, name, "engine")
    # The shard/chunk batch a worker evaluates; in serial mode the engine
    # evaluates the same batches in-process.
    patch_method(tracer, engine_cls, "_evaluate_serial", "engine.worker")
    fn("repro.engine.worker", "evaluate_shard", "engine.worker")
    # Queue workers block here for work, and the parent for results.
    patch_method(
        tracer,
        multiprocessing.queues.Queue,
        "get",
        WAIT,
    )

    patch_method(
        tracer,
        modules["repro.lifecycle.journal"].RunJournal,
        "record",
        "journal",
        _tally("journal.records"),
    )

    for name in METRIC_FUNCTIONS:
        fn("repro.evalfw.metrics", name, "evalfw")
    fn("repro.experiments.registry", "run_experiment", "evalfw")
    fn("repro.execution", "workload_grid_text", "evalfw")
    fn("repro.reporting.run_record", "record_from_engine", "reporting")
    fn("repro.reporting.run_record", "cell_record_from_result", "reporting")
    patch_method(
        tracer,
        modules["repro.reporting.run_record"].RunRecordStore,
        "save",
        "reporting",
    )
    fn("repro.reporting.bundle", "write_report_bundle", "reporting")


#: Self-time metrics and the layer each one sums.
SELF_TIME = (
    ("workloads.self_s", "workloads"),
    ("tasks.build_self_s", "tasks"),
    ("prompts.render_self_s", "prompts"),
    ("dispatch.self_s", "dispatch"),
    ("extract.self_s", "extract"),
    ("cache.write_s", "cache.write"),
    ("cache.read_s", "cache.read"),
    ("journal.self_s", "journal"),
    ("evalfw.metrics_self_s", "evalfw"),
    ("reporting.self_s", "reporting"),
)

COUNTS = (
    "workloads.queries",
    "tasks.instances",
    "prompts.requests",
    "dispatch.requests",
    "dispatch.retries",
    "dispatch.failures",
    "extract.answers",
    "cache.hits",
    "cache.misses",
    "journal.records",
)


def layer_metrics(summaries: list[dict], windows, units: int) -> dict:
    """Per-layer metrics from merged summaries, per measured unit.

    ``windows`` are the traced measurement intervals (perf_counter
    seconds, shared by all processes on Linux); ``units`` is the number
    of traced cycles or jobs that the totals are divided by.
    """
    self_s: dict[str, float] = {}
    busy: dict[str, float] = {}
    counts: dict[str, int] = {}
    sql: dict[str, int] = {}
    intervals = []
    for summary in summaries:
        for source, target in (
            (summary["self_s"], self_s),
            (summary["busy_s"], busy),
            (summary["counts"], counts),
            (summary["sql"], sql),
        ):
            for key, value in source.items():
                target[key] = target.get(key, 0) + value
        intervals.extend(summary["intervals"])

    metrics: dict[str, tuple[float, str]] = {}
    for name, layer in SELF_TIME:
        metrics[name] = (self_s.get(layer, 0.0) / units, "s")
    metrics["engine.self_s"] = (
        (self_s.get("engine", 0.0) + self_s.get("engine.worker", 0.0)) / units,
        "s",
    )
    metrics["engine.worker_busy_s"] = (busy.get("engine.worker", 0.0) / units, "s")
    for name in COUNTS:
        metrics[name] = (counts.get(name, 0) / units, "count")
    answers = counts.get("extract.answers", 0)
    metrics["extract.unparsed_share"] = (
        counts.get("extract.unparsed", 0) / answers if answers else 0.0,
        "ratio",
    )
    metrics["sql.raw_parses"] = (sql.get("raw_parses", 0) / units, "count")
    lookups = sql.get("parse_hits", 0) + sql.get("parse_misses", 0)
    metrics["sql.parse_hit_ratio"] = (
        sql.get("parse_hits", 0) / lookups if lookups else 0.0,
        "ratio",
    )
    wall = sum(end - start for start, end in windows)
    metrics["unattributed_share"] = (
        1.0 - covered_seconds(intervals, windows) / wall,
        "ratio",
    )
    return metrics
