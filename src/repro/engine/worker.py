"""Worker-side functions for the engine's work queue.

Two kinds of work cross the queue:

* :class:`ChunkTask` — answer one chunk of a cell through
  :func:`evaluate_shard`.  The chunk travels as a :class:`ShardSpec`
  that either carries its instances inline or names a dataset slice by
  the dataset's cache key plus a ``[start, stop)`` range; the worker
  then materializes the dataset once per process (memo first, then the
  dataset cache on disk, then a deterministic rebuild) and slices it
  locally.  The slice's requests are batched through the async
  dispatcher to the spec's backend (backends are memoised per process,
  so replay stores and HTTP pools survive across chunks);
* :class:`DatasetTask` — build all of one workload's datasets in a
  worker, so the parent overlaps dataset construction across
  workloads.  ``build_dataset`` is deterministic in its arguments, so
  the copies shipped back are identical to what the parent would
  build.  With a cache directory the worker also persists the datasets
  (and the workload it loaded) so sibling workers materialize from
  disk instead of rebuilding.

Everything crossing the boundary is plain picklable dataclasses, and
every answer depends only on ``(model, task, instance_id)`` — which is
why any materialization path yields byte-identical results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.engine.cache import ResultCache
from repro.llm.backends import (
    DEFAULT_MAX_CONCURRENCY,
    SIMULATED_SPEC,
    AsyncDispatcher,
    BackendSpec,
    ModelBackend,
    create_backend,
)
from repro.llm.backends.dispatch import BreakerState, BucketState, CircuitBreaker
from repro.llm.profiles import ModelProfile
from repro.prompts.templates import PromptTemplate
from repro.sql.analysis_cache import ensure_capacity
from repro.tasks.base import ModelAnswer, TaskDataset, TaskInstance
from repro.tasks.registry import answers_from_responses, build_dataset, build_request
from repro.workloads import load_workload
from repro.workloads.base import Workload

_WORKLOADS: dict[tuple[str, int], Workload] = {}
_DATASETS: dict[tuple[str, str, int, Optional[int]], TaskDataset] = {}
_BACKENDS: dict[tuple[BackendSpec, str], tuple[ModelProfile, ModelBackend]] = {}
#: Token-bucket fill levels, shared across this process's chunk batches
#: so ``rps`` is a sustained per-process rate (aggregate rate across a
#: pool is ~``workers x rps``; size --rps accordingly).
_BUCKET_STATES: dict[tuple[BackendSpec, float], BucketState] = {}
#: Circuit-breaker health per backend, shared across this process's
#: chunk batches: a backend that tripped during one chunk stays tripped
#: for the next instead of re-earning a full retry ladder.
_BREAKER_STATES: dict[BackendSpec, BreakerState] = {}


@dataclass(frozen=True)
class ShardSpec:
    """One contiguous slice of one cell, addressable anywhere.

    ``instances`` carries the slice inline; when it is None the worker
    materializes the dataset from ``dataset_key`` under ``cache_root``
    (or rebuilds it deterministically) and slices ``[start, stop)``.
    """

    profile: ModelProfile
    task: str
    workload: str
    index: int  # chunk index, for merge ordering
    start: int
    stop: int
    seed: int
    max_instances: Optional[int]
    dataset_key: Optional[str] = None
    workload_cache_key: Optional[str] = None
    cache_root: Optional[str] = None
    instances: Optional[tuple[TaskInstance, ...]] = None
    prompt: Optional[PromptTemplate] = None
    backend: BackendSpec = SIMULATED_SPEC
    max_concurrency: int = DEFAULT_MAX_CONCURRENCY
    rps: Optional[float] = None
    #: Per-request wall-clock timeout (dispatcher ``asyncio.wait_for``).
    request_timeout: Optional[float] = None
    #: Wall-clock budget for this dispatch batch (the cell deadline,
    #: granted per chunk — worker clocks don't compare across processes).
    deadline: Optional[float] = None
    #: Circuit-breaker trip threshold; 0 disables the breaker.
    breaker_threshold: int = 0


def _backend(spec: BackendSpec, profile: ModelProfile) -> ModelBackend:
    """Per-process backend memo (replay stores, HTTP pools survive chunks)."""
    memo_key = (spec, profile.name)
    cached = _BACKENDS.get(memo_key)
    if cached is None or cached[0] != profile:
        _BACKENDS[memo_key] = (profile, create_backend(spec, profile))
    return _BACKENDS[memo_key][1]


def _workload(name: str, seed: int, cache: Optional[ResultCache], key: Optional[str]) -> Workload:
    memo_key = (name, seed)
    workload = _WORKLOADS.get(memo_key)
    if workload is None:
        if cache is not None and key is not None:
            workload = cache.get_workload(key)
        if workload is None:
            workload = load_workload(name, seed)
            if cache is not None and key is not None:
                cache.put_workload(key, workload)
        # Size this worker's analysis memo to the workload before the
        # dataset builders start re-probing its texts: generation sizes
        # the parent process, but a workload materialized from the disk
        # cache skips generation, and a default-capacity LRU thrashes
        # on million-instance workloads.
        ensure_capacity(len(workload.queries))
        _WORKLOADS[memo_key] = workload
    return workload


def _dataset(source, task: str, dataset_key: Optional[str]) -> TaskDataset:
    """A dataset in this process: memo -> disk cache -> rebuild.

    ``source`` (a :class:`ShardSpec` or :class:`DatasetTask`) names the
    workload, seed, instance cap and cache.  A rebuilt dataset (and the
    workload it was built from) is persisted when a cache is given, so
    sibling workers load instead of rebuilding.
    """
    memo_key = (task, source.workload, source.seed, source.max_instances)
    dataset = _DATASETS.get(memo_key)
    if dataset is not None:
        return dataset
    cache = ResultCache(Path(source.cache_root)) if source.cache_root else None
    if cache is not None and dataset_key is not None:
        dataset = cache.get_dataset(dataset_key)
    if dataset is None:
        workload = _workload(
            source.workload, source.seed, cache, source.workload_cache_key
        )
        dataset = build_dataset(
            task, workload, seed=source.seed, max_instances=source.max_instances
        )
        if cache is not None and dataset_key is not None:
            cache.put_dataset(dataset_key, dataset)
    _DATASETS[memo_key] = dataset
    return dataset


def evaluate_shard(spec: ShardSpec) -> tuple[int, list[ModelAnswer], float]:
    """Evaluate one chunk; returns ``(chunk_index, answers, seconds)``.

    ``seconds`` is the chunk's wall time inside the worker — the parent
    aggregates these into real per-cell compute time for provenance
    (parallel cells overlap, so the parent's own clock cannot attribute
    time to cells).  Answers come back in instance order within the
    chunk, so merging by chunk index reproduces the serial evaluation
    exactly (each answer depends only on ``(model, task, instance_id)``).
    """
    started = time.perf_counter()
    if spec.instances is not None:
        instances = list(spec.instances)
    else:
        dataset = _dataset(spec, spec.task, spec.dataset_key)
        instances = dataset.instances[spec.start : spec.stop]
    backend = _backend(spec.backend, spec.profile)
    bucket_key = (spec.backend, spec.rps or 0.0)
    breaker = None
    if spec.breaker_threshold > 0:
        breaker = CircuitBreaker(
            threshold=spec.breaker_threshold,
            state=_BREAKER_STATES.setdefault(spec.backend, BreakerState()),
            backend_name=spec.backend.name,
        )
    dispatcher = AsyncDispatcher(
        backend,
        max_concurrency=spec.max_concurrency,
        rps=spec.rps,
        bucket_state=(
            _BUCKET_STATES.get(bucket_key) if spec.rps is not None else None
        ),
        request_timeout=spec.request_timeout,
        breaker=breaker,
    )
    responses = dispatcher.run_sync(
        [
            build_request(spec.task, spec.profile.name, instance, spec.prompt)
            for instance in instances
        ],
        deadline_seconds=spec.deadline,
    )
    if spec.rps is not None and dispatcher.bucket_state is not None:
        _BUCKET_STATES[bucket_key] = dispatcher.bucket_state
    answers = answers_from_responses(
        spec.task, instances, responses, spec.profile.name
    )
    return spec.index, answers, time.perf_counter() - started


@dataclass(frozen=True)
class ChunkTask:
    """One chunk of a cell, travelling through the work queue.

    ``spec.index`` is the chunk's position in the cell; ``fault`` is
    the test-only injection channel ("crash" hard-kills the worker
    mid-chunk, "poison" raises inside the evaluation) — it rides in the
    descriptor so a re-dispatched chunk is clean by construction unless
    the test asked for a persistent fault.
    """

    cell: int
    chunk: int
    spec: ShardSpec
    fault: Optional[str] = None

    def run(self) -> tuple[list[ModelAnswer], float]:
        _, answers, seconds = evaluate_shard(self.spec)
        return answers, seconds


@dataclass(frozen=True)
class DatasetTask:
    """Build every listed dataset of one workload (``chunk`` numbers it).

    ``tasks`` is ``((task, dataset_key), ...)``.  Grouping by
    workload is what makes the parallel cold path scale: the workload is
    loaded once, and the process-wide analysis cache is shared across
    the workload's tasks (which reuse the same query texts), instead of
    every worker independently re-loading and re-parsing the same
    workload for one task each.  With a cache the built datasets (and
    the workload) are persisted, so sibling workers and later chunks
    materialize them from disk instead of rebuilding.
    """

    chunk: int
    workload: str
    seed: int
    tasks: tuple[tuple[str, str], ...]
    max_instances: Optional[int]
    cache_root: Optional[str]
    workload_cache_key: str
    cell: int = -1
    fault: Optional[str] = None

    def run(self) -> list[TaskDataset]:
        return [_dataset(self, task, dataset_key) for task, dataset_key in self.tasks]


def stream_worker_main(task_queue, result_queue) -> None:
    """Queue-worker loop: pull work items until the None pill.

    Each result message is ``(kind, pid, cell, chunk, payload)`` with
    kind ``ok`` (payload: what the item's ``run()`` returned) or
    ``error`` (payload: a backend error itself, so the parent can apply
    the cell-error policy to it, else the formatted exception).  A
    crashed worker sends nothing — the parent notices the dead process
    and re-dispatches its assignments.
    """
    import os
    import signal

    from repro.llm.backends import BackendError

    # Ctrl-C delivers SIGINT to the whole foreground process group; the
    # parent turns it into a graceful drain (journal flush + resume
    # hint), so workers must not race it with their own tracebacks —
    # they ignore SIGINT and exit when the parent tears the pool down.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    pid = os.getpid()
    while True:
        item = task_queue.get()
        if item is None:
            break
        try:
            if item.fault == "crash":
                os._exit(43)
            if item.fault == "poison":
                raise RuntimeError("injected poison fault")
            result_queue.put(("ok", pid, item.cell, item.chunk, item.run()))
        except Exception as error:  # noqa: BLE001 - reported to the parent
            result_queue.put(
                (
                    "error",
                    pid,
                    item.cell,
                    item.chunk,
                    error
                    if isinstance(error, BackendError)
                    else f"{type(error).__name__}: {error}",
                )
            )


def reset_worker_caches() -> None:
    """Drop the process-global caches (test isolation hook)."""
    _WORKLOADS.clear()
    _DATASETS.clear()
    _BACKENDS.clear()
    _BUCKET_STATES.clear()
    _BREAKER_STATES.clear()
