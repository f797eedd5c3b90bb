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
* :class:`BuildTask` — build one (task, workload) dataset with the
  sequential task generators.  A chunked build stores each segment as
  it is written (in the cache, else the engine's spill directory) and
  announces it to the parent, which cuts the cells' chunks from the
  announced segments while the build goes on; an unchunked build ships
  the whole dataset back (and persists it when a cache is set).  The
  first build of a workload also stores the workload's queries, which
  its other builds read instead of generating them again.  The parent
  runs the same :meth:`BuildTask.chunks` inline at ``workers=1``.

Everything crossing the boundary is plain picklable dataclasses, and
every answer depends only on ``(model, task, instance_id)`` — which is
why any materialization path yields byte-identical results.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional

from repro.engine.cache import CacheSegmentError, ResultCache
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
from repro.tasks.streaming import iter_instance_chunks
from repro.workloads import load_workload
from repro.workloads.base import Workload
from repro.workloads.streaming import WorkloadStream, stream_workload

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


def _dataset(
    source,
    task: str,
    dataset_key: Optional[str],
    workload_store: Optional[ResultCache] = None,
) -> TaskDataset:
    """A dataset in this process: memo -> disk cache -> rebuild.

    ``source`` (a :class:`ShardSpec` or :class:`BuildTask`) names the
    workload, seed, instance cap and cache.  A rebuilt dataset is
    persisted when a cache is given, so sibling workers load instead of
    rebuilding; the workload it was built from is read from, or stored
    in, ``workload_store`` (default: the cache).
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
            source.workload,
            source.seed,
            workload_store or cache,
            source.workload_cache_key,
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

    def run(self, announce) -> tuple[list[ModelAnswer], float]:
        _, answers, seconds = evaluate_shard(self.spec)
        return answers, seconds


def read_or_regenerate(
    store, key: str, segments: Iterator[list], regenerate: Callable[[], Iterator]
) -> Iterator[Iterable]:
    """A committed entry's ``segments``, in order.

    A segment that turns out unreadable mid-read drops the entry; the
    rest comes as one last iterable from ``regenerate()``, a fresh
    generator pass, skipping the items already served.
    """
    served = 0
    try:
        for segment in segments:
            yield segment
            served += len(segment)
        return
    except CacheSegmentError:
        store.discard_segments(key)
    yield islice(regenerate(), served, None)


@dataclass(frozen=True)
class BuildTask:
    """One (task, workload) dataset build, in a queue worker or inline.

    ``cell`` numbers the build in the work queue (builds and cells share
    one numbering) and ``chunk`` is always 0.  ``store_root`` is where
    the workload's queries, and a chunked build's dataset segments, are
    stored: the result cache, else the engine's spill directory.
    ``cache_root`` is the result cache (None without one), where an
    unchunked build persists its dataset.  ``fault`` works as on
    :class:`ChunkTask`, except that a "crash" kills the worker after the
    build has run, so its re-dispatch rewrites (and re-announces) every
    segment.
    """

    cell: int
    task: str
    workload: str
    seed: int
    max_instances: Optional[int]
    dataset_key: str
    workload_cache_key: str
    store_root: str
    cache_root: Optional[str] = None
    #: None builds the whole dataset and ships it back.
    chunk_size: Optional[int] = None
    chunk: int = 0
    fault: Optional[str] = None

    @property
    def stores_workload(self) -> bool:
        """Whether this build stores its workload when none is stored.

        A capped chunked build reads only a prefix of the queries, and a
        prefix must not pass for the whole workload.
        """
        return self.chunk_size is None or self.max_instances is None

    def run(self, announce: Callable[[int, int], None]) -> Optional[TaskDataset]:
        """Build the dataset; ``announce(index, count)`` each stored segment."""
        store = ResultCache(Path(self.store_root))
        if self.chunk_size is None:
            return _dataset(self, self.task, self.dataset_key, workload_store=store)
        for index, chunk in enumerate(self.chunks(store)):
            announce(index, len(chunk))
        return None

    def chunks(self, store: ResultCache, persist: bool = True) -> Iterator[list]:
        """One generator pass over the dataset, ``chunk_size`` at a time.

        With ``persist`` each chunk is stored in ``store`` as a dataset
        segment before it is yielded, and the manifest is written last.
        """
        counts: list[int] = []
        for chunk in iter_instance_chunks(
            self.task,
            self._queries(store),
            seed=self.seed,
            chunk_size=self.chunk_size,
            max_instances=self.max_instances,
        ):
            if persist:
                store.put_dataset_segment(self.dataset_key, len(counts), chunk)
                counts.append(len(chunk))
            yield chunk
        if persist:
            store.commit_dataset_segments(
                self.dataset_key,
                self.chunk_size,
                counts,
                meta={"task": self.task, "workload": self.workload},
            )

    def _queries(self, store: ResultCache) -> WorkloadStream:
        """The workload's queries for this build.

        A committed workload entry in ``store`` is read back.  Otherwise
        the generator runs, and a build that :attr:`stores_workload`
        stores the queries as segments as they pass, for the workload's
        next build; storing costs about 2% of generating, so even a lone
        build stores them.
        """
        key = self.workload_cache_key
        manifest = store.get_workload_manifest(key)
        if manifest is not None:

            def regenerate() -> Iterator:
                fresh = stream_workload(self.workload, self.seed)
                if self.stores_workload:
                    return self._storing_queries(fresh, store)
                return fresh.factory()

            return WorkloadStream(
                name=manifest["meta"]["workload"],
                schemas=manifest["schemas"],
                total=manifest["total"],
                factory=lambda: chain.from_iterable(
                    read_or_regenerate(
                        store, key, store.iter_workload_segments(key, manifest), regenerate
                    )
                ),
            )
        generated = stream_workload(self.workload, self.seed)
        if not self.stores_workload:
            return generated
        return dataclasses.replace(
            generated, factory=lambda: self._storing_queries(generated, store)
        )

    def _storing_queries(self, stream: WorkloadStream, store: ResultCache) -> Iterator:
        """``stream``'s queries, stored in ``store`` as they pass."""
        queries = stream.factory()
        counts: list[int] = []
        while segment := list(islice(queries, self.chunk_size)):
            store.put_workload_segment(self.workload_cache_key, len(counts), segment)
            counts.append(len(segment))
            yield from segment
        store.commit_workload_segments(
            self.workload_cache_key, self.chunk_size, counts, stream.name, stream.schemas
        )


def stream_worker_main(task_queue, result_queue) -> None:
    """Queue-worker loop: pull work items until the None pill.

    Each result message is ``(kind, pid, cell, chunk, payload)`` with
    kind ``ok`` (payload: what the item's ``run()`` returned) or
    ``error`` (payload: a backend error itself, so the parent can apply
    the cell-error policy to it, else the formatted exception).  A
    build also sends ``segment`` messages (payload: ``(index, count)``)
    as it stores its dataset.  A crashed worker sends nothing more —
    the parent notices the dead process and re-dispatches its
    assignments.
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

        def announce(index: int, count: int) -> None:
            result_queue.put(("segment", pid, item.cell, item.chunk, (index, count)))

        try:
            if item.fault == "crash" and isinstance(item, ChunkTask):
                os._exit(43)
            if item.fault == "poison":
                raise RuntimeError("injected poison fault")
            result = item.run(announce)
            if item.fault == "crash":
                os._exit(43)
            result_queue.put(("ok", pid, item.cell, item.chunk, result))
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
