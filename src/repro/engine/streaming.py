"""The engine's scheduler: every cell is evaluated chunk by chunk.

A grid request is a list of cells in request order.  Each cell is
served from the cell cache or computed; a computed cell is cut into
chunks, each chunk is answered by
:func:`repro.engine.worker.evaluate_shard` (or, at ``workers=1``, by
its in-process twin :meth:`ExperimentEngine._evaluate_serial`), and the
answers are merged back in chunk order.  Cells commit one at a time in
request order, whatever order their chunks finish in.

Whether the run is chunked (``EngineConfig.chunk_size`` set, which
:func:`repro.execution.resolve_chunk_size` does for large synthetic
workloads) decides two things:

* **what the cell keeps** — without a chunk size the cell's dataset is
  built whole (:meth:`ExperimentEngine.dataset`) and the cell keeps
  every answer, a :class:`~repro.evalfw.runner.CellResult`, which the
  per-instance artifacts need.  Chunked, instances stream from the task
  generators (or the cached dataset segments) ``chunk_size`` at a time
  and the cell keeps counts only, a
  :class:`~repro.evalfw.accumulate.StreamedCellResult`, so memory is
  bounded by the chunk size;
* **what a chunk carries** — chunked, its instances inline.  Without a
  chunk size, chunks are ``MATERIALISED_CHUNK`` instances, and with a
  cache and several workers they name a dataset slice the worker loads
  itself; the datasets were built in the workers beforehand, one work
  item per workload.

Either way each workload and each dataset is generated once per
engine.  Chunked, a dataset's chunks are stored as segments — in the
cache, else in a private spill directory when another cell of the
request will read them — and so are the queries of the workload it was
built from (uncapped runs only), which the workload's other tasks read
instead of running the generator again.

Scheduling: with ``workers > 1`` work items go to a pool of queue
workers (:func:`repro.engine.worker.stream_worker_main`).  Dispatch is
pull-based with bounded in-flight work: a worker holds at most
``PREFETCH`` pending items, and the producer only advances when a slot
frees up — that bound IS the backpressure that keeps parent memory
flat.  The producer runs across cell boundaries, so the next cells'
chunks are in flight while the current cell finishes.

Fault model: a worker that dies mid-chunk is detected via its exit
code; its assigned chunks are re-dispatched to a fresh worker up to
``MAX_ATTEMPTS`` times, after which the chunk's cell fails with
:class:`StreamWorkerCrash`.  A worker that *reports* an exception fails
the chunk's cell with :class:`StreamChunkError` (or with the backend
error itself).  A failed cell's cache segments are discarded — no
partial writes — and the engine's ``on_cell_error`` policy decides
whether the grid goes on.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import queue as queue_module
import time
import weakref
from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional

from repro.engine.cache import CacheSegmentError
from repro.engine.worker import ChunkTask, ShardSpec, stream_worker_main
from repro.llm.backends import DeadlineExceededError
from repro.llm.profiles import ModelProfile
from repro.prompts.templates import PromptTemplate
from repro.tasks.base import TaskDataset
from repro.tasks.streaming import iter_instance_chunks
from repro.workloads.streaming import WorkloadStream, stream_workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.core import ExperimentEngine
    from repro.evalfw.accumulate import CellAccumulator

#: Pending work items a queue worker may hold (1 running + 1 prefetched).
PREFETCH = 2

#: Total dispatch attempts per chunk before its cell fails.
MAX_ATTEMPTS = 3

#: Seconds between liveness checks while waiting for results.
POLL_SECONDS = 0.1

#: Instances per chunk when the run is not chunked: small enough that a
#: paper-workload cell (a few hundred instances) spreads across all
#: workers, large enough that per-chunk dispatch overhead stays small.
MATERIALISED_CHUNK = 64


class StreamError(RuntimeError):
    """Base class for work-queue failures."""


class StreamChunkError(StreamError):
    """A worker reported an exception evaluating a chunk (poisoned task)."""


class StreamWorkerCrash(StreamError):
    """A chunk killed its worker repeatedly; re-dispatch gave up."""


@dataclass
class StreamFault:
    """Test-only fault injection: applied to one chunk of one cell.

    ``once=True`` (the default) arms the fault for the first dispatch
    only, so a crash is followed by a clean re-dispatch; ``once=False``
    keeps the fault on every dispatch of that chunk, which exhausts the
    re-dispatch budget and must surface as a named error.
    """

    kind: str  # "crash" | "poison"
    chunk: int = 0
    once: bool = True
    fired: int = field(default=0, repr=False)


@dataclass
class StreamStats:
    """Aggregate chunking provenance for one engine lifetime."""

    cells: int = 0
    chunks: int = 0
    instances: int = 0
    redispatched: int = 0
    worker_pids: set = field(default_factory=set)

    def as_dict(self) -> dict[str, int]:
        return {
            "cells": self.cells,
            "chunks": self.chunks,
            "instances": self.instances,
            "redispatched": self.redispatched,
            "workers_used": len(self.worker_pids),
        }


class _QueueWorker:
    """One queue worker process plus its parent-side bookkeeping."""

    def __init__(self, ctx, result_queue) -> None:
        self.task_queue = ctx.Queue()
        self.process = ctx.Process(
            target=stream_worker_main,
            args=(self.task_queue, result_queue),
            daemon=True,
        )
        self.process.start()
        #: Dispatched-but-unfinished items, in dispatch order.
        self.assigned: deque = deque()

    @property
    def pid(self) -> int:
        return self.process.pid

    def dispatch(self, item) -> None:
        self.assigned.append(item)
        self.task_queue.put(item)

    def is_dead(self) -> bool:
        return self.process.exitcode is not None

    def stop(self, timeout: float = 5.0) -> None:
        if not self.is_dead():
            try:
                self.task_queue.put(None)
            except (OSError, ValueError):
                pass
        self.process.join(timeout=timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=timeout)
        self.task_queue.close()


class StreamPool:
    """A set of queue workers sharing one result queue."""

    def __init__(self, workers: int) -> None:
        self.ctx = multiprocessing.get_context()
        self.result_queue = self.ctx.Queue()
        self.workers: dict[int, _QueueWorker] = {}
        for _ in range(workers):
            self._spawn()

    def _spawn(self) -> _QueueWorker:
        worker = _QueueWorker(self.ctx, self.result_queue)
        self.workers[worker.pid] = worker
        return worker

    def replace(self, dead: _QueueWorker) -> _QueueWorker:
        """Replace a crashed worker with a fresh one (fresh task queue).

        The dead worker's queue may still hold undelivered items; a
        fresh queue guarantees the replacement never double-pulls them.
        """
        self.workers.pop(dead.pid, None)
        dead.process.join(timeout=1.0)
        return self._spawn()

    def live_workers(self) -> list[_QueueWorker]:
        return [w for w in self.workers.values() if not w.is_dead()]

    def retire(self, pid: int, cell: int, chunk: int) -> None:
        """Note a result; per-worker results arrive in dispatch order."""
        worker = self.workers.get(pid)
        if worker is not None and worker.assigned:
            head = worker.assigned[0]
            if (head.cell, head.chunk) == (cell, chunk):
                worker.assigned.popleft()

    def close(self) -> None:
        """Graceful shutdown: poison pills, join, terminate stragglers."""
        for worker in list(self.workers.values()):
            worker.stop()
        self.workers.clear()
        self.result_queue.close()
        self.result_queue.join_thread()


def _rechunk(segments: Iterator[list], chunk_size: int) -> Iterator[list]:
    """Re-slice a stream of lists into ``chunk_size``-sized lists."""
    flat = chain.from_iterable(segments)
    while True:
        chunk = list(islice(flat, chunk_size))
        if not chunk:
            return
        yield chunk


def _read_or_regenerate(
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


@dataclass
class _Cell:
    """Parent-side state of one requested cell while it is evaluated."""

    ident: int
    profile: ModelProfile
    task: str
    workload: str
    #: The cell cache key; None when cells are not cached.
    key: Optional[str] = None
    #: Unchunked runs: the whole dataset, and the answers merged so far.
    dataset: Optional[TaskDataset] = None
    answers: list = field(default_factory=list)
    #: Chunked runs: the metric counts, and the answer segments written.
    acc: Optional["CellAccumulator"] = None
    counts: list[int] = field(default_factory=list)
    #: Instances of dispatched chunks, until merged; out-of-order answers.
    held: dict[int, list] = field(default_factory=dict)
    buffered: dict[int, list] = field(default_factory=dict)
    next_merge: int = 0
    produced: bool = False
    #: Sum of the chunks' evaluation seconds.
    seconds: float = 0.0
    result: object = None
    cached: bool = False
    error: Optional[BaseException] = None

    @property
    def done(self) -> bool:
        return self.cached or self.error is not None or (self.produced and not self.held)


class StreamingEvaluator:
    """Runs grid cells through chunks: in-process or on the work queue."""

    def __init__(self, engine: "ExperimentEngine") -> None:
        # The engine owns this evaluator; a weak back-reference keeps the
        # pair out of a reference cycle, so a finished engine and its
        # datasets are freed as soon as the last caller drops the engine
        # rather than at the next full garbage collection.
        self._engine = weakref.ref(engine)
        self.stats = StreamStats()
        #: Test-only injected fault; cleared responsibility is the test's.
        self.fault: Optional[StreamFault] = None
        self._pool: Optional[StreamPool] = None
        self._cell_counter = 0

    @property
    def engine(self) -> "ExperimentEngine":
        return self._engine()

    # -- lifecycle ---------------------------------------------------------

    def _get_pool(self) -> StreamPool:
        if self._pool is None:
            self._pool = StreamPool(self.engine.config.workers)
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    # -- the grid ----------------------------------------------------------

    def evaluate(
        self,
        cells: list[tuple[ModelProfile, str, str]],
        prompt: Optional[PromptTemplate],
        on_commit: Callable[["_Cell"], None],
        on_error: Callable[["_Cell"], None],
    ) -> None:
        """Serve ``cells``, committing each in request order.

        ``on_commit`` receives every served cell (``result`` set);
        ``on_error`` every failed one (``error`` set) and either raises,
        which ends the grid, or returns to go on with the next cell.
        """
        states = []
        for profile, task, workload in cells:
            self._cell_counter += 1
            states.append(_Cell(self._cell_counter, profile, task, workload))
        by_ident = {cell.ident: cell for cell in states}
        readers = Counter((task, workload) for _, task, workload in cells)
        committed = 0

        def flush() -> None:
            nonlocal committed
            while committed < len(states) and states[committed].done:
                cell = states[committed]
                committed += 1
                if cell.error is not None:
                    self._discard(cell)
                    on_error(cell)
                else:
                    self._finish(cell)
                    on_commit(cell)

        def produce() -> Iterator[ChunkTask]:
            for cell in states:
                readers[(cell.task, cell.workload)] -= 1
                self.engine._checkpoint()
                yield from self._open(
                    cell, prompt, shared=readers[(cell.task, cell.workload)] > 0
                )
                cell.produced = True
                flush()

        def on_done(item: ChunkTask, payload) -> None:
            cell = by_ident[item.cell]
            if cell.error is None:
                answers, seconds = payload
                cell.seconds += seconds
                cell.buffered[item.chunk] = answers
                while cell.next_merge in cell.buffered:
                    index = cell.next_merge
                    self._merge(
                        cell, index, cell.held.pop(index), cell.buffered.pop(index)
                    )
                    cell.next_merge += 1
            flush()

        def on_failed(item: ChunkTask, error: BaseException) -> None:
            cell = by_ident[item.cell]
            if cell.error is None:
                cell.error = error
            flush()

        try:
            if self.engine.config.workers == 1:
                self._run_in_process(produce(), by_ident, on_done, on_failed)
            else:
                self._run_pool(produce(), on_done, on_failed)
            flush()
        except BaseException:
            # No partial cache writes: a cell's manifest is written only
            # when it commits, so uncommitted entries are invisible —
            # drop their orphaned segments too.
            for cell in states[committed:]:
                self._discard(cell)
            raise

    # -- one cell ----------------------------------------------------------

    def _open(
        self, cell: _Cell, prompt: Optional[PromptTemplate], shared: bool
    ) -> Iterator[ChunkTask]:
        """Serve ``cell`` from the cache, or yield its chunk tasks."""
        from repro.lifecycle import CELL_IN_FLIGHT

        engine = self.engine
        config = engine.config
        if engine.cache is not None and not engine._backend_is_recording():
            # A recording run's purpose is its side effect (writing
            # fixtures through the inner backend), so cached cells must
            # not elide it — and its entries would be unreadable anyway
            # (no later run shares the mode=record fingerprint), so it
            # skips the cell cache in both directions.
            cell.key = engine._cell_key(cell.profile, cell.task, cell.workload, prompt)
        chunked = config.chunk_size is not None
        if not chunked:
            cell.dataset = engine.dataset(cell.task, cell.workload)
        if cell.key is not None and self._serve_warm(cell):
            cell.cached = True
            return
        engine._journal_cell(cell.profile.name, cell.task, cell.workload, CELL_IN_FLIGHT)
        if chunked:
            from repro.evalfw.accumulate import CellAccumulator

            cell.acc = CellAccumulator(
                model=cell.profile.name, task=cell.task, workload=cell.workload
            )
            chunks = self._dataset_chunks(
                cell.task, cell.workload, persist=engine.cache is not None or shared
            )
        else:
            chunks = _rechunk(iter([cell.dataset.instances]), MATERIALISED_CHUNK)
        # Naming a dataset slice needs a cache the workers can load it
        # from; in-process evaluation always has the instances at hand.
        by_slice = not chunked and engine.cache is not None and config.workers > 1
        start = 0
        for index, instances in enumerate(chunks):
            if cell.error is not None:
                return
            cell.held[index] = instances
            yield self._chunk_task(cell, index, start, instances, prompt, by_slice)
            start += len(instances)

    def _chunk_task(
        self,
        cell: _Cell,
        index: int,
        start: int,
        instances: list,
        prompt: Optional[PromptTemplate],
        by_slice: bool,
    ) -> ChunkTask:
        engine = self.engine
        config = engine.config
        fault = None
        if (
            self.fault is not None
            and self.fault.chunk == index
            and (not self.fault.once or self.fault.fired == 0)
        ):
            fault = self.fault.kind
            self.fault.fired += 1
        return ChunkTask(
            cell=cell.ident,
            chunk=index,
            fault=fault,
            spec=ShardSpec(
                profile=cell.profile,
                task=cell.task,
                workload=cell.workload,
                index=index,
                start=start,
                stop=start + len(instances),
                seed=config.seed,
                max_instances=config.max_instances,
                dataset_key=(
                    engine._dataset_disk_key(cell.task, cell.workload)
                    if by_slice
                    else None
                ),
                workload_cache_key=(
                    engine._workload_disk_key(cell.workload) if by_slice else None
                ),
                cache_root=str(config.cache_dir) if by_slice else None,
                instances=None if by_slice else tuple(instances),
                prompt=prompt,
                backend=config.backend,
                max_concurrency=config.max_concurrency,
                rps=config.rps,
                request_timeout=config.request_timeout,
                deadline=config.cell_deadline,
                breaker_threshold=config.resolved_breaker_threshold() or 0,
            ),
        )

    def _merge(self, cell: _Cell, index: int, instances: list, answers: list) -> None:
        """Fold one chunk's answers into its cell, in chunk order."""
        if cell.acc is None:
            cell.answers.extend(answers)
            return
        cell.acc.add_chunk(instances, answers)
        if cell.key is not None:
            self.engine.cache.put_cell_segment(cell.key, index, answers)
            cell.counts.append(len(answers))

    def _finish(self, cell: _Cell) -> None:
        """Build a served cell's result; commit a computed one's cache entry."""
        engine = self.engine
        if cell.acc is not None:
            cell.result = cell.acc.result()
            self.stats.cells += 1
            self.stats.chunks += cell.acc.chunks
            self.stats.instances += cell.acc.instances
        else:
            from repro.evalfw.runner import CellResult

            cell.result = CellResult(
                model=cell.profile.name,
                task=cell.task,
                workload=cell.workload,
                dataset=cell.dataset,
                answers=cell.answers,
            )
        if cell.key is not None and not cell.cached:
            meta = {
                "model": cell.profile.name,
                "task": cell.task,
                "workload": cell.workload,
                "seed": engine.config.seed,
                "max_instances": engine.config.max_instances,
            }
            if cell.acc is None:
                engine.cache.put(cell.key, cell.answers, meta=meta)
            else:
                engine.cache.commit_cell_segments(
                    cell.key, engine.config.chunk_size, cell.counts, meta=meta
                )

    def _discard(self, cell: _Cell) -> None:
        if cell.counts:
            self.engine.cache.discard_segments(cell.key)

    def _serve_warm(self, cell: _Cell) -> bool:
        """Load the cell's committed answers into it; False on a miss.

        Validation is id-for-id: any mismatch, truncated segment, or
        length drift counts as a miss and the cell is recomputed.
        """
        cache = self.engine.cache
        if cell.dataset is not None:
            answers = cache.get(cell.key, expected_ids=cell.dataset.instance_ids())
            cell.answers = answers or []
            return answers is not None
        from repro.evalfw.accumulate import CellAccumulator

        acc = CellAccumulator(
            model=cell.profile.name, task=cell.task, workload=cell.workload
        )
        try:
            instance_iter = chain.from_iterable(
                self._dataset_chunks(cell.task, cell.workload, persist=True)
            )
            for answers in cache.iter_cell_segments(cell.key):
                instances = list(islice(instance_iter, len(answers)))
                if len(instances) != len(answers) or any(
                    a.instance_id != i.instance_id for a, i in zip(answers, instances)
                ):
                    raise CacheSegmentError("answers do not align with the dataset")
                acc.add_chunk(instances, answers)
            if next(instance_iter, None) is not None:
                raise CacheSegmentError("the dataset has more instances than answers")
        except CacheSegmentError:
            cache.stats.misses += 1
            return False
        cache.stats.hits += 1
        cell.acc = acc
        return True

    # -- chunked instance production ---------------------------------------

    def _dataset_chunks(self, task: str, workload: str, persist: bool) -> Iterator[list]:
        """The (task, workload) dataset in ``chunk_size`` chunks.

        Committed dataset segments are read back (see
        :func:`_read_or_regenerate` for a damaged one); otherwise the
        task generators run, and with ``persist`` their chunks are
        stored as segments for the next reader.
        """
        engine = self.engine
        dkey = engine._dataset_disk_key(task, workload)
        store = engine.cache if engine.cache is not None else engine._spill
        manifest = store.get_dataset_manifest(dkey) if store is not None else None
        if manifest is not None:
            store.stats.dataset_hits += 1
            segments = _read_or_regenerate(
                store,
                dkey,
                store.iter_dataset_segments(dkey, manifest),
                lambda: chain.from_iterable(
                    self._generate(task, workload, dkey, store if persist else None)
                ),
            )
            yield from _rechunk(segments, engine.config.chunk_size)
            return
        if store is not None:
            store.stats.dataset_misses += 1
        elif persist:
            store = engine._spill_store()
        yield from self._generate(task, workload, dkey, store if persist else None)

    def _generate(self, task: str, workload: str, dkey: str, store) -> Iterator[list]:
        """One generator pass; stores segments + manifest in ``store``."""
        config = self.engine.config
        counts: list[int] = []
        for chunk in iter_instance_chunks(
            task,
            self._workload_stream(workload),
            seed=config.seed,
            chunk_size=config.chunk_size,
            max_instances=config.max_instances,
        ):
            if store is not None:
                store.put_dataset_segment(dkey, len(counts), chunk)
                counts.append(len(chunk))
            yield chunk
        if store is not None:
            store.commit_dataset_segments(
                dkey,
                config.chunk_size,
                counts,
                meta={"task": task, "workload": workload},
            )

    # -- chunked workload production ---------------------------------------

    def _workload_stream(self, workload: str) -> WorkloadStream:
        """The workload's queries for one more dataset built from it.

        A committed workload entry (in the cache, else in the spill
        store) is read back.  Otherwise the generator runs and its
        queries are stored as segments for the workload's next reader,
        in the cache or else the spill store; storing costs about 2% of
        generating, so even a lone reader stores them.  A capped run
        (``max_instances``) stops reading early, so it never stores a
        workload: a prefix must not pass for the whole.
        """
        engine = self.engine
        config = engine.config
        wkey = engine._workload_disk_key(workload)
        store = engine.cache if engine.cache is not None else engine._spill
        persist = config.max_instances is None
        manifest = store.get_workload_manifest(wkey) if store is not None else None
        if manifest is not None:

            def regenerate() -> Iterator:
                fresh = stream_workload(workload, config.seed)
                return self._storing_queries(fresh, wkey, store) if persist else fresh.factory()

            return WorkloadStream(
                name=manifest["meta"]["workload"],
                schemas=manifest["schemas"],
                total=manifest["total"],
                factory=lambda: chain.from_iterable(
                    _read_or_regenerate(
                        store, wkey, store.iter_workload_segments(wkey, manifest), regenerate
                    )
                ),
            )
        generated = stream_workload(workload, config.seed)
        if not persist:
            return generated
        if store is None:
            store = engine._spill_store()
        return dataclasses.replace(
            generated,
            factory=lambda: self._storing_queries(generated, wkey, store),
        )

    def _storing_queries(self, stream: WorkloadStream, wkey: str, store) -> Iterator:
        """``stream``'s queries, stored in ``store`` as they pass."""
        queries = stream.factory()
        chunk_size = self.engine.config.chunk_size
        counts: list[int] = []
        while segment := list(islice(queries, chunk_size)):
            store.put_workload_segment(wkey, len(counts), segment)
            counts.append(len(segment))
            yield from segment
        store.commit_workload_segments(
            wkey, chunk_size, counts, stream.name, stream.schemas
        )

    # -- executors ---------------------------------------------------------

    def _run_in_process(self, items, by_ident, on_done, on_failed) -> None:
        """The ``workers=1`` executor: each chunk answered in-process.

        Chunk boundaries are interrupt checkpoints.  The cell deadline
        is spent cumulatively across the cell's chunks.
        """
        engine = self.engine
        deadline = engine.config.cell_deadline
        for item in items:
            engine._checkpoint()
            cell = by_ident[item.cell]
            try:
                if item.fault == "crash":
                    raise StreamWorkerCrash(
                        f"chunk {item.chunk} crashed its worker (in-process)"
                    )
                if item.fault == "poison":
                    raise StreamChunkError(
                        f"chunk {item.chunk} failed: RuntimeError: injected poison fault"
                    )
                remaining = None
                if deadline is not None:
                    remaining = deadline - cell.seconds
                    if remaining <= 0:
                        raise DeadlineExceededError(
                            f"cell deadline of {deadline}s exceeded before chunk "
                            f"{item.chunk} ({cell.profile.name}/{cell.task})"
                        )
                started = time.perf_counter()
                spec = item.spec
                answers = engine._evaluate_serial(
                    spec.profile, spec.task, spec.instances, spec.prompt, remaining
                )
            except Exception as error:  # noqa: BLE001 - the cell-error policy decides
                on_failed(item, error)
                continue
            self.stats.worker_pids.add(multiprocessing.current_process().pid)
            on_done(item, (answers, time.perf_counter() - started))

    def _run_pool(
        self, items: Iterator, on_done, on_failed, prefetch: int = PREFETCH
    ) -> None:
        """Dispatch work items to the queue workers until all are done.

        In-flight work is bounded at ``workers x prefetch`` items: the
        producer only advances when a worker slot frees up.  Results
        reach ``on_done`` / ``on_failed`` in completion order, each item
        exactly once.  The pool starts with the first item, so a run
        served wholly from the cache never spawns a worker.
        """
        first = next(items, None)
        if first is None:
            return
        items = chain([first], items)
        pool = self._get_pool()
        inflight: dict[tuple[int, int], object] = {}
        attempts: dict[tuple[int, int], int] = {}
        exhausted = False

        def top_up() -> None:
            nonlocal exhausted
            while not exhausted:
                free = [w for w in pool.live_workers() if len(w.assigned) < prefetch]
                if not free:
                    return
                item = next(items, None)
                if item is None:
                    exhausted = True
                    return
                inflight[(item.cell, item.chunk)] = item
                attempts[(item.cell, item.chunk)] = 1
                min(free, key=lambda w: len(w.assigned)).dispatch(item)

        def replace_dead_workers() -> None:
            persistent = self.fault is not None and not self.fault.once
            for worker in [w for w in pool.workers.values() if w.is_dead()]:
                orphaned = list(worker.assigned)
                worker.assigned.clear()
                replacement = pool.replace(worker)
                for item in orphaned:
                    ident = (item.cell, item.chunk)
                    if ident not in inflight:
                        continue
                    attempts[ident] += 1
                    if attempts[ident] > MAX_ATTEMPTS:
                        del inflight[ident]
                        on_failed(
                            item,
                            StreamWorkerCrash(
                                f"chunk {item.chunk} killed its worker "
                                f"{MAX_ATTEMPTS} times; giving up"
                            ),
                        )
                        continue
                    self.stats.redispatched += 1
                    replacement.dispatch(
                        dataclasses.replace(
                            item, fault=item.fault if persistent else None
                        )
                    )

        try:
            top_up()
            while inflight or not exhausted:
                # Interrupt checkpoint: raising here lands in the
                # BaseException handler below, which drains the pool's
                # in-flight items before the caller discards segments.
                self.engine._checkpoint()
                if not inflight:
                    replace_dead_workers()
                    top_up()
                    continue
                try:
                    kind, pid, cell, chunk, payload = pool.result_queue.get(
                        timeout=POLL_SECONDS
                    )
                except queue_module.Empty:
                    replace_dead_workers()
                    continue
                pool.retire(pid, cell, chunk)
                item = inflight.pop((cell, chunk), None)
                if item is not None:  # else a re-dispatch raced a slow original
                    self.stats.worker_pids.add(pid)
                    if kind == "ok":
                        on_done(item, payload)
                    elif isinstance(payload, BaseException):
                        on_failed(item, payload)
                    else:
                        on_failed(item, StreamChunkError(f"chunk {chunk} failed: {payload}"))
                top_up()
        except BaseException:
            self._drain(pool)
            raise

    def _drain(self, pool: StreamPool, timeout: float = 10.0) -> None:
        """Graceful shutdown of in-flight items after a failure.

        Live workers finish (and we discard) what they already pulled,
        so they end at a clean queue boundary; then every worker gets
        its poison pill and the pool is torn down.  The next pooled run
        starts a fresh pool.
        """
        deadline = time.monotonic() + timeout
        while any(w.assigned for w in pool.live_workers()):
            if time.monotonic() > deadline:
                break
            try:
                _kind, pid, cell, chunk, _payload = pool.result_queue.get(
                    timeout=POLL_SECONDS
                )
            except queue_module.Empty:
                for worker in pool.workers.values():
                    if worker.is_dead():
                        worker.assigned.clear()
                continue
            pool.retire(pid, cell, chunk)
        pool.close()
        self._pool = None
