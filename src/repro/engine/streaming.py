"""The engine's scheduler: every cell is evaluated chunk by chunk.

A grid request is a list of cells in request order — for a
``--workload`` run, every task's cells in one pass.  Each cell is
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
  built whole and the cell keeps every answer, a
  :class:`~repro.evalfw.runner.CellResult`, which the per-instance
  artifacts need.  Chunked, instances come ``chunk_size`` at a time
  from the dataset's segments (or, in-process, straight off the task
  generators) and the cell keeps counts only, a
  :class:`~repro.evalfw.accumulate.StreamedCellResult`, so memory is
  bounded by the chunk size;
* **what a chunk carries** — chunked, its instances inline.  Without a
  chunk size, chunks are ``MATERIALISED_CHUNK`` instances, and with a
  cache and several workers they name a dataset slice the worker loads
  itself.

Either way each workload and each dataset is generated once per
engine, by one :class:`~repro.engine.worker.BuildTask`.  With
``workers > 1`` each dataset the request needs that is not at hand is
a build work item run by a queue worker: unchunked, it ships the
dataset back; chunked, it stores the dataset's segments (in the cache,
else a private spill directory) and announces each one, and the cells'
chunks are cut from the announced segments while the build goes on.
At ``workers=1`` the same build runs inline, chunk by chunk.  The first
build of a workload stores its queries, and the workload's other
builds go out only when it is done and read them.

Scheduling: with ``workers > 1`` work items go to a pool of queue
workers (:func:`repro.engine.worker.stream_worker_main`).  Dispatch is
pull-based with bounded in-flight work: a worker holds at most
``PREFETCH`` pending items, and the producer only advances when a slot
frees up — that bound IS the backpressure that keeps parent memory
flat.  Builds go out before further chunks, and a worker holding a
build takes no chunk behind it.  The producer runs across cell
boundaries, and a cell waiting for a build does not hold up the cells
after it.

Fault model: a worker that dies mid-item is detected via its exit
code; its assigned items are re-dispatched to a fresh worker up to
``MAX_ATTEMPTS`` times, after which the item's cells fail with
:class:`StreamWorkerCrash`.  A worker that *reports* an exception fails
the chunk's cell, or every cell of the build's dataset, with
:class:`StreamChunkError` (or with the backend error itself).  Failed
cells' and builds' segments are discarded — no partial writes — and
the engine's ``on_cell_error`` policy decides whether the grid goes
on.  When the grid stops early, workers holding a build are stopped
rather than drained.
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
from typing import TYPE_CHECKING, Callable, Iterator, Optional

from repro.engine.cache import CacheSegmentError
from repro.engine.worker import (
    BuildTask,
    ChunkTask,
    ShardSpec,
    read_or_regenerate,
    stream_worker_main,
)
from repro.llm.backends import DeadlineExceededError
from repro.llm.profiles import ModelProfile
from repro.prompts.templates import PromptTemplate
from repro.tasks.base import TaskDataset

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

#: What the producer yields when nothing can go out until a build
#: announces more of its dataset, and when a cell it finished producing
#: may have committed (a cache hit sends no work out), so that the
#: executors hand control back to the caller at once.
_BLOCKED = object()
_SETTLED = object()


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
    re-dispatch budget and must surface as a named error.  With
    ``build=True`` the fault hits the ``chunk``-th dataset build of a
    request instead (0 = the first, in request order).
    """

    kind: str  # "crash" | "poison"
    chunk: int = 0
    once: bool = True
    build: bool = False
    fired: int = field(default=0, repr=False)


@dataclass
class StreamStats:
    """Aggregate chunking provenance for one engine lifetime."""

    cells: int = 0
    chunks: int = 0
    instances: int = 0
    redispatched: int = 0
    #: Datasets this engine generated, as opposed to read from the store.
    builds: int = 0
    #: Every process that ran a work item (a chunk or a build).
    worker_pids: set = field(default_factory=set)

    def as_dict(self) -> dict[str, int]:
        return {
            "cells": self.cells,
            "chunks": self.chunks,
            "instances": self.instances,
            "redispatched": self.redispatched,
            "builds": self.builds,
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

    @property
    def holds_build(self) -> bool:
        """A worker with a build in hand takes no chunk behind it."""
        return any(isinstance(item, BuildTask) for item in self.assigned)

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


def _describe(item) -> str:
    if isinstance(item, BuildTask):
        return f"the {item.task} build over {item.workload}"
    return f"chunk {item.chunk}"


@dataclass
class _Build:
    """Parent-side state of one dataset build on the work queue."""

    item: BuildTask
    #: Position among the request's builds (for fault injection).
    index: int
    #: Sizes of the segments announced so far (chunked builds).
    counts: list[int] = field(default_factory=list)
    dispatched: bool = False
    done: bool = False
    error: Optional[BaseException] = None


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
        #: The current request's unfinished builds, by (task, workload),
        #: and the workloads whose queries are stored (committed).
        self._builds: dict[tuple[str, str], _Build] = {}
        self._stored: set[str] = set()
        #: Builds running inline (in-process), by dataset key.
        self._inline: dict[str, BuildTask] = {}

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
    ) -> Iterator[None]:
        """Serve ``cells``, committing each in request order.

        ``on_commit`` receives every served cell (``result`` set);
        ``on_error`` every failed one (``error`` set) and either raises,
        which ends the grid, or returns to go on with the next cell.
        A generator: it yields after every scheduling step, so a caller
        can act on the cells committed so far while the work goes on,
        and returns when every cell is committed.  Closing it early
        stops the work and discards what is uncommitted.
        """
        states = []
        for profile, task, workload in cells:
            self._cell_counter += 1
            states.append(_Cell(self._cell_counter, profile, task, workload))
        by_ident = {cell.ident: cell for cell in states}
        readers = Counter((task, workload) for _, task, workload in cells)
        committed = 0
        pooled = self.engine.config.workers > 1
        if pooled:
            self._plan_builds(cells)

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

        def produce() -> Iterator:
            """Builds first, then the opened cells' chunks in request order.

            A cell waiting for its dataset's build does not hold up the
            cells after it: while every opened cell waits, the next one
            is opened, and ``_BLOCKED`` means all of them wait.
            """
            waiting = deque(states)
            opened: list[tuple[_Cell, Iterator]] = []
            while True:
                build = self._next_build()
                if build is not None:
                    yield build
                    continue
                for entry in opened:
                    item = next(entry[1], None)
                    if item is None:
                        opened.remove(entry)
                        entry[0].produced = True
                        flush()
                        yield _SETTLED
                        break
                    if item is not _BLOCKED:
                        yield item
                        break
                else:
                    if waiting:
                        cell = waiting.popleft()
                        dataset = (cell.task, cell.workload)
                        readers[dataset] -= 1
                        self.engine._checkpoint()
                        opened.append(
                            (cell, self._open(cell, prompt, shared=readers[dataset] > 0))
                        )
                    elif opened:
                        yield _BLOCKED
                    else:
                        return

        def on_done(item, payload) -> None:
            if isinstance(item, BuildTask):
                self._built(item, payload)
                return
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

        def on_failed(item, error: BaseException) -> None:
            if isinstance(item, BuildTask):
                # Every cell that reads the dataset fails with its build.
                self._builds[(item.task, item.workload)].error = error
                self._discard_build(item)
                for cell in states:
                    if (cell.task, cell.workload) == (item.task, item.workload) and not cell.done:
                        cell.error = error
            else:
                cell = by_ident[item.cell]
                if cell.error is None:
                    cell.error = error
            flush()

        try:
            if pooled:
                yield from self._run_pool(produce(), on_done, on_failed)
            else:
                yield from self._run_in_process(produce(), by_ident, on_done, on_failed)
            flush()
        except BaseException:
            # No partial cache writes: a cell's manifest is written only
            # when it commits, so uncommitted entries are invisible —
            # drop their orphaned segments too.
            for cell in states[committed:]:
                self._discard(cell)
            raise
        finally:
            # And those of unfinished builds: the pool has stopped the
            # workers running them, and an inline build left unfinished
            # was abandoned by its failed cell.
            unfinished = [b.item for b in self._builds.values() if b.error is None]
            for item in unfinished + list(self._inline.values()):
                self._discard_build(item)
            self._builds = {}
            self._inline = {}

    # -- builds ------------------------------------------------------------

    def _build_item(self, task: str, workload: str, ident: int = 0) -> BuildTask:
        """The build of the (task, workload) dataset under this engine."""
        engine = self.engine
        config = engine.config
        return BuildTask(
            cell=ident,
            task=task,
            workload=workload,
            seed=config.seed,
            max_instances=config.max_instances,
            dataset_key=engine._dataset_disk_key(task, workload),
            workload_cache_key=engine._workload_disk_key(workload),
            store_root=str(engine._store().root),
            cache_root=str(engine.cache.root) if engine.cache is not None else None,
            chunk_size=config.chunk_size,
        )

    def _plan_builds(self, cells) -> None:
        """One build for each dataset of the request not already at hand.

        At hand means committed in the store (chunked), or in memory or
        the cache (unchunked).  Builds are listed in request order.
        """
        engine = self.engine
        store = engine._store()
        chunked = engine.config.chunk_size is not None
        self._builds = {}
        self._stored = set()
        for task, workload in dict.fromkeys((task, workload) for _, task, workload in cells):
            dkey = engine._dataset_disk_key(task, workload)
            if chunked:
                if store.get_dataset_manifest(dkey) is not None:
                    continue
            elif (task, workload) in engine._datasets:
                continue
            elif engine.cache is not None:
                dataset = engine.cache.get_dataset(dkey)
                if dataset is not None:
                    engine._datasets[(task, workload)] = dataset
                    continue
            self._cell_counter += 1
            item = self._build_item(task, workload, self._cell_counter)
            self._builds[(task, workload)] = _Build(item, index=len(self._builds))
            if store.get_workload_manifest(item.workload_cache_key) is not None:
                self._stored.add(workload)

    def _next_build(self) -> Optional[BuildTask]:
        """The first build in request order that may go out now.

        A build that would store its workload's queries waits while
        another build is storing them, so two workers never generate
        the same workload; it goes out when that build is done.
        """
        for build in self._builds.values():
            item = build.item
            if build.dispatched or (
                item.stores_workload
                and item.workload not in self._stored
                and any(
                    other.dispatched
                    and not other.done
                    and other.error is None
                    and other.item.workload == item.workload
                    for other in self._builds.values()
                )
            ):
                continue
            build.dispatched = True
            self.stats.builds += 1
            return dataclasses.replace(item, fault=self._armed(build.index, build=True))
        return None

    def _announced(self, build: _Build) -> Iterator:
        """A building dataset's segments, as its build announces them.

        Yields ``_BLOCKED`` while the next segment is not written yet,
        and stops when the build fails (its cells fail with it).
        """
        store = self.engine._store()
        read = 0
        while build.error is None:
            if read < len(build.counts):
                yield from store.iter_dataset_segments(
                    build.item.dataset_key,
                    {"first": read, "counts": build.counts[read : read + 1]},
                )
                read += 1
            elif build.done:
                return
            else:
                yield _BLOCKED

    def _on_segment(self, item: BuildTask, payload: tuple[int, int]) -> None:
        """Note an announced segment; a re-dispatched build repeats some."""
        index, count = payload
        build = self._builds.get((item.task, item.workload))
        if build is not None and index == len(build.counts):
            build.counts.append(count)

    def _built(self, item: BuildTask, dataset: Optional[TaskDataset]) -> None:
        """A build is done: its dataset is committed (or, unchunked, here)."""
        build = self._builds.pop((item.task, item.workload))
        build.done = True
        if dataset is not None:
            self.engine._datasets[(item.task, item.workload)] = dataset
        if item.stores_workload:
            self._stored.add(item.workload)

    def _discard_build(self, item: BuildTask) -> None:
        """Drop an unfinished build's segments, and its workload's if
        uncommitted."""
        store = self.engine._store()
        store.discard_segments(item.dataset_key)
        if item.stores_workload and store.get_workload_manifest(item.workload_cache_key) is None:
            store.discard_segments(item.workload_cache_key)

    def _armed(self, index: int, build: bool = False) -> Optional[str]:
        """The injected fault for this chunk or build, if it is armed."""
        fault = self.fault
        if (
            fault is None
            or fault.build != build
            or fault.chunk != index
            or (fault.once and fault.fired)
        ):
            return None
        fault.fired += 1
        return fault.kind

    # -- one cell ----------------------------------------------------------

    def _open(
        self, cell: _Cell, prompt: Optional[PromptTemplate], shared: bool
    ) -> Iterator:
        """Serve ``cell`` from the cache, or yield its chunk tasks.

        Yields ``_BLOCKED`` while the cell waits for its dataset's build.
        """
        from repro.lifecycle import CELL_IN_FLIGHT

        engine = self.engine
        config = engine.config
        if cell.error is not None:  # its dataset's build failed
            return
        if engine.cache is not None and not engine._backend_is_recording():
            # A recording run's purpose is its side effect (writing
            # fixtures through the inner backend), so cached cells must
            # not elide it — and its entries would be unreadable anyway
            # (no later run shares the mode=record fingerprint), so it
            # skips the cell cache in both directions.
            cell.key = engine._cell_key(cell.profile, cell.task, cell.workload, prompt)
        chunked = config.chunk_size is not None
        warm = cell.key is not None
        build = self._builds.get((cell.task, cell.workload))
        if build is not None:
            if chunked and warm:
                warm = engine.cache.get_cell_manifest(cell.key) is not None
            if warm or not chunked:
                # The whole dataset first: an unchunked cell takes it
                # whole, and cached answers are checked against all of it.
                while not build.done:
                    if cell.error is not None:
                        return
                    yield _BLOCKED
                build = None
        if not chunked:
            cell.dataset = engine.dataset(cell.task, cell.workload)
        if cell.key is not None:
            if not warm:
                engine.cache.stats.misses += 1
            elif self._serve_warm(cell):
                cell.cached = True
                return
        engine._journal_cell(cell.profile.name, cell.task, cell.workload, CELL_IN_FLIGHT)
        if chunked:
            from repro.evalfw.accumulate import CellAccumulator

            cell.acc = CellAccumulator(
                model=cell.profile.name, task=cell.task, workload=cell.workload
            )
            chunks = (
                self._announced(build)
                if build is not None
                else self._dataset_chunks(
                    cell.task, cell.workload, persist=engine.cache is not None or shared
                )
            )
        else:
            chunks = _rechunk(iter([cell.dataset.instances]), MATERIALISED_CHUNK)
        # Naming a dataset slice needs a cache the workers can load it
        # from; in-process evaluation always has the instances at hand.
        by_slice = not chunked and engine.cache is not None and config.workers > 1
        index = start = 0
        for instances in chunks:
            if cell.error is not None:
                return
            if instances is _BLOCKED:
                yield instances
                continue
            cell.held[index] = instances
            yield self._chunk_task(cell, index, start, instances, prompt, by_slice)
            index += 1
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
        return ChunkTask(
            cell=cell.ident,
            chunk=index,
            fault=self._armed(index),
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
        """The (task, workload) dataset in ``chunk_size`` chunks, in-process.

        Committed dataset segments are read back (see
        :func:`read_or_regenerate` for a damaged one); otherwise the
        dataset's build runs inline, and with ``persist`` its chunks are
        stored as segments for the next reader.
        """
        engine = self.engine
        store = engine._store()
        build = self._build_item(task, workload)
        manifest = store.get_dataset_manifest(build.dataset_key)
        if manifest is not None:
            store.stats.dataset_hits += 1
            segments = read_or_regenerate(
                store,
                build.dataset_key,
                store.iter_dataset_segments(build.dataset_key, manifest),
                lambda: chain.from_iterable(build.chunks(store, persist)),
            )
            yield from _rechunk(segments, engine.config.chunk_size)
            return
        store.stats.dataset_misses += 1
        self.stats.builds += 1
        self._inline[build.dataset_key] = build
        yield from build.chunks(store, persist)
        del self._inline[build.dataset_key]

    # -- executors ---------------------------------------------------------

    def _run_in_process(self, items, by_ident, on_done, on_failed) -> Iterator[None]:
        """The ``workers=1`` executor: each chunk answered in-process.

        Chunk boundaries are interrupt checkpoints.  The cell deadline
        is spent cumulatively across the cell's chunks.  Yields after
        every chunk and every cell the producer settles.
        """
        engine = self.engine
        deadline = engine.config.cell_deadline
        for item in items:
            if item is _SETTLED:
                yield
                continue
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
            else:
                self.stats.worker_pids.add(multiprocessing.current_process().pid)
                on_done(item, (answers, time.perf_counter() - started))
            yield

    def _run_pool(self, items: Iterator, on_done, on_failed) -> Iterator[None]:
        """Dispatch work items to the queue workers until all are done.

        In-flight work is bounded at ``workers x PREFETCH`` items: the
        producer only advances when a worker slot frees up, and a worker
        holding a build takes nothing more until the build is done.
        Results reach ``on_done`` / ``on_failed`` in completion order,
        each item exactly once; a build's announced segments reach
        :meth:`_on_segment` as they come.  Yields after every result and
        every cell the producer settles.
        The pool starts with the first item, so a run served wholly from
        the cache never spawns a worker.
        """
        for first in items:
            if first is not _SETTLED:
                break
            yield
        else:
            return
        items = chain([first], items)
        pool = self._get_pool()
        inflight: dict[tuple[int, int], object] = {}
        attempts: dict[tuple[int, int], int] = {}
        exhausted = False

        def top_up() -> Iterator[None]:
            nonlocal exhausted
            while not exhausted:
                free = [
                    w
                    for w in pool.live_workers()
                    if len(w.assigned) < PREFETCH and not w.holds_build
                ]
                if not free:
                    return
                item = next(items, None)
                if item is None:
                    exhausted = True
                    return
                if item is _BLOCKED:
                    return
                if item is _SETTLED:
                    yield
                    continue
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
                                f"{_describe(item)} killed its worker "
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
            yield from top_up()
            while inflight or not exhausted:
                # Interrupt checkpoint: raising here lands in the
                # BaseException handler below, which drains the pool's
                # in-flight items before the caller discards segments.
                self.engine._checkpoint()
                if not inflight:
                    replace_dead_workers()
                    yield from top_up()
                    continue
                try:
                    kind, pid, cell, chunk, payload = pool.result_queue.get(
                        timeout=POLL_SECONDS
                    )
                except queue_module.Empty:
                    replace_dead_workers()
                    continue
                if kind == "segment":
                    item = inflight.get((cell, chunk))
                else:
                    pool.retire(pid, cell, chunk)
                    item = inflight.pop((cell, chunk), None)
                if item is not None:  # else a re-dispatch raced a slow original
                    self.stats.worker_pids.add(pid)
                    if kind == "segment":
                        self._on_segment(item, payload)
                    elif kind == "ok":
                        on_done(item, payload)
                    elif isinstance(payload, BaseException):
                        on_failed(item, payload)
                    else:
                        on_failed(
                            item, StreamChunkError(f"{_describe(item)} failed: {payload}")
                        )
                yield from top_up()
                yield
        except BaseException:
            self._drain(pool)
            raise

    def _drain(self, pool: StreamPool, timeout: float = 10.0) -> None:
        """Graceful shutdown of in-flight items after a failure.

        A worker holding a build is stopped at once: the build's output
        is uncommitted and about to be discarded, and a build can run
        for long.  Other live workers finish (and we discard) what they
        already pulled, so they end at a clean queue boundary; then
        every worker gets its poison pill and the pool is torn down.
        The next pooled run starts a fresh pool.
        """
        for worker in pool.live_workers():
            if worker.holds_build:
                # SIGKILL: a worker forked while the run's SIGTERM
                # handler was installed has inherited it.
                worker.process.kill()
                worker.process.join()
                worker.assigned.clear()
        deadline = time.monotonic() + timeout
        while any(w.assigned for w in pool.live_workers()):
            if time.monotonic() > deadline:
                break
            try:
                kind, pid, cell, chunk, _payload = pool.result_queue.get(
                    timeout=POLL_SECONDS
                )
            except queue_module.Empty:
                for worker in pool.workers.values():
                    if worker.is_dead():
                        worker.assigned.clear()
                continue
            if kind != "segment":
                pool.retire(pid, cell, chunk)
        pool.close()
        self._pool = None
