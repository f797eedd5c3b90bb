"""The cache-backed experiment engine.

The paper's evaluation grid (models x tasks x workloads) is
embarrassingly parallel: every answer depends only on ``(model, task,
instance_id)``.  The engine exploits that by cutting each cell into
contiguous instance chunks, evaluating them in-process (``workers=1``,
the default: no multiprocessing at all) or on a pull-based work queue
of worker processes, and merging answers back in chunk order — so a
parallel run is byte-identical to the serial one.  The scheduler lives
in :mod:`repro.engine.streaming`.

With a cache directory configured, evaluated cells are persisted through
:mod:`repro.engine.cache`; re-running a grid only recomputes cells whose
inputs (seed, profile, prompt, workload, instance cap, backend) changed.

Model calls go through the pluggable backend layer
(:mod:`repro.llm.backends`): each chunk's requests are batched through
an async dispatcher (bounded concurrency, rate limiting, retries) to
the configured backend — the in-process simulator by default, an HTTP
endpoint or a record/replay fixture store otherwise.
"""

from __future__ import annotations

import tempfile
from collections import Counter, deque
from dataclasses import dataclass
from pathlib import Path
from itertools import chain
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from repro.engine.cache import (
    ResultCache,
    cell_key,
    dataset_key,
    prompt_fingerprint,
    workload_key,
)
from repro.lifecycle import (
    CELL_COMMITTED,
    CELL_DEGRADED,
    CELL_FAILED,
    CELL_SKIPPED,
    CellFailure,
    GracefulInterrupt,
    RunJournal,
)
from repro.lifecycle.journal import cell_descriptor
from repro.llm.backends import (
    DEFAULT_BREAKER_THRESHOLD,
    DEFAULT_MAX_CONCURRENCY,
    SIMULATED_SPEC,
    AsyncDispatcher,
    BackendError,
    BackendSpec,
    BreakerState,
    CircuitBreaker,
    ModelBackend,
    create_backend,
)
from repro.llm.profiles import MODEL_PROFILES, ModelProfile
from repro.llm.simulated import SimulatedLLM
from repro.prompts.templates import PromptTemplate
from repro.tasks.base import ModelAnswer, TaskDataset
from repro.tasks.registry import (
    TASK_WORKLOADS,
    answers_from_responses,
    build_dataset,
    build_request,
)
from repro.workloads import load_workload
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, see below
    from repro.engine.streaming import StreamingEvaluator, _Cell
    from repro.evalfw.runner import CellResult


@dataclass(frozen=True)
class EngineConfig:
    """Knobs for one engine instance."""

    seed: int = 0
    workers: int = 1
    cache_dir: Optional[Path] = None  # None disables the result cache
    max_instances: Optional[int] = None
    #: Chunk size; None materialises each cell's dataset and keeps every
    #: answer.  When set, cells stream ``chunk_size`` instances at a time
    #: and keep metric counts only (:mod:`repro.engine.streaming`), with
    #: memory bounded by the chunk size instead of the dataset size.
    chunk_size: Optional[int] = None
    #: Which model backend answers requests (default: the simulator).
    backend: BackendSpec = SIMULATED_SPEC
    #: Dispatcher knobs: in-flight bound and sustained requests/second
    #: (None = unthrottled; the simulator needs no throttle).
    max_concurrency: int = DEFAULT_MAX_CONCURRENCY
    rps: Optional[float] = None
    #: What to do when one cell cannot be evaluated: "fail" aborts the
    #: run (the historical behaviour), "skip"/"degrade" journal a
    #: structured CellFailure and continue with the rest of the grid.
    on_cell_error: str = "fail"
    #: Per-request wall-clock timeout in seconds (None = no timeout).
    #: Enforced both in the HTTP transport (openai_compat) and as an
    #: ``asyncio.wait_for`` safety net in the dispatcher.
    request_timeout: Optional[float] = None
    #: Per-cell wall-clock budget in seconds (None = unbounded).  The
    #: in-process path spends it cumulatively across the cell's chunks;
    #: the work queue grants each chunk the full budget (coarser, but
    #: still bounds a hung endpoint per dispatch).
    cell_deadline: Optional[float] = None
    #: Circuit-breaker trip threshold (consecutive transient failures).
    #: None = auto: on for remote backends (openai_compat), off for the
    #: in-process simulator and replay fixtures.  0 disables explicitly.
    breaker_threshold: Optional[int] = None

    #: Valid ``on_cell_error`` policies.
    CELL_ERROR_POLICIES = ("fail", "skip", "degrade")

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.max_concurrency < 1:
            raise ValueError(
                f"max_concurrency must be >= 1, got {self.max_concurrency}"
            )
        if self.rps is not None and self.rps <= 0:
            raise ValueError(f"rps must be > 0, got {self.rps}")
        if self.on_cell_error not in self.CELL_ERROR_POLICIES:
            raise ValueError(
                f"on_cell_error must be one of {self.CELL_ERROR_POLICIES}, "
                f"got {self.on_cell_error!r}"
            )
        if self.request_timeout is not None and self.request_timeout <= 0:
            raise ValueError(
                f"request_timeout must be > 0, got {self.request_timeout}"
            )
        if self.cell_deadline is not None and self.cell_deadline <= 0:
            raise ValueError(
                f"cell_deadline must be > 0, got {self.cell_deadline}"
            )
        if self.breaker_threshold is not None and self.breaker_threshold < 0:
            raise ValueError(
                f"breaker_threshold must be >= 0, got {self.breaker_threshold}"
            )

    def resolved_breaker_threshold(self) -> Optional[int]:
        """The effective trip threshold, or None when the breaker is off."""
        if self.breaker_threshold is None:
            return (
                DEFAULT_BREAKER_THRESHOLD
                if self.backend.name == "openai_compat"
                else None
            )
        return self.breaker_threshold if self.breaker_threshold > 0 else None


@dataclass(frozen=True)
class CellLog:
    """Provenance of one served cell: cache hit or computed, and when.

    ``seconds`` is the cell's compute time: the *sum* of its chunks'
    evaluation times, measured where each chunk ran (chunks of
    different cells overlap on the work queue, so the parent's clock
    cannot attribute elapsed time — the workers' clocks can).  Cached
    cells record 0 seconds.
    ``prompt`` is the prompt-template fingerprint the cell was asked
    with, so a re-serve under a *different* prompt is distinguishable
    from a repeat serve of the same experiment.  The reporting layer
    folds these into RunRecords.
    """

    model: str
    task: str
    workload: str
    instances: int
    cached: bool
    seconds: Optional[float]
    prompt: str = ""


class ExperimentEngine:
    """Evaluates grid cells, in parallel and through the result cache."""

    def __init__(
        self,
        config: EngineConfig = EngineConfig(),
        models: tuple[ModelProfile, ...] = MODEL_PROFILES,
    ) -> None:
        self.config = config
        self.models = models
        self.cache = (
            ResultCache(Path(config.cache_dir))
            if config.cache_dir is not None
            else None
        )
        self.computed_cells = 0
        self.cached_cells = 0
        #: Every distinct served cell, keyed (model, task, workload) —
        #: the reporting layer snapshots this into RunRecords.
        self.results: dict[tuple[str, str, str], "CellResult"] = {}
        #: Append-only provenance log (one entry per serve, incl. repeats).
        self.cell_log: list[CellLog] = []
        self._workloads: dict[str, Workload] = {}
        self._datasets: dict[tuple[str, str], TaskDataset] = {}
        #: Lazily built: evaluation goes through backend_for(); direct
        #: simulator access survives for ablation harnesses only.
        self._clients: dict[str, SimulatedLLM] = {}
        self._backends: dict[str, ModelBackend] = {}
        #: Shared token-bucket fill level for the serial path, so --rps
        #: is sustained across cells instead of re-bursting per cell.
        self._bucket_state = None
        #: Shared circuit-breaker health for the serial path: a backend
        #: that tripped during one cell stays tripped for the next.
        self._breaker_state: Optional[BreakerState] = None
        #: Lifecycle hooks, wired by the CLI: a write-ahead journal for
        #: crash-safe resume, a graceful-interrupt latch polled at the
        #: engine's checkpoints, and an optional per-commit callback
        #: (the chaos harness uses it to deliver signals at exact,
        #: reproducible points in the grid).
        self.journal: Optional[RunJournal] = None
        self.interrupt: Optional[GracefulInterrupt] = None
        self.on_cell_commit = None
        #: Structured failures of cells absorbed under
        #: ``on_cell_error=skip|degrade`` — the reporting layer renders
        #: these as explicit gaps.
        self.failures: list[CellFailure] = []
        #: Memoised fixtures-content hash (replay mode; one IO pass).
        self._backend_state_memo: Optional[str] = None
        self._by_name = {profile.name: profile for profile in models}
        self._streaming: Optional["StreamingEvaluator"] = None
        #: The pass of :meth:`plan_tasks`: tasks still to serve, their
        #: workloads, and the pass's (task, grid) iterator.
        self._plan: Optional[tuple[deque, Optional[tuple[str, ...]], Iterator]] = None
        #: Runs without a cache keep dataset and workload segments
        #: here, so a dataset read by several cells, and a workload
        #: read by several tasks, is generated once.
        self._spill: Optional[ResultCache] = None
        self._spill_dir: Optional[tempfile.TemporaryDirectory] = None

    # -- shared state ------------------------------------------------------

    def workload(self, name: str) -> Workload:
        if name not in self._workloads:
            self._workloads[name] = load_workload(name, self.config.seed)
        return self._workloads[name]

    def dataset(self, task: str, workload_name: str) -> TaskDataset:
        """The whole (task, workload) dataset: memo, then cache, then build."""
        key = (task, workload_name)
        if key not in self._datasets:
            disk_key = self._dataset_disk_key(task, workload_name)
            dataset = self.cache.get_dataset(disk_key) if self.cache else None
            if dataset is None:
                dataset = build_dataset(
                    task,
                    self.workload(workload_name),
                    seed=self.config.seed,
                    max_instances=self.config.max_instances,
                )
                if self.cache is not None:
                    self.cache.put_dataset(disk_key, dataset)
            self._datasets[key] = dataset
        return self._datasets[key]

    def _dataset_disk_key(self, task: str, workload_name: str) -> str:
        return dataset_key(
            task, workload_name, self.config.seed, self.config.max_instances
        )

    def _workload_disk_key(self, workload_name: str) -> str:
        return workload_key(workload_name, self.config.seed)

    def _cell_key(
        self,
        profile: ModelProfile,
        task: str,
        workload_name: str,
        prompt: Optional[PromptTemplate],
    ) -> str:
        return cell_key(
            self.config.seed,
            profile,
            task,
            workload_name,
            self.config.max_instances,
            prompt,
            backend=self.config.backend,
            backend_state=self._backend_state(),
        )

    def _store(self) -> ResultCache:
        """Where built datasets and workloads are stored.

        The cache, else a private spill directory, which :meth:`close`
        removes (as does collecting the engine).
        """
        if self.cache is not None:
            return self.cache
        if self._spill is None:
            self._spill_dir = tempfile.TemporaryDirectory(prefix="repro-spill-")
            self._spill = ResultCache(Path(self._spill_dir.name))
        return self._spill

    def client(self, model_name: str) -> SimulatedLLM:
        """Direct simulator access (ablation harnesses; not the grid path)."""
        if model_name not in self._clients:
            self._clients[model_name] = SimulatedLLM(self.profile(model_name))
        return self._clients[model_name]

    def backend_for(self, model_name: str) -> ModelBackend:
        """The configured backend instance for one model (memoised)."""
        if model_name not in self._backends:
            self._backends[model_name] = create_backend(
                self.config.backend, self.profile(model_name)
            )
        return self._backends[model_name]

    def _backend_is_recording(self) -> bool:
        """Whether runs exist for their side effects (fixture writing)."""
        return self.config.backend.option("mode") == "record"

    def _backend_state(self) -> str:
        """External state feeding the backend's answers, for cache keys.

        Replay-mode fixtures are an input like source code or the seed:
        their content hash joins the cell key so edited or re-recorded
        fixtures invalidate cells cached against the old responses.
        Recording runs return "" (they never read the cell cache, and
        their fixture store mutates while they run).
        """
        spec = self.config.backend
        if spec.name != "replay" or self._backend_is_recording():
            return ""
        if self._backend_state_memo is None:
            from repro.llm.backends.replay import (
                DEFAULT_FIXTURES_DIR,
                fixtures_fingerprint,
            )

            root = spec.option("dir") or str(DEFAULT_FIXTURES_DIR)
            self._backend_state_memo = fixtures_fingerprint(Path(root))
        return self._backend_state_memo

    def profile(self, model_name: str) -> ModelProfile:
        try:
            return self._by_name[model_name]
        except KeyError:
            raise KeyError(
                f"unknown model {model_name!r}; engine has {sorted(self._by_name)}"
            ) from None

    # -- resilience --------------------------------------------------------

    def _checkpoint(self) -> None:
        """Raise :class:`RunInterrupted` if a graceful drain was requested.

        Called before each cell and between chunks — the points where
        everything already committed is durable and nothing uncommitted
        is visible.
        """
        if self.interrupt is not None:
            self.interrupt.check()

    def _journal_cell(
        self,
        model: str,
        task: str,
        workload: str,
        state: str,
        failure: Optional[CellFailure] = None,
    ) -> None:
        if self.journal is not None:
            self.journal.record(
                cell_descriptor(model, task, workload), state, failure=failure
            )

    def _is_cell_error(self, error: BaseException) -> bool:
        """Errors the ``on_cell_error`` policy may absorb.

        Backend failures (retry exhaustion, open circuits, deadlines)
        and work-queue failures (worker crashes, poisoned chunks) poison
        *one cell*; anything else — including
        :class:`~repro.lifecycle.RunInterrupted` — is about the run and
        always propagates.
        """
        from repro.engine.streaming import StreamError

        return isinstance(error, (BackendError, StreamError))

    def _absorb_cell_error(
        self, model: str, task: str, workload: str, error: BaseException
    ) -> bool:
        """Apply the cell-error policy; True if the grid should continue."""
        failure = CellFailure.from_exception(model, task, workload, error)
        if self.config.on_cell_error == "fail":
            self._journal_cell(model, task, workload, CELL_FAILED, failure)
            return False
        state = (
            CELL_SKIPPED
            if self.config.on_cell_error == "skip"
            else CELL_DEGRADED
        )
        self.failures.append(failure)
        self._journal_cell(model, task, workload, state, failure)
        return True

    def _serial_breaker(self) -> Optional[CircuitBreaker]:
        """The in-process circuit breaker (shared health across cells)."""
        threshold = self.config.resolved_breaker_threshold()
        if threshold is None:
            return None
        if self._breaker_state is None:
            self._breaker_state = BreakerState()
        return CircuitBreaker(
            threshold=threshold,
            state=self._breaker_state,
            backend_name=self.config.backend.name,
        )

    # -- lifecycle ---------------------------------------------------------

    @property
    def streaming(self) -> "StreamingEvaluator":
        """The scheduler every cell goes through."""
        if self._streaming is None:
            # Imported lazily: streaming pulls in evalfw.accumulate,
            # whose package __init__ imports evalfw.runner -> this module.
            from repro.engine.streaming import StreamingEvaluator

            self._streaming = StreamingEvaluator(self)
        return self._streaming

    def stream_stats(self) -> Optional[dict]:
        """Chunking provenance for the reporting layer (None if unchunked)."""
        if self._streaming is None or self.config.chunk_size is None:
            return None
        return self._streaming.stats.as_dict()

    def close(self) -> None:
        """Shut down the worker pool and backends (idempotent)."""
        # The evaluator survives close() so its stats stay readable for
        # the run record; only its worker pool is torn down.
        self._end_plan()
        if self._streaming is not None:
            self._streaming.close()
        if self._spill_dir is not None:
            self._spill_dir.cleanup()
            self._spill_dir = self._spill = None
        for backend in self._backends.values():
            closer = getattr(backend, "close", None)
            if closer is not None:
                closer()
        self._backends.clear()

    def __enter__(self) -> "ExperimentEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- evaluation --------------------------------------------------------

    def run_cell(
        self,
        model_name: str,
        task: str,
        workload_name: str,
        prompt: Optional[PromptTemplate] = None,
    ) -> "CellResult":
        """Evaluate one cell (through the cache and the work queue)."""
        grids = self._evaluate_cells(
            [(self.profile(model_name), task, workload_name)], prompt
        )
        return grids[task][(model_name, workload_name)]

    def run_task(
        self,
        task: str,
        workloads: Optional[tuple[str, ...]] = None,
        prompt: Optional[PromptTemplate] = None,
    ) -> dict[tuple[str, str], "CellResult"]:
        """Evaluate all models on all of a task's workloads.

        Chunks of the next cells are in flight while a cell finishes, so
        worker utilisation does not dip at cell boundaries.  The next
        task of a :meth:`plan_tasks` pass is served from that pass.
        """
        if self._plan is not None:
            tasks, planned_workloads, grids = self._plan
            if (task, workloads, prompt) == (tasks[0], planned_workloads, None):
                tasks.popleft()
                try:
                    _, grid = next(grids)
                    if not tasks:
                        self._plan = None
                        next(grids, None)  # let the pass finish
                except BaseException:
                    self._plan = None
                    raise
                return grid
        return self._evaluate_cells(self._cells((task,), workloads), prompt).get(task, {})

    def plan_tasks(
        self, tasks: Sequence[str], workloads: Optional[tuple[str, ...]] = None
    ) -> None:
        """Serve the next :meth:`run_task` calls from one scheduler pass.

        The calls must ask for ``tasks`` in order, each with
        ``workloads`` and no prompt.  Each returns as soon as its task's
        last cell commits, while the pass goes on building and
        evaluating the later tasks' cells (see :meth:`run_tasks`).  Any
        other evaluation, and :meth:`close`, ends the plan first.
        """
        self._end_plan()
        tasks = tuple(dict.fromkeys(tasks))
        if tasks:
            self._plan = (deque(tasks), workloads, self.run_tasks(tasks, workloads))

    def _end_plan(self) -> None:
        """Stop an unfinished plan's pass; its uncommitted work is dropped."""
        if self._plan is not None:
            grids = self._plan[2]
            self._plan = None
            grids.close()

    def run_tasks(
        self,
        tasks: Sequence[str],
        workloads: Optional[tuple[str, ...]] = None,
        prompt: Optional[PromptTemplate] = None,
    ) -> Iterator[tuple[str, dict[tuple[str, str], "CellResult"]]]:
        """Evaluate several tasks' grids in one scheduler pass.

        Cells run task-major, in the order :meth:`run_task` would run
        them one task at a time, and give the same results; one pass
        lets a later task's dataset build while earlier tasks are being
        evaluated.  Yields ``(task, grid)`` as each task's last cell
        commits.
        """
        return self._serve(self._cells(tasks, workloads), prompt)

    def _cells(
        self, tasks: Sequence[str], workloads: Optional[tuple[str, ...]]
    ) -> list[tuple[ModelProfile, str, str]]:
        """The grid of ``tasks`` in request order: task, model, workload."""
        return [
            (profile, task, workload_name)
            for task in dict.fromkeys(tasks)
            for profile in self.models
            for workload_name in (workloads or TASK_WORKLOADS[task])
        ]

    def _evaluate_cells(
        self,
        cells: Sequence[tuple[ModelProfile, str, str]],
        prompt: Optional[PromptTemplate],
    ) -> dict[str, dict[tuple[str, str], "CellResult"]]:
        """Serve cells through the scheduler: every task's grid."""
        self._end_plan()
        return dict(self._serve(cells, prompt))

    def _serve(
        self,
        cells: Sequence[tuple[ModelProfile, str, str]],
        prompt: Optional[PromptTemplate],
    ) -> Iterator[tuple[str, dict[tuple[str, str], "CellResult"]]]:
        """Serve cells through the scheduler, committing in request order.

        Yields ``(task, grid)`` once every cell of the task is committed
        or absorbed as failed (``on_cell_error=skip|degrade``; such
        cells are absent from the grid).
        """
        wanted = Counter(task for _, task, _ in cells)
        pending = deque(wanted)
        grids: dict[str, dict[tuple[str, str], "CellResult"]] = {}
        settled: Counter = Counter()

        def commit(cell: "_Cell") -> None:
            if cell.cached:
                self.cached_cells += 1
            else:
                self.computed_cells += 1
            grids.setdefault(cell.task, {})[(cell.profile.name, cell.workload)] = cell.result
            # Every served cell and its provenance, for the reporting layer.
            self.results[(cell.profile.name, cell.task, cell.workload)] = cell.result
            self.cell_log.append(
                CellLog(
                    model=cell.profile.name,
                    task=cell.task,
                    workload=cell.workload,
                    instances=cell.result.instance_count,
                    cached=cell.cached,
                    seconds=0.0 if cell.cached else round(cell.seconds, 6),
                    prompt=prompt_fingerprint(cell.task, prompt),
                )
            )
            self._journal_cell(cell.profile.name, cell.task, cell.workload, CELL_COMMITTED)
            if self.on_cell_commit is not None:
                self.on_cell_commit()
            settled[cell.task] += 1

        def failed(cell: "_Cell") -> None:
            if not self._is_cell_error(cell.error) or not self._absorb_cell_error(
                cell.profile.name, cell.task, cell.workload, cell.error
            ):
                raise cell.error
            settled[cell.task] += 1

        steps = self.streaming.evaluate(list(cells), prompt, commit, failed)
        for _ in chain(steps, [None]):
            while pending and settled[pending[0]] == wanted[pending[0]]:
                task = pending.popleft()
                yield task, grids.get(task, {})

    def _evaluate_serial(
        self,
        profile: ModelProfile,
        task: str,
        instances: Sequence,
        prompt: Optional[PromptTemplate],
        deadline: Optional[float] = None,
    ) -> list[ModelAnswer]:
        """Answer one chunk in-process: the twin of ``evaluate_shard``.

        The chunk's requests go through the async dispatcher as one
        batch (bounded concurrency, rate limiting, retries) instead of
        one blocking call at a time — with the simulated backend the
        answers are byte-identical either way, and with an HTTP backend
        the chunk's requests overlap on the wire.  The token bucket and
        the breaker's health carry over from chunk to chunk.
        """
        dispatcher = AsyncDispatcher(
            self.backend_for(profile.name),
            max_concurrency=self.config.max_concurrency,
            rps=self.config.rps,
            bucket_state=self._bucket_state,
            request_timeout=self.config.request_timeout,
            breaker=self._serial_breaker(),
        )
        responses = dispatcher.run_sync(
            [build_request(task, profile.name, instance, prompt) for instance in instances],
            deadline_seconds=deadline,
        )
        if self.config.rps is not None:
            self._bucket_state = dispatcher.bucket_state
        return answers_from_responses(task, instances, responses, profile.name)
