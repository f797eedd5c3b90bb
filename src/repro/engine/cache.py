"""Content-addressed on-disk cache for cells, datasets and workloads.

Three namespaces under one cache root:

* ``cells/`` — each (model, task, workload) cell's answers, under a key
  that hashes everything the answers depend on: the generation seed,
  the model profile fingerprint, the task, the workload,
  ``max_instances``, the prompt template, and a cache format version;
* ``datasets/`` — each built dataset's instances, under a key hashing
  (task, workload, seed, max_instances).  Dataset construction
  (parsing, corruption injection, pair generation) dominates a cold
  grid run, so warm runs load instead of rebuilding, and workers
  materialize chunk instances from here, which is what lets a chunk
  name a dataset slice instead of carrying pickled instances;
* ``workloads/`` — each workload's queries, under a key hashing
  (workload, seed): segments of pickled queries (text and measured
  properties; the parsed tree is derived again from the text), the
  schema catalog (``schemas.pkl``) and a manifest.  A chunked run
  stores the workload it generates here, so its other tasks read the
  queries instead of generating them again; workers that must *build*
  a dataset load the workload instead of regenerating it per process.

Every entry is *segmented*: a directory of segments plus a manifest
written last, which is the entry's commit point (see the
segmented-entries section below).  :meth:`ResultCache.get` /
:meth:`~ResultCache.put`, :meth:`~ResultCache.get_dataset` /
:meth:`~ResultCache.put_dataset` and :meth:`~ResultCache.get_workload` /
:meth:`~ResultCache.put_workload` read and write a whole entry at once.

Change any input and the key changes, so stale entries are never served
— they are simply never looked up again.  Writes go through a
per-process temp file and an atomic rename, so a cache directory is safe
to share between concurrent processes.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pickle
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

from repro.llm.backends.base import SIMULATED_SPEC, BackendSpec
from repro.llm.profiles import ModelProfile
from repro.prompts.templates import PromptTemplate, prompt_for
from repro.tasks.base import ModelAnswer, TaskDataset

#: Bump when the serialized answer format changes; old entries miss.
CACHE_VERSION = 1

#: The file of a workload entry holding its schema catalog.
_SCHEMAS = "schemas.pkl"

#: What reading a damaged JSON or pickle entry can raise.
_UNREADABLE = (
    OSError,
    ValueError,
    KeyError,
    TypeError,
    pickle.UnpicklingError,
    EOFError,
    AttributeError,
    ImportError,
    IndexError,
)


def _read_bytes(path: str) -> bytes:
    """A whole cache file, read with as few system calls as possible.

    Warm runs read two small files per entry (manifest and segment).
    Each system call releases the interpreter lock, which a busy sibling
    thread (a service running jobs while it renders reports) may then
    hold for a whole switch interval, so buffered ``open().read()``
    with its extra ``lseek``/``isatty`` calls costs real latency there.
    Entries are replaced by rename, never rewritten in place, so the
    size an open file reports is the size it keeps.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        return os.read(fd, os.fstat(fd).st_size)
    finally:
        os.close(fd)


class CacheSegmentError(Exception):
    """A segmented cache entry is unreadable or inconsistent mid-stream.

    Raised by the segment iterators (not the whole-entry getters, which
    translate problems into misses) because a streamed read may already
    have handed out earlier segments when the problem surfaces; the
    engine catches this and falls back to a clean recompute.
    """


@functools.lru_cache(maxsize=1)
def source_fingerprint() -> str:
    """Hash of the whole ``repro`` package source, computed once.

    Folded into every cache key so that *code* changes — a tweaked
    penalty curve, a new corruption type — invalidate cached results
    just like input changes do.  Without this, a default-on cache would
    silently serve numbers produced by old code.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(b"\x00")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def prompt_fingerprint(task: str, prompt: Optional[PromptTemplate]) -> str:
    """Stable hash of the prompt template a cell is evaluated with.

    ``None`` resolves to the task's tuned default first, so an explicit
    ``prompt=TUNED_PROMPTS[task]`` and the default share one cache entry.
    """
    template = prompt or prompt_for(task)
    payload = json.dumps(
        {
            "task": template.task,
            "name": template.name,
            "text": template.text,
            "quality": template.quality,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def rewrite_fingerprint(task: str, workload: str) -> str:
    """Rewrite-catalog fingerprint for a cell, "" for non-rewrite cells.

    Rewrite-task answers depend on the transform catalog (which families
    exist, what each one does) and on the workload's family restriction;
    folding the catalog fingerprint into the key gives rewrite cells an
    explicit provenance line instead of leaning on the whole-source
    hash alone — the same fingerprint lands in the RunRecord.
    """
    from repro.tasks.base import REWRITE_TASKS

    if task not in REWRITE_TASKS:
        return ""
    from repro.rewrite.catalog import catalog_fingerprint
    from repro.workloads.synthetic import rewrite_families_of

    try:
        families = rewrite_families_of(workload) or None
    except ValueError:
        families = None
    return catalog_fingerprint(families)


def cell_key(
    seed: int,
    profile: ModelProfile,
    task: str,
    workload: str,
    max_instances: Optional[int],
    prompt: Optional[PromptTemplate],
    backend: Optional[BackendSpec] = None,
    backend_state: str = "",
) -> str:
    """Content address of one evaluated cell.

    ``backend`` (None means the default in-process simulator) folds the
    backend identity — registry name plus every option, including the
    endpoint URL — into the key, so answers obtained from one backend
    can never be served to a run using another backend or another
    endpoint of the same backend.  ``backend_state`` additionally folds
    mutable external state feeding the backend's answers (the replay
    backend's fixture-content hash), so editing that state invalidates
    cells cached against the old responses.
    """
    spec = backend if backend is not None else SIMULATED_SPEC
    payload = json.dumps(
        {
            "version": CACHE_VERSION,
            "source": source_fingerprint(),
            "seed": seed,
            "profile": profile.fingerprint(),
            "task": task,
            "workload": workload,
            "max_instances": max_instances,
            "prompt": prompt_fingerprint(task, prompt),
            "backend": spec.fingerprint(),
            "backend_state": backend_state,
            "rewrite_catalog": rewrite_fingerprint(task, workload),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def dataset_key(
    task: str, workload: str, seed: int, max_instances: Optional[int]
) -> str:
    """Content address of one built dataset (model/prompt independent)."""
    payload = json.dumps(
        {
            "version": CACHE_VERSION,
            "kind": "dataset",
            "source": source_fingerprint(),
            "task": task,
            "workload": workload,
            "seed": seed,
            "max_instances": max_instances,
            "rewrite_catalog": rewrite_fingerprint(task, workload),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def workload_key(workload: str, seed: int) -> str:
    """Content address of one workload's queries (task independent).

    Query generation costs a sizable fraction of a cold run; storing a
    workload once lets every later reader (the other tasks of a chunked
    run, worker processes building datasets) load it instead.
    """
    payload = json.dumps(
        {
            "version": CACHE_VERSION,
            "kind": "workload",
            "source": source_fingerprint(),
            "workload": workload,
            "seed": seed,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def answer_to_dict(answer: ModelAnswer) -> dict:
    return {
        "instance_id": answer.instance_id,
        "model": answer.model,
        "response_text": answer.response_text,
        "predicted": answer.predicted,
        "predicted_type": answer.predicted_type,
        "predicted_position": answer.predicted_position,
        "explanation": answer.explanation,
        "flaws": list(answer.flaws),
    }


def answer_from_dict(data: dict) -> ModelAnswer:
    return ModelAnswer(
        instance_id=data["instance_id"],
        model=data["model"],
        response_text=data["response_text"],
        predicted=data["predicted"],
        predicted_type=data["predicted_type"],
        predicted_position=data["predicted_position"],
        explanation=data.get("explanation", ""),
        flaws=tuple(data.get("flaws", ())),
    )


@dataclass
class CacheStats:
    """Hit/miss counters for one engine lifetime."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    dataset_hits: int = 0
    dataset_misses: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


@dataclass
class ResultCache:
    """On-disk cell, dataset and workload cache rooted at ``root``."""

    root: Path
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    def get(
        self, key: str, expected_ids: Optional[Sequence[str]] = None
    ) -> Optional[list[ModelAnswer]]:
        """Cached answers for ``key``, or None on miss.

        Absent, unreadable or version-mismatched entries count as
        misses, as do entries whose answers do not align id-for-id with
        ``expected_ids`` — the cache is an optimisation, never a source
        of errors or misaligned metrics.
        """
        try:
            answers = [a for chunk in self.iter_cell_segments(key) for a in chunk]
        except CacheSegmentError:
            answers = None
        if answers is None or (
            expected_ids is not None
            and [answer.instance_id for answer in answers] != list(expected_ids)
        ):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return answers

    def put(
        self, key: str, answers: list[ModelAnswer], meta: Optional[dict] = None
    ) -> Path:
        """Store a cell's answers as one segment; returns the manifest path."""
        self.put_cell_segment(key, 0, answers)
        return self.commit_cell_segments(key, len(answers), [len(answers)], meta)

    # -- datasets ----------------------------------------------------------

    def get_dataset(self, key: str) -> Optional[TaskDataset]:
        """Cached dataset for ``key``, or None (corrupt entries miss)."""
        manifest = self.get_dataset_manifest(key)
        meta = manifest.get("meta", {}) if manifest is not None else {}
        dataset: Optional[TaskDataset] = None
        if meta.get("task") and meta.get("workload"):
            dataset = TaskDataset(task=meta["task"], workload=meta["workload"])
            try:
                for segment in self.iter_dataset_segments(key, manifest):
                    dataset.instances.extend(segment)
            except CacheSegmentError:
                dataset = None
        if dataset is None:
            self.stats.dataset_misses += 1
            return None
        self.stats.dataset_hits += 1
        return dataset

    def put_dataset(self, key: str, dataset: TaskDataset) -> Path:
        """Store a built dataset as one segment; returns the manifest path."""
        count = len(dataset.instances)
        self.put_dataset_segment(key, 0, dataset.instances)
        return self.commit_dataset_segments(
            key,
            count,
            [count],
            meta={"task": dataset.task, "workload": dataset.workload},
        )

    # -- workloads ---------------------------------------------------------

    def get_workload(self, key: str):
        """Cached workload for ``key``, or None (corrupt entries miss)."""
        from repro.workloads.base import Workload

        manifest = self.get_workload_manifest(key)
        if manifest is None:
            return None
        workload = Workload(name=manifest["meta"]["workload"], schemas=manifest["schemas"])
        try:
            for segment in self.iter_workload_segments(key, manifest):
                workload.queries.extend(segment)
        except CacheSegmentError:
            return None
        return workload

    def put_workload(self, key: str, workload) -> Path:
        """Store a loaded workload as one segment; returns the manifest path."""
        count = len(workload.queries)
        self.put_workload_segment(key, 0, workload.queries)
        return self.commit_workload_segments(
            key, count, [count], workload.name, workload.schemas
        )

    # -- segmented entries -------------------------------------------------
    #
    # Every cell, dataset and workload entry: one directory per key
    # holding segments plus a manifest.  The manifest is written LAST
    # (after every segment landed via temp+rename), so it doubles as the
    # commit record — a crash mid-run leaves segments without a
    # manifest, which readers treat as "entry absent".  No partial entry
    # is ever visible.

    def _dataset_segment_dir(self, key: str) -> Path:
        return self.root.joinpath("datasets", key)

    def _cell_segment_dir(self, key: str) -> Path:
        return self.root.joinpath("cells", key[:2], key)

    def _workload_segment_dir(self, key: str) -> Path:
        return self.root.joinpath("workloads", key)

    @staticmethod
    def _segment_name(index: int, suffix: str) -> str:
        return f"seg-{index:05d}{suffix}"

    def _write_atomic_bytes(self, path: Path, data: bytes) -> Path:
        temporary = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        try:
            temporary.write_bytes(data)
        except FileNotFoundError:
            # First file of its entry: create the directory only then,
            # not with a mkdir call before every segment and manifest.
            path.parent.mkdir(parents=True, exist_ok=True)
            temporary.write_bytes(data)
        temporary.replace(path)
        return path

    def _iter_segments(
        self, directory: Path, kind: str, suffix: str, load, manifest=None
    ):
        """Yield a committed entry's segments in order (see the iterators)."""
        manifest = manifest or self._read_manifest(directory, kind)
        if manifest is None:
            raise CacheSegmentError(f"no committed {kind} in {directory}")
        for index, count in enumerate(manifest["counts"], manifest.get("first", 0)):
            path = os.path.join(directory, self._segment_name(index, suffix))
            try:
                items = load(path)
                if not isinstance(items, list) or len(items) != count:
                    raise ValueError("segment length mismatch")
            except _UNREADABLE as error:
                raise CacheSegmentError(f"{path} unreadable: {error}") from error
            yield items

    def _read_manifest(self, directory: Path, kind: str) -> Optional[dict]:
        try:
            manifest = json.loads(_read_bytes(os.path.join(directory, "manifest.json")))
            if manifest.get("version") != CACHE_VERSION:
                raise ValueError("segment manifest version mismatch")
            if manifest.get("kind") != kind:
                raise ValueError("segment manifest kind mismatch")
            counts = manifest["counts"]
            if not isinstance(counts, list) or manifest["total"] != sum(counts):
                raise ValueError("segment manifest counts inconsistent")
        except (OSError, ValueError, KeyError, TypeError):
            return None
        return manifest

    def _commit_manifest(
        self,
        directory: Path,
        kind: str,
        chunk_size: int,
        counts: Sequence[int],
        meta: Optional[dict],
    ) -> Path:
        manifest = {
            "version": CACHE_VERSION,
            "kind": kind,
            "chunk_size": chunk_size,
            "counts": list(counts),
            "total": sum(counts),
            "meta": meta or {},
        }
        return self._write_atomic_bytes(
            directory / "manifest.json", json.dumps(manifest).encode("utf-8")
        )

    def put_dataset_segment(self, key: str, index: int, instances: list) -> Path:
        """Store one dataset segment (a list of TaskInstance) atomically."""
        path = self._dataset_segment_dir(key) / self._segment_name(index, ".pkl")
        return self._write_atomic_bytes(
            path, pickle.dumps(instances, protocol=pickle.HIGHEST_PROTOCOL)
        )

    def commit_dataset_segments(
        self,
        key: str,
        chunk_size: int,
        counts: Sequence[int],
        meta: Optional[dict] = None,
    ) -> Path:
        """Write the dataset manifest — the commit point for the entry."""
        return self._commit_manifest(
            self._dataset_segment_dir(key),
            "dataset-segments",
            chunk_size,
            counts,
            meta,
        )

    def get_dataset_manifest(self, key: str) -> Optional[dict]:
        """The committed dataset-segment manifest, or None."""
        return self._read_manifest(
            self._dataset_segment_dir(key), "dataset-segments"
        )

    def iter_dataset_segments(self, key: str, manifest: Optional[dict] = None):
        """Yield committed dataset segments in order.

        ``manifest`` saves re-reading one the caller already holds.  It
        may also be partial, ``{"first": i, "counts": [...]}``: the
        segments from ``i`` on that a build still writing the entry has
        announced.  Raises :class:`CacheSegmentError` when a segment is missing,
        truncated, or the wrong length — callers recompute from scratch.
        """
        return self._iter_segments(
            self._dataset_segment_dir(key),
            "dataset-segments",
            ".pkl",
            lambda path: pickle.loads(_read_bytes(path)),
            manifest,
        )

    def put_workload_segment(self, key: str, index: int, queries: list) -> Path:
        """Store one workload segment (a list of WorkloadQuery) atomically.

        Queries are stored without their parsed tree: every builder
        emits the parser's normal form, so ``query.statement`` derives
        an equal tree from the text (through the process-wide parse
        memo), which costs less than pickling and unpickling the tree.
        """
        path = self._workload_segment_dir(key) / self._segment_name(index, ".pkl")
        queries = [replace(query, _statement=None) for query in queries]
        return self._write_atomic_bytes(
            path, pickle.dumps(queries, protocol=pickle.HIGHEST_PROTOCOL)
        )

    def commit_workload_segments(
        self,
        key: str,
        chunk_size: int,
        counts: Sequence[int],
        name: str,
        schemas: dict,
    ) -> Path:
        """Write the schemas, then the manifest — the commit point."""
        directory = self._workload_segment_dir(key)
        self._write_atomic_bytes(
            directory / _SCHEMAS,
            pickle.dumps(schemas, protocol=pickle.HIGHEST_PROTOCOL),
        )
        return self._commit_manifest(
            directory, "workload-segments", chunk_size, counts, {"workload": name}
        )

    def get_workload_manifest(self, key: str) -> Optional[dict]:
        """The committed workload manifest with its ``schemas``, or None."""
        directory = self._workload_segment_dir(key)
        manifest = self._read_manifest(directory, "workload-segments")
        if manifest is None:
            return None
        try:
            manifest["schemas"] = pickle.loads(
                _read_bytes(os.path.join(directory, _SCHEMAS))
            )
            if not isinstance(manifest["schemas"], dict):
                raise ValueError("schemas are not a dict")
        except _UNREADABLE:
            return None
        return manifest

    def iter_workload_segments(self, key: str, manifest: Optional[dict] = None):
        """Yield committed workload segments (query lists) in order.

        Raises :class:`CacheSegmentError` like the other iterators.
        """
        return self._iter_segments(
            self._workload_segment_dir(key),
            "workload-segments",
            ".pkl",
            lambda path: pickle.loads(_read_bytes(path)),
            manifest,
        )

    def put_cell_segment(
        self, key: str, index: int, answers: list[ModelAnswer]
    ) -> Path:
        """Store one cell segment (a list of answers) atomically."""
        path = self._cell_segment_dir(key) / self._segment_name(index, ".json")
        payload = json.dumps([answer_to_dict(answer) for answer in answers])
        return self._write_atomic_bytes(path, payload.encode("utf-8"))

    def commit_cell_segments(
        self,
        key: str,
        chunk_size: int,
        counts: Sequence[int],
        meta: Optional[dict] = None,
    ) -> Path:
        """Write the cell manifest — the commit point for the entry."""
        self.stats.writes += 1
        return self._commit_manifest(
            self._cell_segment_dir(key), "cell-segments", chunk_size, counts, meta
        )

    def get_cell_manifest(self, key: str) -> Optional[dict]:
        """The committed cell-segment manifest, or None."""
        return self._read_manifest(self._cell_segment_dir(key), "cell-segments")

    def iter_cell_segments(self, key: str):
        """Yield committed cell answer segments in order.

        Raises :class:`CacheSegmentError` when a segment is missing,
        truncated, or the wrong length — callers recompute from scratch.
        """
        return self._iter_segments(
            self._cell_segment_dir(key),
            "cell-segments",
            ".json",
            lambda path: [answer_from_dict(a) for a in json.loads(_read_bytes(path))],
        )

    def discard_segments(self, key: str) -> None:
        """Drop any (possibly uncommitted) segment files for ``key``.

        Used by failed cells so orphaned segments don't linger;
        removing the manifest first keeps the entry invisible throughout.
        """
        for directory in (
            self._cell_segment_dir(key),
            self._dataset_segment_dir(key),
            self._workload_segment_dir(key),
        ):
            if not directory.is_dir():
                continue
            (directory / "manifest.json").unlink(missing_ok=True)
            for path in sorted(directory.glob("seg-*")):
                path.unlink(missing_ok=True)
            (directory / _SCHEMAS).unlink(missing_ok=True)
            try:
                directory.rmdir()
            except OSError:
                pass

    # -- maintenance -------------------------------------------------------

    def entries(self) -> list[Path]:
        """The manifest of every committed cell entry."""
        return sorted(self.root.glob("cells/*/*/manifest.json"))

    def dataset_entries(self) -> list[Path]:
        """The manifest of every committed dataset entry."""
        return sorted(self.root.glob("datasets/*/manifest.json"))

    def workload_entries(self) -> list[Path]:
        """The manifest of every committed workload entry."""
        return sorted(self.root.glob("workloads/*/manifest.json"))

    def segment_entries(self) -> list[Path]:
        """Every segment file, schema file and manifest in all namespaces."""
        return sorted(
            [
                *self.root.glob("datasets/*/seg-*.pkl"),
                *self.root.glob("datasets/*/manifest.json"),
                *self.root.glob("cells/*/*/seg-*.json"),
                *self.root.glob("cells/*/*/manifest.json"),
                *self.root.glob("workloads/*/seg-*.pkl"),
                *self.root.glob(f"workloads/*/{_SCHEMAS}"),
                *self.root.glob("workloads/*/manifest.json"),
            ]
        )

    def size_bytes(self) -> int:
        return sum(path.stat().st_size for path in self.segment_entries())

    def clear(self) -> int:
        """Delete every cell, dataset and workload entry; returns how many.

        Also sweeps segments of uncommitted entries and ``*.tmp.*`` files
        orphaned by interrupted atomic writes (they are invisible to
        ``entries()`` and would otherwise accumulate forever).
        """
        removed = (
            len(self.entries())
            + len(self.dataset_entries())
            + len(self.workload_entries())
        )
        for path in self.segment_entries():
            path.unlink(missing_ok=True)
        for orphan in self.root.glob("**/*.tmp.*"):
            if orphan.is_file():
                orphan.unlink(missing_ok=True)
        for bucket in sorted(self.root.glob("**/*"), reverse=True):
            if bucket.is_dir() and not any(bucket.iterdir()):
                bucket.rmdir()
        return removed
