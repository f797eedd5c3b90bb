"""One measured cycle of the synthetic-stream grid, in a fresh process.

A fresh process is what makes the cold pass cold: no analysis memo,
no loaded workload, an empty cache directory, exactly as a new
``repro run`` sees them.  The cycle imports the program (its set-up),
runs one cold pass and :data:`WARM_PASSES` warm passes of the same
request through ``repro.execution``, and prints one JSON line of
timings, digests and check results for ``run.py`` to aggregate.

    python3 perfbench/grid_cycle.py --seed 0 --dir .perfbench/cycle \\
        [--trace-dir DIR]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

from measure import cells

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

SYNTHETIC_SPEC = "synthetic:default:n=40"
#: The default profile's 12 strata of n=40 queries each.  Every task
#: builds one instance per query from them, so each of the grid's
#: 5 tasks x 5 models cells answers exactly this many, 12,000 a pass.
SYNTHETIC_QUERIES = 12 * 40
GRID_CELLS = 5 * 5
#: Four chunks per synthetic cell.
SYNTHETIC_CHUNK = 120
#: Warm passes per cycle.  A warm pass is short (about 0.3 s against a
#: 3.5 s cold pass), so each cycle repeats it.
WARM_PASSES = 4


def build_request(seed: int, root: Path):
    """``repro run --workload SPEC --workers 2 --chunk-size 120``, all tasks."""
    from repro.execution import RunRequest

    return RunRequest(
        workload=SYNTHETIC_SPEC,
        seed=seed,
        workers=2,
        chunk_size=SYNTHETIC_CHUNK,
        cache_dir=root / "cache",
        runs_dir=root / "runs",
    )


def digest(record: dict, texts: list[str]) -> str:
    """Hash of every cell's metrics plus the report text of the run."""
    payload = json.dumps([cells(record), texts], sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def cell_errors(record: dict) -> list[str]:
    """Cells missing from the grid or answering other than one instance
    per query, against sizes fixed here rather than taken from the run."""
    errors = [
        f"{cell['model']} x {cell['task']}: {cell['instances']} answers"
        f" for {SYNTHETIC_QUERIES} queries"
        for cell in record["cells"]
        if cell["instances"] != SYNTHETIC_QUERIES
    ]
    if len(record["cells"]) != GRID_CELLS:
        errors.append(f"{len(record['cells'])} cells, not {GRID_CELLS}")
    return errors


def run_pass(request, root: Path) -> dict:
    """One ``repro run``: prepare, journal, execute; then check it."""
    from repro import execution
    from repro.lifecycle import RunJournal

    texts: list[str] = []
    rendered: list[float] = []
    commits: list[tuple[float, bool]] = []
    seen = {"computed": 0}

    def emit(text: str) -> None:
        # Each report is emitted as a title line, right after it was
        # rendered, then its text.
        if text.startswith("\n=== "):
            rendered.append(perf_counter())
        texts.append(text)

    def on_commit(engine) -> None:
        commits.append((perf_counter(), engine.computed_cells != seen["computed"]))
        seen["computed"] = engine.computed_cells

    requested = perf_counter()
    prepared = execution.prepare_run(request)
    journal = execution.begin_journal(prepared, request.runs_dir)
    started = perf_counter()
    outcome = execution.execute_prepared(
        prepared,
        journal,
        emit=emit,
        info=lambda message: None,
        on_cell_commit=on_commit,
    )
    ended = perf_counter()

    errors = []
    if outcome.status != "completed":
        errors.append(f"run {outcome.status}: {outcome.message}")
        return {"errors": errors, "window": [started, ended]}
    record = json.loads(Path(outcome.record_path).read_text(encoding="utf-8"))
    states = RunJournal.load(request.runs_dir, outcome.run_id).states()
    if states != {"committed": len(record["cells"])}:
        errors.append(f"journal states {states} for {len(record['cells'])} cells")
    errors.extend(cell_errors(record))
    if len(rendered) != len(outcome.reports):
        errors.append(f"{len(rendered)} report titles for {len(outcome.reports)} reports")
    marks = [started] + [when for when, _ in commits]
    cells = [
        (marks[i + 1] - marks[i], computed)
        for i, (_, computed) in enumerate(commits)
    ]
    marks = [started] + rendered
    return {
        "errors": errors,
        "window": [started, ended],
        "prepare_s": started - requested,
        "exec_s": ended - started,
        "answers": sum(cell["instances"] for cell in record["cells"]),
        "cells": len(record["cells"]),
        "computed": outcome.computed_cells,
        "cached": outcome.cached_cells,
        "cell_intervals": cells,
        "report_intervals": [b - a for a, b in zip(marks, marks[1:])],
        "digest": digest(record, texts),
        "stream_stats": record.get("stream_stats") or {},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--trace-dir", type=Path, default=None)
    args = parser.parse_args()

    import layers
    from repro import execution

    for name in layers.MODULES:
        __import__(name)
    request = build_request(args.seed, args.dir)
    execution.prepare_run(request)
    tracer = None
    if args.trace_dir is not None:
        from spans import Tracer

        tracer = Tracer(args.trace_dir)
        layers.install(tracer)
    args.dir.mkdir(parents=True)
    ready = perf_counter()

    passes = [run_pass(request, args.dir)]
    for _ in range(WARM_PASSES):
        passes.append(run_pass(request, args.dir))

    from repro.engine.cache import ResultCache

    cache_bytes = ResultCache(request.cache_dir).size_bytes()
    if tracer is not None:
        tracer.dump()
    rss_kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    print(
        json.dumps(
            {
                "ready": ready,
                "passes": passes,
                "cache_bytes": cache_bytes,
                "peak_rss_mb": rss_kb / 1024,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
