#!/usr/bin/env python3
"""The repository benchmark: end-to-end metrics and a traced per-layer split.

Run from the root of a checkout::

    python3 perfbench/run.py --workload synthetic-stream --seed 1 --seconds 50 --trace 0

``--trace 0`` prints every end-to-end metric of BENCHMARK.json;
``--trace 1`` runs the same workload untraced and then traced, and
prints every per-layer metric.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it records the run's context.  The exit code is 0 when
every correctness check passed, 1 when one failed, and 2 when the
program under test is not there.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORKLOADS = ("synthetic-stream", "serve-loop")


def benchmark_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def commit() -> str | None:
    """The checkout's commit, when it is a git working tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text(encoding="utf-8").strip() if target.is_file() else None
    return ref


def main() -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program under {ROOT / 'src'}; run from a checkout root",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "serve-loop":
        import serve_loop as driver
    else:
        import grids as driver

    from measure import Outcome

    work = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        outcome, measured, context = driver.run(
            args.workload, args.seed, args.seconds, bool(args.trace), work
        )
    except Exception as error:  # noqa: BLE001 - reported as a failed run
        outcome, measured, context = Outcome(), None, {}
        outcome.check([f"{type(error).__name__}: {error}"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    from repro.engine.cache import source_fingerprint

    wanted = benchmark_metrics(bool(args.trace))
    correct = outcome.failed == 0 and measured is not None
    if measured is not None and {k: u for k, (_, u) in measured.items()} != wanted:
        correct = False
        outcome.errors.append("measured metrics or units do not match BENCHMARK.json")
    context.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "commit": commit(),
            "source_fingerprint": source_fingerprint(),
            "failed_share": outcome.failed / max(1, outcome.attempted),
            "errors": outcome.errors[:10],
        }
    )
    print(json.dumps({"context": context}, sort_keys=True))
    if not correct:
        print("perfbench: correctness checks failed", file=sys.stderr)
    metrics = {
        name: {"value": measured[name][0], "unit": wanted[name]}
        for name in wanted
        if measured is not None and name in measured
    }
    result = {
        "correct": correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
