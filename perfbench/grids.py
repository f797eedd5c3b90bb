"""The grid workload, ``synthetic-stream``.

A run is a sequence of cycles, each in a fresh process
(:mod:`grid_cycle`): set-up, one cold pass from an empty cache, then
warm passes of the same request served from that cache.  Cycles repeat
until ``--seconds`` would be exceeded and every percentile has
:data:`measure.MIN_SAMPLES` samples.  Rates and set-up time are medians over the run's passes or
cycles, latencies percentiles over all its samples.

In a grid workload a job is one cell: the engine computes and commits
one cell at a time, and the service streams one progress event per
commit.  So ``job_*`` are the intervals up to each commit that computed
a cell in a cold pass.  A report is one task table rendered from the
cache, as the service's report endpoint does, so ``report_*`` are the
intervals up to each rendered report in a warm pass.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import layers
import spans
from measure import MIN_SAMPLES, Outcome, p50, p90

HERE = Path(__file__).resolve().parent

#: No cycle starts later than this many seconds into the run, whatever
#: the sample count, and none runs past RUN_LIMIT_S, so that a slow
#: machine or a hung program still ends the run within 180 s.
HARD_LIMIT_S = 110.0
RUN_LIMIT_S = 170.0
_STARTED = perf_counter()


def _run_cycle(seed, index, work: Path, trace_dir, outcome):
    cycle_dir = work / f"cycle-{index}"
    command = [
        sys.executable,
        str(HERE / "grid_cycle.py"),
        "--seed", str(seed),
        "--dir", str(cycle_dir),
    ]
    if trace_dir is not None:
        command += ["--trace-dir", str(trace_dir)]
    spawned = perf_counter()
    try:
        proc = subprocess.run(
            command,
            capture_output=True,
            text=True,
            timeout=max(1.0, RUN_LIMIT_S - (spawned - _STARTED)),
            cwd=Path.cwd(),
        )
    except subprocess.TimeoutExpired:
        outcome.check([f"cycle {index} timed out"])
        return None
    finally:
        shutil.rmtree(cycle_dir, ignore_errors=True)
    finished = perf_counter()
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-5:]
        outcome.check([f"cycle {index} exited {proc.returncode}: {tail}"])
        return None
    data = json.loads(proc.stdout.strip().splitlines()[-1])
    data["setup_s"] = data["ready"] - spawned
    data["wall"] = finished - spawned
    _check_cycle(data, outcome)
    return data


def _check_cycle(data, outcome: Outcome) -> None:
    """Each pass is one operation: it fails on any check below."""
    cold, warm = data["passes"][0], data["passes"][1:]
    outcome.check(cold["errors"])
    for number, later in enumerate(warm, 1):
        errors = list(later["errors"])
        if not errors and later["digest"] != cold["digest"]:
            errors.append(f"warm pass {number} digest differs from the cold pass")
        if not errors and later["computed"] != 0:
            errors.append(f"warm pass {number} computed {later['computed']} cells")
        if not errors and later["answers"] != cold["answers"]:
            errors.append(f"warm pass {number} has {later['answers']} answers")
        outcome.check(errors)


def _samples(cycles):
    cold = [c["passes"][0] for c in cycles if not c["passes"][0]["errors"]]
    warm = [p for c in cycles for p in c["passes"][1:] if not p["errors"]]
    jobs = [dt for p in cold for dt, computed in p["cell_intervals"] if computed]
    reports = [dt for p in warm for dt in p["report_intervals"]]
    return cold, warm, jobs, reports


def _cycles(seed, seconds, work, outcome, traced=False):
    """Run cycles until ``seconds`` would pass; returns (untraced, traced).

    Untraced, cycles also go on until every percentile has MIN_SAMPLES
    samples.  Traced, each step runs an untraced cycle and then a traced
    one, so that drift in machine speed hits both sides alike.
    """
    plain, cycles = [], []
    started = perf_counter()
    while True:
        elapsed = perf_counter() - started
        if elapsed > HARD_LIMIT_S:
            break
        if plain:
            _, _, jobs, reports = _samples(plain)
            short = not traced and min(len(jobs), len(reports)) < MIN_SAMPLES
            step = statistics.median(c["wall"] for c in plain + cycles)
            if elapsed + step * (2 if traced else 1) > seconds and not short:
                break
        index = len(plain)
        data = _run_cycle(seed, f"{index}", work, None, outcome)
        if data is None:
            break
        plain.append(data)
        if traced:
            trace_dir = work / f"trace-{index}"
            data = _run_cycle(seed, f"t{index}", work, trace_dir, outcome)
            if data is None:
                break
            cycles.append(data)
    return plain, cycles


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path):
    """Run the workload; returns ``(outcome, metrics, context)``."""
    outcome = Outcome()
    if not trace:
        cycles, _ = _cycles(seed, seconds, work, outcome)
        cold, warm, jobs, reports = _samples(cycles)
        if not cold or not warm:
            return outcome, None, {}
        metrics = {
            "setup_s": (p50([c["setup_s"] for c in cycles]), "s"),
            "cold_answers_per_s": (
                p50([p["answers"] / p["exec_s"] for p in cold]),
                "answers/s",
            ),
            "warm_answers_per_s": (
                p50([p["answers"] / p["exec_s"] for p in warm]),
                "answers/s",
            ),
            "jobs_per_s": (p50([p["computed"] / p["exec_s"] for p in cold]), "jobs/s"),
            "job_p50_s": (p50(jobs), "s"),
            "job_p90_s": (p90(jobs), "s"),
            "report_p50_s": (p50(reports), "s"),
            "report_p90_s": (p90(reports), "s"),
            "peak_rss_mb": (p50([c["peak_rss_mb"] for c in cycles]), "MB"),
        }
        samples = {"job": len(jobs), "report": len(reports)}
    else:
        # The difference in pass time between the traced cycles and the
        # untraced ones they alternate with is the tracing overhead.
        plain, cycles = _cycles(seed, seconds, work, outcome, traced=True)
        cold, warm, _, _ = _samples(cycles)
        if not cold or not warm or len(cycles) != len(plain):
            return outcome, None, {}
        trace_dirs = [work / f"trace-{index}" for index in range(len(cycles))]
        traced = [p for c in cycles for p in c["passes"]]
        untraced = [p for c in plain for p in c["passes"]]
        summaries = [s for d in trace_dirs for s in spans.load_summaries(d)]
        metrics = layers.layer_metrics(
            summaries, [p["window"] for p in traced], len(cycles)
        )
        metrics["cache.bytes"] = (p50([c["cache_bytes"] for c in cycles]), "bytes")
        for key in ("chunks", "redispatched"):
            total = sum(p["stream_stats"].get(key, 0) for p in traced)
            metrics[f"engine.{key}"] = (total / len(cycles), "count")
        metrics["server.queue_wait_p50_s"] = (p50([p["prepare_s"] for p in traced]), "s")
        metrics["server.exec_p50_s"] = (p50([p["exec_s"] for p in traced]), "s")
        metrics["server.dedup_hits"] = (0, "count")
        metrics["server.cells_computed"] = (
            sum(p["computed"] for p in traced) / len(cycles),
            "count",
        )
        metrics["server.cells_cached"] = (
            sum(p["cached"] for p in traced) / len(cycles),
            "count",
        )
        metrics["trace_overhead_share"] = (
            sum(p["exec_s"] for p in traced) / sum(p["exec_s"] for p in untraced)
            - 1.0,
            "ratio",
        )
        samples = {"traced_cycles": len(cycles), "untraced_cycles": len(plain)}
    context = {
        "cycles": len(cycles),
        "passes": {"cold": len(cold), "warm": len(warm)},
        "answers_per_pass": cold[0]["answers"],
        "cells_per_pass": cold[0]["cells"],
        "samples": samples,
    }
    return outcome, metrics, context
