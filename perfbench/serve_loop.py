"""The ``serve-loop`` workload: many tiny jobs against ``repro serve``.

The server runs as a subprocess (:mod:`serve_launcher`) with one job
slot.  Two client threads each run a closed loop, because service
clients wait for their reply: submit a small grid, follow its SSE event
stream to the ``end`` event, then ``GET`` its report.  Most submissions
carry a fresh seed and are computed; a seeded share repeats a grid the
client already finished and must come back deduplicated.

Job latency is taken from the SSE ``end`` event as it arrives, not from
``ServiceClient.wait``, whose 0.1 s polling would quantise it.
"""

from __future__ import annotations

import json
import random
import resource
import signal
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter, sleep

import layers
import spans
from measure import MIN_SAMPLES, Outcome, cells, p50, p90

HERE = Path(__file__).resolve().parent

CLIENTS = 2
#: The per-job grid.  n=12 (not larger) keeps a job small enough that a
#: run completes MIN_SAMPLES fresh jobs within its time budget.
TASKS = ("syntax_error", "miss_token")
WORKLOAD = "synthetic:setops:n=12"
#: Share of submissions that repeat a finished grid (dedup path).
REPEAT_SHARE = 0.1
#: Server start-ups per untraced run; setup_s is their median.  Half
#: come before the loop and half after it, so that the median spans the
#: run as the other metrics do, not only its first seconds.
SETUP_SAMPLES = 9
#: The loop stops this many seconds into the run, whatever the count.
HARD_LIMIT_S = 110.0


def start_server(work: Path, tag: str, trace_dir=None):
    """Start a server; returns ``(process, url, seconds until healthy)``."""
    from repro.server import ServiceClient

    state = work / tag
    state.mkdir(parents=True)
    log = state / "server.log"
    started = perf_counter()
    with log.open("w") as handle:
        proc = subprocess.Popen(
            [
                sys.executable,
                str(HERE / "serve_launcher.py"),
                str(trace_dir) if trace_dir is not None else "-",
                "serve",
                "--port", "0",
                "--max-concurrent-jobs", "1",
                "--jobs-dir", str(state / "jobs"),
                "--runs-dir", str(state / "runs"),
                "--cache-dir", str(state / "cache"),
                "--reports-dir", str(state / "reports"),
            ],
            stdout=subprocess.DEVNULL,
            stderr=handle,
            cwd=Path.cwd(),
        )
    marker = "[serve] listening on "
    while True:
        text = log.read_text()
        if marker in text:
            url = text.split(marker, 1)[1].split()[0]
            break
        if proc.poll() is not None or perf_counter() - started > 60:
            stop_server(proc)
            raise RuntimeError(f"server did not start: {text.strip()[-300:]}")
        sleep(0.002)
    ServiceClient(url).health()
    return proc, url, perf_counter() - started


def stop_server(proc) -> None:
    """Drain the server with SIGTERM and wait for it to exit."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


class Loop:
    """Closed-loop clients against one server; collects per-job samples."""

    def __init__(self, url: str, seed: int, tag: str, outcome: Outcome) -> None:
        self.url = url
        self.seed = seed
        self.tag = tag
        self.outcome = outcome
        self.lock = threading.Lock()
        self.stop = threading.Event()
        self.fresh: list[dict] = []
        self.repeats = 0

    def grid(self, client: int, number: int) -> dict:
        job_seed = (self.seed * 1000 + client) * 100_000 + number
        return {"artifacts": list(TASKS), "workload": WORKLOAD, "seed": job_seed}

    def client(self, client: int) -> None:
        from repro.server import ServiceClient

        service = ServiceClient(self.url, client_id=f"perfbench-{client}", timeout=60)
        rng = random.Random(f"{self.seed}/{self.tag}/{client}")
        finished: list[tuple[dict, str]] = []
        number = 0
        while not self.stop.is_set():
            if finished and rng.random() < REPEAT_SHARE:
                payload, job_id = rng.choice(finished)
                try:
                    errors = self.repeat(service, payload, job_id)
                except Exception as error:  # noqa: BLE001 - counted as failed
                    errors = [f"repeat submission: {type(error).__name__}: {error}"]
                with self.lock:
                    self.repeats += 1
                    self.outcome.check(errors)
                continue
            payload = self.grid(client, number)
            number += 1
            try:
                sample, errors = self.fresh_job(service, payload)
            except Exception as error:  # noqa: BLE001 - counted as failed
                sample, errors = None, [f"job: {type(error).__name__}: {error}"]
            with self.lock:
                if self.outcome.check(errors):
                    self.fresh.append(sample)
            if not errors:
                finished.append((payload, sample["job_id"]))

    def repeat(self, service, payload: dict, job_id: str) -> list[str]:
        job = service.submit(payload)
        if not job.get("deduped") or job["job_id"] != job_id:
            return [f"repeat of {job_id} was not deduplicated: {job['job_id']}"]
        if job["state"] != "done":
            return [f"repeat of {job_id} attached to a {job['state']} job"]
        return []

    def fresh_job(self, service, payload: dict):
        submitted = perf_counter()
        job = service.submit(payload)
        job_id = job["job_id"]
        if job.get("deduped"):
            return None, [f"fresh grid {payload['seed']} was deduplicated"]
        started = ended = None
        state = None
        for event in service.events(job_id):
            if event["event"] == "started" and started is None:
                started = perf_counter()
            elif event["event"] == "end":
                ended = perf_counter()
                state = event["data"]["state"]
        if state != "done" or started is None:
            return None, [f"job {job_id} ended {state}"]
        report = service.report(job_id)
        reported = perf_counter()

        errors = []
        detail = service.job(job_id)
        record = json.loads(Path(detail["record_path"]).read_text(encoding="utf-8"))
        bundle = json.loads(Path(report["paths"]["json"]).read_text(encoding="utf-8"))
        if cells(bundle["record"]) != cells(record):
            errors.append(f"report of {job_id} differs from its run record")
        if report["computed_cells"] != 0:
            errors.append(f"report of {job_id} recomputed {report['computed_cells']} cells")
        answers = sum(cell["instances"] for cell in record["cells"])
        return {
            "job_id": job_id,
            "submitted": submitted,
            "started": started,
            "ended": ended,
            "report_s": reported - ended,
            "answers": answers,
            "stream_stats": record.get("stream_stats") or {},
        }, errors

    def run(self, seconds: float, min_jobs: int) -> float:
        """Drive the clients; returns the loop's wall time."""
        threads = [
            threading.Thread(target=self.client, args=(k,)) for k in range(CLIENTS)
        ]
        started = perf_counter()
        for thread in threads:
            thread.start()
        while True:
            sleep(0.05)
            elapsed = perf_counter() - started
            with self.lock:
                done = len(self.fresh)
                failed = self.outcome.failed
            if failed or elapsed > HARD_LIMIT_S:
                break
            if elapsed >= seconds and done >= min_jobs:
                break
        self.stop.set()
        for thread in threads:
            thread.join()
        return perf_counter() - started


def _phase(work, seed, tag, seconds, min_jobs, outcome, trace_dir=None):
    from repro.server import ServiceClient

    proc, url, setup = start_server(work, tag, trace_dir)
    try:
        loop = Loop(url, seed, tag, outcome)
        wall = loop.run(seconds, min_jobs)
        stats = ServiceClient(url).health()["stats"]
        if stats["dedup_hits"] != loop.repeats:
            outcome.check([f"{loop.repeats} repeats but {stats['dedup_hits']} dedup hits"])
    finally:
        stop_server(proc)
    return loop, wall, setup, stats


def _setup_time(work: Path, number: int) -> float:
    """Start a server until it is healthy, stop it; returns the start time."""
    proc, _, setup = start_server(work, f"setup-{number}")
    stop_server(proc)
    return setup


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path):
    """Run serve-loop; returns ``(outcome, metrics, context)``."""
    outcome = Outcome()
    if not trace:
        before = SETUP_SAMPLES // 2
        setups = [_setup_time(work, number) for number in range(before)]
        loop, wall, setup, stats = _phase(work, seed, "loop", seconds, MIN_SAMPLES, outcome)
        setups.append(setup)
        setups += [_setup_time(work, number) for number in range(before, SETUP_SAMPLES - 1)]
        fresh = loop.fresh
        if not fresh:
            return outcome, None, {}
        jobs = [s["ended"] - s["submitted"] for s in fresh]
        reports = [s["report_s"] for s in fresh]
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = {
            "setup_s": (p50(setups), "s"),
            "cold_answers_per_s": (sum(s["answers"] for s in fresh) / wall, "answers/s"),
            "warm_answers_per_s": (
                p50([s["answers"] / s["report_s"] for s in fresh]),
                "answers/s",
            ),
            "jobs_per_s": (len(fresh) / wall, "jobs/s"),
            "job_p50_s": (p50(jobs), "s"),
            "job_p90_s": (p90(jobs), "s"),
            "report_p50_s": (p50(reports), "s"),
            "report_p90_s": (p90(reports), "s"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
        }
        samples = {"job": len(jobs), "report": len(reports)}
    else:
        # An untraced server for half the time, then a traced one for as
        # many fresh jobs: the difference in time per job is the overhead.
        plain, plain_wall, _, _ = _phase(work, seed, "plain", seconds / 2, 1, outcome)
        trace_dir = work / "trace"
        loop, wall, _, stats = _phase(
            work, seed, "traced", 0, max(1, len(plain.fresh)), outcome, trace_dir
        )
        fresh = loop.fresh
        if not fresh or not plain.fresh:
            return outcome, None, {}
        units = len(fresh)
        metrics = layers.layer_metrics(
            spans.load_summaries(trace_dir),
            [(min(s["submitted"] for s in fresh), max(s["ended"] for s in fresh))],
            units,
        )
        from repro.engine.cache import ResultCache

        metrics["cache.bytes"] = (
            ResultCache(work / "traced" / "cache").size_bytes() / units,
            "bytes",
        )
        for key in ("chunks", "redispatched"):
            total = sum(s["stream_stats"].get(key, 0) for s in fresh)
            metrics[f"engine.{key}"] = (total / units, "count")
        metrics["server.queue_wait_p50_s"] = (
            p50([s["started"] - s["submitted"] for s in fresh]),
            "s",
        )
        metrics["server.exec_p50_s"] = (p50([s["ended"] - s["started"] for s in fresh]), "s")
        for key in ("dedup_hits", "cells_computed", "cells_cached"):
            metrics[f"server.{key}"] = (stats[key] / units, "count")
        metrics["trace_overhead_share"] = (
            (wall / units) / (plain_wall / len(plain.fresh)) - 1.0,
            "ratio",
        )
        samples = {"traced_jobs": units, "untraced_jobs": len(plain.fresh)}
    context = {
        "jobs": {"fresh": len(fresh), "repeats": loop.repeats},
        "answers_per_job": fresh[0]["answers"],
        "cells_per_job": stats["cells_computed"] // max(1, stats["jobs_executed"]),
        "samples": samples,
    }
    return outcome, metrics, context
