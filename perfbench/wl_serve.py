"""``serve-open``: an open loop of submissions against ``repro serve``.

One ``repro serve --workers 2`` subprocess with a fresh store and
journal, no faults.  Requests are due at a fixed rate whatever the daemon
does (independent users), from one process with two threads: the sender
submits each request when it is due, the collector long-polls the
accepted jobs in submission order.  The stream is drawn from the
``mixed`` pool in the seed's order: fresh loops, exact repeats of an
earlier request (coalesced while in flight, store hits after) and
``ddg.transforms.scrambled`` renamed variants of an earlier loop (same
canonical form, so the same store key).  Requests go out under eight
client names, as independent users would, so no single name exceeds the
daemon's default per-client rate limit.

Latency is timed from each request's due time to job done:
``(send + rtt / 2 - due) + job seconds``, where ``job seconds`` is the
daemon's own submit-to-finish time for the job, and ``send + rtt / 2``
stands for the moment the daemon received the submission.  The
collector's observation time is not used, so a slow collector cannot
inflate latency.
"""

from __future__ import annotations

import http.client
import queue
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import checks
import common
import pools
import spans

MACHINE = "powerpc604"
#: Submissions per second: about 70% of the closed-loop saturation
#: measured with two clients (see README.md).
RATE = 24.0
#: Latency limit for goodput: due time to job done.
LATENCY_LIMIT_S = 0.5
CLIENTS = 8
FRESH, REPEAT = 0.5, 0.25  # the remaining quarter are renamed variants
SETUP_SPAWNS = 3
#: Seconds of open-loop load the traced run drives before its
#: in-process pass.
TRACE_WINDOW_S = 6.0
SALT = "serve-open"


@dataclass
class Request:
    loop: pools.PoolLoop
    text: str
    kind: str  # "fresh", "repeat" or "renamed"


def request_stream(order, seed, count):
    from repro.ddg.builders import parse_ddg, serialize_ddg
    from repro.ddg.transforms import scrambled

    rng = random.Random(f"{SALT}:{seed}:mix")
    fresh = iter(order * (count // len(order) + 1))
    history, out = [], []
    for index in range(count):
        draw = rng.random()
        if not history or draw < FRESH:
            loop = next(fresh)
            history.append(loop)
            out.append(Request(loop, loop.text, "fresh"))
        elif draw < FRESH + REPEAT:
            loop = rng.choice(history)
            out.append(Request(loop, loop.text, "repeat"))
        else:
            loop = rng.choice(history)
            variant = scrambled(parse_ddg(loop.text), rng,
                                name=f"{loop.name}_r{index}")
            out.append(Request(loop, serialize_ddg(variant), "renamed"))
    return out


class Daemon:
    """A ``repro serve`` subprocess in its own folder."""

    def __init__(self, ctx, tag):
        self.folder = ctx.work / tag
        self.folder.mkdir(parents=True)
        self.env = ctx.env
        self.proc = None
        self.port = None

    def start(self) -> float:
        """Spawn; seconds until the first 200 from ``/healthz``."""
        port_file = self.folder / "port"
        log = open(self.folder / "daemon.log", "wb")
        started = time.perf_counter()
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--workers", "2",
                 "--port", "0", "--port-file", str(port_file),
                 "--store", str(self.folder / "store"),
                 "--journal", str(self.folder / "journal.jsonl")],
                env=self.env, stdout=log, stderr=subprocess.STDOUT,
            )
        finally:
            log.close()
        deadline = started + 60
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited during boot ({self.proc.returncode})")
            if self.port is None:
                try:
                    self.port = int(port_file.read_text(encoding="utf-8"))
                except (OSError, ValueError):
                    time.sleep(0.005)
                    continue
            if self._healthy():
                return time.perf_counter() - started
            time.sleep(0.005)
        raise RuntimeError("daemon did not become healthy within 60 s")

    def _healthy(self) -> bool:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
        try:
            conn.request("GET", "/healthz")
            return conn.getresponse().status == 200
        except OSError:
            return False
        finally:
            conn.close()

    def stop(self) -> None:
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.terminate()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)


def _spawn_for_setup(ctx, tag_prefix):
    """Setup samples, keeping the last daemon running for the load."""
    times, daemon = [], None
    for index in range(SETUP_SPAWNS):
        if daemon is not None:
            daemon.stop()
        daemon = Daemon(ctx, f"{tag_prefix}{index}")
        try:
            times.append(daemon.start())
        except BaseException:
            daemon.stop()
            raise
    return times, daemon


@dataclass
class Sent:
    due: float
    sent: float
    got: float
    status: int
    body: dict
    doc: dict = None
    observed: float = 0.0


def open_loop(port, reqs, rate):
    """Drive ``reqs`` at ``rate``; returns (sends, queue depth samples)."""
    from repro.serve.client import ServeClient

    jobs: "queue.Queue" = queue.Queue()
    sends = []
    depths = []
    errors = []

    def collect():
        client = ServeClient("127.0.0.1", port, timeout=70)
        last_sample = 0.0
        try:
            while True:
                item = jobs.get()
                if item is None:
                    return
                sends[item].doc = client.wait_for(
                    sends[item].body["job"], timeout=120)
                sends[item].observed = time.perf_counter()
                if sends[item].observed - last_sample >= 0.2:
                    last_sample = sends[item].observed
                    depths.append(client.stats()["queue"]["depth"])
        except Exception as exc:  # reported as failed operations
            errors.append(f"collector: {type(exc).__name__}: {exc}")

    collector = threading.Thread(target=collect, daemon=True)
    collector.start()
    client = ServeClient("127.0.0.1", port, timeout=70)
    start = time.perf_counter() + 0.05
    try:
        for index, req in enumerate(reqs):
            due = start + index / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            try:
                status, body = client.submit_raw(
                    req.text, MACHINE, backend="auto",
                    client=f"user{index % CLIENTS}")
            except OSError as exc:
                status, body = 0, {"error": str(exc)}
            sends.append(Sent(due, sent, time.perf_counter(), status, body))
            if status == 200:
                jobs.put(index)
    finally:
        jobs.put(None)
        collector.join(timeout=150)
    if collector.is_alive():
        errors.append("collector did not finish within 150 s")
    return sends, depths, errors


def _latency(record: Sent) -> float:
    received = record.sent + (record.got - record.sent) / 2
    return received - record.due + record.doc["seconds"]


def _check(out, reqs, sends, machine, good, latencies):
    from repro.ddg.builders import parse_ddg

    for req, record in zip(reqs, sends):
        out.attempted += 1
        if record.status != 200:
            out.fail(f"{req.loop.name}: refused ({record.status}): "
                     f"{record.body.get('error')}")
            continue
        doc = record.doc
        if doc is None or doc.get("state") != "done":
            state = None if doc is None else doc.get("state")
            out.fail(f"{req.loop.name} ({req.kind}): job ended {state}")
            continue
        problem = checks.check_entry(doc.get("entry") or {}, req.loop,
                                     parse_ddg(req.text), machine)
        if problem is not None:
            out.fail(f"{problem} ({req.kind})")
            continue
        good.append(doc["entry"])
        latencies.append(_latency(record))


def _drive(ctx, reqs, tag):
    from repro.serve.client import ServeClient

    times, daemon = _spawn_for_setup(ctx, tag)
    try:
        sends, depths, errors = open_loop(daemon.port, reqs, RATE)
        stats = ServeClient("127.0.0.1", daemon.port).stats()
    finally:
        daemon.stop()
    return times, sends, depths, errors, stats


def run(ctx: common.Ctx) -> common.Outcome:
    from repro.machine.presets import by_name

    out = common.Outcome()
    order = pools.seeded_order(pools.load_pool(pools.MIXED), ctx.seed, SALT)
    count = int(RATE * ctx.seconds)
    reqs = request_stream(order, ctx.seed, count)
    times, sends, depths, errors, stats = _drive(ctx, reqs, "daemon")
    out.metrics["setup_s"] = statistics.median(times)
    out.notes["setup_s"] = (
        f"median of {len(times)} daemon spawns to first /healthz 200")
    for error in errors:
        out.problems.append(error)
    good, latencies = [], []
    _check(out, reqs, sends, by_name(MACHINE), good, latencies)
    window = count / RATE
    within = sum(1 for lat in latencies if lat <= LATENCY_LIMIT_S)
    out.metrics["loops_per_s"] = len(good) / window
    out.metrics["goodput_rps"] = within / window
    out.notes["loops_per_s"] = (
        f"{len(good)} verified jobs over a {window:g} s arrival window "
        f"at {RATE:g}/s")
    out.notes["goodput_rps"] = (
        f"jobs done within {LATENCY_LIMIT_S:g} s of their due time, per s")
    common.latency_metrics(out, latencies, "jobs, due time to done")
    common.verdict_metrics(out, good)
    common.finish_shares(out)
    out.metrics["peak_rss_mb"] = common.peak_rss_mb(include_self=False)
    out.notes["peak_rss_mb"] = "daemon or its largest worker"
    late = [record.sent - record.due for record in sends]
    out.info.append(
        f"generator lateness: median {statistics.median(late) * 1e3:.2f} ms, "
        f"max {max(late) * 1e3:.2f} ms")
    out.digest = checks.verdict_digest(
        [r.loop for r in reqs[:48]],
        [(s.doc or {}).get("entry") or {} for s in sends[:48]])
    return out


def _inprocess(ctx, reqs, tag):
    from repro.serve.jobs import solve_request

    common.reset_caches()
    store = ctx.work / tag
    for req in reqs:
        solve_request(req.text, MACHINE, "auto", "feasibility", 10.0, 10,
                      True, str(store))


def trace(ctx: common.Ctx) -> common.Outcome:
    """Per-layer run: a short open loop, then its requests in-process."""
    out = common.Outcome()
    order = pools.seeded_order(pools.load_pool(pools.MIXED), ctx.seed, SALT)
    reqs = request_stream(order, ctx.seed, int(RATE * TRACE_WINDOW_S))
    _, sends, depths, errors, stats = _drive(ctx, reqs, "daemon")
    done = [s for s in sends if s.doc and s.doc.get("state") == "done"]
    counters = stats["counters"]
    entries = [s.doc["entry"] for s in done]
    failed_docs = [s.doc for s in sends if s.doc and s.doc.get("failure")]
    dispatched = counters.get("accepted", 0) - counters.get("coalesced", 0)
    out.metrics.update({
        "serve.submit_rtt_s": statistics.median(
            s.got - s.sent for s in sends),
        "serve.job_s": statistics.median(s.doc["seconds"] for s in done),
        "serve.observe_gap_s": statistics.median(
            (s.observed - s.sent) - s.doc["seconds"] for s in done),
        "serve.coalesce_hits": counters.get("coalesced", 0),
        "serve.store_hits": counters.get("store_hits", 0)
        + counters.get("coalesce_store_hits", 0),
        "serve.queue_depth_max": max(depths, default=0),
        "serve.gen_late_s": max(s.sent - s.due for s in sends),
        "parallel.cells_dispatched": dispatched,
        "parallel.cells_killed": 0,
        "parallel.cells_cancelled": 0,
        "parallel.useful_cell_ratio": 1.0,
        "parallel.useful_cell_base": dispatched,
        "parallel.overhead_s": statistics.median(
            s.doc["seconds"] - s.doc["entry"].get("seconds", 0.0)
            for s in done),
    })
    out.notes["parallel.overhead_s"] = (
        "median per job: daemon job seconds - worker sweep seconds")
    out.metrics.update(common.entry_counts(entries + failed_docs))
    out.attempted = len(sends)
    out.problems.extend(errors)

    _inprocess(ctx, reqs[:4], "warm")  # first-call costs off the clock
    started = time.perf_counter()
    _inprocess(ctx, reqs, "plain")
    plain_wall = time.perf_counter() - started
    _, traced_wall, tracer = spans.traced(
        lambda: _inprocess(ctx, reqs, "traced"))
    out.metrics.update(spans.layer_metrics(tracer, traced_wall, plain_wall))
    return out
