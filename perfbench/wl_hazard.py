"""``hazard-portfolio``: the structural-hazard regime through the portfolio.

Each operation batch is one in-process ``run_batch(loops,
deep_unclean(), backend="portfolio", jobs=2)`` call over 80 loops of the
``hazard`` pool in the seed's order, all other settings at their
defaults.  Every loop becomes one (loop x backend) cell per roster
backend; the first backend to schedule a loop wins it and its sibling
cells are killed.  No import, store or HTTP sits in the timed region.
"""

from __future__ import annotations

import time

import checks
import common
import pools
import probes
import spans

CHUNK = 80
JOBS = 2
MACHINE = "deep-unclean"
#: Latency limit for goodput: one loop's winning sweep within 1 s.
LATENCY_LIMIT_S = 1.0
#: In-process seconds the traced pass may spend (before tracing).
TRACE_BUDGET_S = 12.0
#: Fresh interpreters timed for ``setup_s`` (its median is reported).
SETUP_SPAWNS = 9
#: Per-layer metrics of layers this workload never reaches.
OFF_PATH = ("serve.submit_rtt_s", "serve.job_s", "serve.observe_gap_s",
            "serve.coalesce_hits", "serve.store_hits",
            "serve.queue_depth_max", "serve.gen_late_s")
SALT = "hazard-portfolio"
SETUP_CODE = ("import repro.parallel\n"
              "from repro.machine.presets import deep_unclean\n"
              "deep_unclean()")


def _portfolio_batch(chunk, machine):
    """One timed portfolio batch: ``(wall, entry docs, sweep seconds, ddgs)``."""
    from repro.ddg.builders import parse_ddg
    from repro.parallel import run_batch

    ddgs = [parse_ddg(loop.text) for loop in chunk]
    started = time.perf_counter()
    report = run_batch(ddgs, machine, backend="portfolio", jobs=JOBS)
    wall = time.perf_counter() - started
    sweeps = [e.result.total_seconds if e.result is not None else 0.0
              for e in report.entries]
    docs = [entry.to_json_dict() for entry in report.entries]
    return wall, docs, sweeps, ddgs


def _check(out, chunk, docs, ddgs, machine, good):
    """Check a batch; returns which of its loops passed."""
    passed = []
    for loop, doc, ddg in zip(chunk, docs, ddgs):
        out.attempted += 1
        problem = checks.check_entry(doc, loop, ddg, machine)
        passed.append(problem is None)
        if problem is not None:
            out.fail(problem)
        else:
            good.append(doc)
    return passed


def run(ctx: common.Ctx) -> common.Outcome:
    from repro.machine.presets import by_name

    out = common.Outcome()
    setup = common.SetupSampler(
        lambda: probes.spawn_seconds(SETUP_CODE, ctx.env, 1)[0],
        SETUP_SPAWNS, ctx.seconds)
    machine = by_name(MACHINE)
    order = pools.seeded_order(pools.load_pool(pools.HAZARD), ctx.seed, SALT)
    busy, latencies, passed, good, batches = 0.0, [], [], [], 0
    for chunk in pools.cycle_chunks(order, CHUNK):
        if busy >= ctx.seconds:
            break
        wall, docs, sweeps, ddgs = _portfolio_batch(chunk, machine)
        busy += wall
        batches += 1
        latencies.extend(sweeps)
        passed.extend(_check(out, chunk, docs, ddgs, machine, good))
        if batches == 1:
            out.digest = checks.verdict_digest(chunk, docs)
        setup.maybe(busy)
    setup.finish(out, "fresh `import repro.parallel` + machine spawns")
    within = sum(1 for lat, ok in zip(latencies, passed)
                 if ok and lat <= LATENCY_LIMIT_S)
    out.metrics["loops_per_s"] = len(good) / busy
    out.metrics["goodput_rps"] = within / busy
    out.notes["loops_per_s"] = (
        f"{len(good)} verified loops in {batches} run_batch calls")
    out.notes["goodput_rps"] = (
        f"verified loops whose winning sweep took <= {LATENCY_LIMIT_S:g} s, "
        "per second")
    common.latency_metrics(out, latencies, "loops (winning sweep seconds)")
    common.verdict_metrics(out, good)
    common.finish_shares(out)
    out.metrics["peak_rss_mb"] = common.peak_rss_mb(include_self=True)
    out.notes["peak_rss_mb"] = "this process or its largest worker"
    return out


def _finished_cells(chunk, docs, roster):
    """(loop, backend) cells that returned a verdict in the real batch.

    The winner of each loop, plus every loser that finished before the
    winner came back; a killed or cancelled cell never finished, so its
    partial work belongs to the pool's overhead, not to a layer.
    """
    cells = []
    for loop, doc in zip(chunk, docs):
        record = doc.get("portfolio") or {}
        losers = record.get("losers", {})
        for backend in roster:
            if (backend == record.get("winner_backend")
                    or losers.get(backend, "cancelled") != "cancelled"):
                cells.append((loop, backend))
    return cells


def _run_cells(cells, machine, budget=None):
    """Run cells in-process, each to completion; returns how many ran.

    With ``budget`` no new cell starts once that many seconds have gone.
    """
    from repro.ddg.builders import parse_ddg
    from repro.parallel import run_batch

    common.reset_caches()
    started = time.perf_counter()
    done = 0
    for loop, backend in cells:
        if budget is not None and time.perf_counter() - started >= budget:
            break
        run_batch([parse_ddg(loop.text)], machine, backend=backend, jobs=1)
        done += 1
    return done


def trace(ctx: common.Ctx) -> common.Outcome:
    """Per-layer run: one real portfolio batch, then its cells in-process."""
    from repro.machine.presets import by_name
    from repro.parallel import default_portfolio

    out = common.Outcome()
    machine = by_name(MACHINE)
    order = pools.seeded_order(pools.load_pool(pools.HAZARD), ctx.seed, SALT)
    chunk = order[:CHUNK]
    wall, docs, sweeps, _ = _portfolio_batch(chunk, machine)
    roster = default_portfolio()
    records = [d.get("portfolio") or {} for d in docs]
    dispatched = len(docs) * len(roster)
    settled = sum(1 for r in records if r.get("winner_backend"))
    out.metrics.update({
        "parallel.cells_dispatched": dispatched,
        "parallel.cells_killed": sum(
            r.get("killed_running", 0) for r in records),
        "parallel.cells_cancelled": sum(
            r.get("cancelled_queued", 0) for r in records),
        "parallel.useful_cell_ratio": settled / dispatched,
        "parallel.useful_cell_base": dispatched,
        "parallel.overhead_s": wall - sum(sweeps) / JOBS,
    })
    out.notes["parallel.overhead_s"] = (
        f"one {CHUNK}-loop batch: wall - sum(winning sweep seconds) / jobs")
    out.metrics.update(common.entry_counts(docs))
    out.attempted = len(docs)

    cells = _finished_cells(chunk, docs, roster)
    _run_cells(cells[:3], machine)  # first-call costs off the clock
    started = time.perf_counter()
    ran = _run_cells(cells, machine, budget=TRACE_BUDGET_S)
    plain_wall = time.perf_counter() - started
    _, traced_wall, tracer = spans.traced(
        lambda: _run_cells(cells[:ran], machine))
    out.metrics.update(spans.layer_metrics(tracer, traced_wall, plain_wall))
    out.notes["trace.overhead"] = (
        f"{ran} of the {len(cells)} cells that finished in the real batch")
    return out
