"""``cli-batch``: one closed-loop client running ``repro batch`` subprocesses.

Each operation is one ``python -m repro batch <48 files> --machine
powerpc604 --jobs 2 --store <fresh dir> --out <report>``, timed from
spawn to exit with the report written; every other setting stays at its
default (``auto`` backend, warm start, feasibility objective).  The
chunks are consecutive slices of the ``mixed`` pool in the seed's order.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time

import checks
import common
import pools
import probes
import spans

#: Loops per batch.  2.8% of the mixed pool needs the solver, which
#: costs a scipy import in the worker on top of the solve; at 24 loops
#: half the batches need none, so the median batch flipped between
#: 0.8 s and 1.2 s from seed to seed.  At 48 loops three batches in
#: four need the solver and the median is steady.
CHUNK = 48
JOBS = 2
MACHINE = "powerpc604"
#: Latency limit for goodput: a batch of 48 loops done within 5 s.
LATENCY_LIMIT_S = 5.0
#: Fresh interpreters timed for ``setup_s`` (its median is reported).
SETUP_SPAWNS = 9
#: Per-layer metrics of layers this workload never reaches.
OFF_PATH = ("serve.submit_rtt_s", "serve.job_s", "serve.observe_gap_s",
            "serve.coalesce_hits", "serve.store_hits",
            "serve.queue_depth_max", "serve.gen_late_s")
SALT = "cli-batch"


def _write_chunk(folder, chunk):
    folder.mkdir(parents=True)
    paths = []
    for loop in chunk:
        path = folder / f"{loop.name}.ddg"
        path.write_text(loop.text, encoding="utf-8")
        paths.append(str(path))
    return folder, paths


def _batch_args(paths, store, report, jobs):
    return (["batch"] + paths + ["--machine", MACHINE, "--jobs", str(jobs),
                                 "--store", str(store), "--out", str(report)])


def _check_report(out, report_doc, chunk, machine, docs):
    """Check a chunk's report; returns its entries in chunk order."""
    by_name = {e.get("name"): e for e in report_doc["entries"]}
    ordered = [by_name.get(loop.name, {}) for loop in chunk]
    for loop, doc in zip(chunk, ordered):
        out.attempted += 1
        if not doc:
            out.fail(f"{loop.name}: missing from the report")
            continue
        problem = checks.check_entry(doc, loop, _ddg(loop), machine)
        if problem is not None:
            out.fail(problem)
            continue
        docs.append(doc)
    return ordered


def _ddg(loop):
    from repro.ddg.builders import parse_ddg

    return parse_ddg(loop.text)


def _run_chunks(ctx, chunks, budget, out, docs, reports=None, between=None):
    """Run batch subprocesses until ``budget`` seconds of them have run.

    ``between(busy)`` runs after each batch, off the clock.
    """
    from repro.machine.presets import by_name

    machine = by_name(MACHINE)
    latencies, verified, busy, first = [], [], 0.0, []
    for index, chunk in enumerate(chunks):
        if busy >= budget:
            break
        folder, paths = _write_chunk(ctx.work / f"chunk{index:04d}", chunk)
        report = folder / "report.json"
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "repro"] + _batch_args(
                paths, folder / "store", report, JOBS),
            env=ctx.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=150,
        )
        latency = time.perf_counter() - started
        busy += latency
        latencies.append(latency)
        before = len(docs)
        if proc.returncode != 0 or not report.is_file():
            for loop in chunk:
                out.attempted += 1
                out.fail(f"{loop.name}: batch exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-200:]}")
        else:
            doc = json.loads(report.read_text(encoding="utf-8"))
            ordered = _check_report(out, doc, chunk, machine, docs)
            if reports is not None:
                reports.append(doc)
            if index == 0:
                first = list(zip(chunk, ordered))
        verified.append(len(docs) - before)
        shutil.rmtree(folder)
        if between is not None:
            between(busy)
    return latencies, verified, busy, first


def run(ctx: common.Ctx) -> common.Outcome:
    out = common.Outcome()
    setup = common.SetupSampler(
        lambda: probes.spawn_seconds("import repro.cli", ctx.env, 1)[0],
        SETUP_SPAWNS, ctx.seconds)
    order = pools.seeded_order(pools.load_pool(pools.MIXED), ctx.seed, SALT)
    docs = []
    latencies, verified, busy, first = _run_chunks(
        ctx, pools.cycle_chunks(order, CHUNK), ctx.seconds, out, docs,
        between=setup.maybe)
    setup.finish(out, "fresh `import repro.cli` spawns")
    within = sum(ok for lat, ok in zip(latencies, verified)
                 if lat <= LATENCY_LIMIT_S)
    out.metrics["loops_per_s"] = len(docs) / busy
    out.metrics["goodput_rps"] = within / busy
    out.notes["loops_per_s"] = (
        f"{len(docs)} verified loops in {len(latencies)} batches")
    out.notes["goodput_rps"] = (
        f"verified loops in batches done within {LATENCY_LIMIT_S:g} s, "
        "per second")
    common.latency_metrics(out, latencies, "batch subprocesses")
    common.verdict_metrics(out, docs)
    common.finish_shares(out)
    out.metrics["peak_rss_mb"] = common.peak_rss_mb(include_self=False)
    out.notes["peak_rss_mb"] = "largest batch or worker process"
    out.digest = checks.verdict_digest([loop for loop, _ in first],
                                       [doc for _, doc in first])
    return out


def _inprocess(ctx, chunks, tag):
    """The same batches through ``repro.cli.main`` in this process, jobs=1."""
    from repro.cli import main

    for index, chunk in enumerate(chunks):
        folder, paths = _write_chunk(ctx.work / f"{tag}{index:04d}", chunk)
        common.reset_caches()
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(_batch_args(paths, folder / "store",
                                    folder / "report.json", 1))
        if code != 0:
            raise RuntimeError(f"in-process batch exited {code}")


def trace(ctx: common.Ctx) -> common.Outcome:
    """Per-layer run: two real batches, then the same loops traced in-process."""
    out = common.Outcome()
    order = pools.seeded_order(pools.load_pool(pools.MIXED), ctx.seed, SALT)
    chunk_iter = pools.cycle_chunks(order, CHUNK)
    chunks = [next(chunk_iter) for _ in range(2)]
    docs, reports = [], []
    _run_chunks(ctx, chunks, float("inf"), out, docs, reports)
    overhead = sum(
        r["total_seconds"] - sum(e.get("seconds", 0.0)
                                 for e in r["entries"]) / JOBS
        for r in reports)
    entries = [e for r in reports for e in r["entries"]]

    _inprocess(ctx, chunks[:1], "warm")  # first-call costs off the clock
    started = time.perf_counter()
    _inprocess(ctx, chunks, "plain")
    plain_wall = time.perf_counter() - started
    _, traced_wall, tracer = spans.traced(
        lambda: _inprocess(ctx, chunks, "traced"))
    out.metrics.update(spans.layer_metrics(tracer, traced_wall, plain_wall))
    out.metrics.update({
        "parallel.cells_dispatched": len(entries),
        "parallel.cells_killed": 0,
        "parallel.cells_cancelled": 0,
        "parallel.useful_cell_ratio": 1.0,
        "parallel.useful_cell_base": len(entries),
        "parallel.overhead_s": overhead / len(reports),
    })
    out.notes["parallel.overhead_s"] = (
        "per batch: report total_seconds - sum(loop seconds) / jobs")
    out.metrics.update(common.entry_counts(entries))
    out.attempted = len(entries)
    return out

