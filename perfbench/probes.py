"""Outside-in probes: process start, import breakdown, pool round trips."""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Sequence


def spawn_seconds(code: str, env: dict, repeats: int) -> List[float]:
    """Wall seconds of ``repeats`` fresh interpreters each running ``code``."""
    out = []
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        out.append(time.perf_counter() - started)
    return out


def _importtime_rows(stderr: str):
    """``(depth, package, cumulative seconds)`` per ``-X importtime`` row."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header row
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip(), int(cumulative) / 1e6))
    return rows


def import_breakdown(module: str, packages: Sequence[str],
                     env: dict) -> Dict[str, float]:
    """Seconds each of ``packages`` costs while a fresh ``import module`` runs.

    ``-X importtime`` prints children before their parent.  A package's
    cost is the cumulative time of its rows that no row of the same
    package encloses (``scipy`` is imported piecewise, as ``scipy`` and
    ``scipy.optimize``, by different importers).
    """
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", f"import {module}"],
        env=env, check=True, capture_output=True, text=True,
    )
    rows = _importtime_rows(proc.stderr)
    parent = [None] * len(rows)
    stack: List[int] = []
    for index, (depth, _, _) in enumerate(rows):
        while stack and rows[stack[-1]][0] > depth:
            parent[stack.pop()] = index
        stack.append(index)
    totals = {}
    for package in packages:
        def ours(i):
            name = rows[i][1]
            return name == package or name.startswith(package + ".")

        total = 0.0
        for index in range(len(rows)):
            if not ours(index):
                continue
            up = parent[index]
            while up is not None and not ours(up):
                up = parent[up]
            if up is None:
                total += rows[index][2]
        totals[package] = total
    return totals


def supervision_roundtrips(fresh: int = 3, warm: int = 20) -> Dict[str, float]:
    """No-op tasks through ``SupervisedExecutor(max_workers=2)``.

    ``pool_start_s``: a fresh executor until both workers have answered
    one no-op (median of ``fresh`` pools).  ``roundtrip_s``: one no-op
    through a warm pool, submit to result (median of ``warm``).
    """
    from repro.supervision.executor import SupervisedExecutor

    def finish(executor, count):
        done = 0
        while done < count:
            for task in executor.poll(timeout=1.0):
                if task.failure is not None:
                    raise RuntimeError(f"no-op task failed: {task.failure}")
                done += 1

    starts, trips = [], []
    for round_index in range(fresh):
        executor = SupervisedExecutor(max_workers=2)
        try:
            started = time.perf_counter()
            executor.submit(os.getpid)
            executor.submit(os.getpid)
            finish(executor, 2)
            starts.append(time.perf_counter() - started)
            if round_index == 0:
                for _ in range(warm):
                    started = time.perf_counter()
                    executor.submit(os.getpid)
                    finish(executor, 1)
                    trips.append(time.perf_counter() - started)
        finally:
            executor.shutdown()
    return {
        "supervision.pool_start_s": statistics.median(starts),
        "supervision.roundtrip_s": statistics.median(trips),
    }


def cli_probes(env: dict) -> Dict[str, float]:
    """``cli.*``: fresh ``import repro.cli`` wall time and its heavy imports."""
    metrics = {"cli.import_s": statistics.median(
        spawn_seconds("import repro.cli", env, 3))}
    breakdown = import_breakdown("repro.cli",
                                 ("numpy", "scipy", "networkx"), env)
    for package, seconds in breakdown.items():
        metrics[f"cli.import_{package}_s"] = seconds
    return metrics
