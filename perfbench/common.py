"""Shared pieces of the workloads: run context, summaries, resets."""

from __future__ import annotations

import math
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence

#: Tail percentiles tried from the highest down; the first one with at
#: least ten samples beyond it is reported.
TAIL_CANDIDATES = (99.9, 99, 95, 90, 75, 50)


@dataclass
class Ctx:
    work: Path
    seed: int
    seconds: float
    env: dict


@dataclass
class Outcome:
    """What one workload run produced."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Printed beside a metric: how it was taken (sample count, percentile).
    notes: Dict[str, str] = field(default_factory=dict)
    digest: str = ""
    #: Extra lines printed before the metrics.
    info: List[str] = field(default_factory=list)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)


def tail(samples: Sequence[float]):
    """``(label, value)``: the highest percentile with >= 10 samples beyond."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_CANDIDATES:
        if n * (100 - pct) / 100 >= 10:
            rank = pct / 100 * (n - 1)
            low = math.floor(rank)
            high = min(low + 1, n - 1)
            value = ordered[low] + (ordered[high] - ordered[low]) * (rank - low)
            return f"p{pct:g}", value
    return "max", ordered[-1]


def latency_metrics(out: Outcome, samples: Sequence[float], what: str) -> None:
    if not samples:  # every operation failed; the checks report why
        out.metrics["latency_p50_s"] = out.metrics["latency_tail_s"] = 0.0
        return
    label, value = tail(samples)
    out.metrics["latency_p50_s"] = statistics.median(samples)
    out.metrics["latency_tail_s"] = value
    out.notes["latency_p50_s"] = f"median of {len(samples)} {what}"
    out.notes["latency_tail_s"] = f"{label} of {len(samples)} {what}"


def verdict_metrics(out: Outcome, docs: Sequence[dict]) -> None:
    """``proven_share`` and ``ii_ratio`` over the checked loops."""
    proven = sum(1 for d in docs if d.get("is_rate_optimal_proven"))
    ratios = [d["achieved_t"] / d["t_lb"] for d in docs
              if d.get("achieved_t") is not None and d.get("t_lb")]
    out.metrics["proven_share"] = proven / len(docs) if docs else 0.0
    out.metrics["ii_ratio"] = (
        math.exp(sum(map(math.log, ratios)) / len(ratios)) if ratios else 0.0)
    out.notes["proven_share"] = f"{proven} of {len(docs)} loops"
    out.notes["ii_ratio"] = f"geometric mean over {len(ratios)} loops"


class SetupSampler:
    """Takes ``setup_s`` samples spread evenly over a run's measured time.

    The host's speed drifts over tens of seconds; samples taken back to
    back would all see the same moment.  Call ``maybe`` between timed
    operations (never inside one) and ``finish`` at the end.
    """

    def __init__(self, take, count: int, seconds: float) -> None:
        self.take, self.count, self.seconds = take, count, seconds
        self.samples: List[float] = []

    def maybe(self, elapsed: float) -> None:
        if len(self.samples) < self.count * min(1.0, elapsed / self.seconds):
            self.samples.append(self.take())

    def finish(self, out: Outcome, what: str) -> None:
        while len(self.samples) < self.count:
            self.samples.append(self.take())
        out.metrics["setup_s"] = statistics.median(self.samples)
        out.notes["setup_s"] = (
            f"median of {len(self.samples)} {what}, spread over the run")


def finish_shares(out: Outcome) -> None:
    out.metrics["verified_share"] = (
        (out.attempted - out.failed) / out.attempted)
    out.notes["verified_share"] = (
        f"failed_share = {out.failed}/{out.attempted}")


def peak_rss_mb(include_self: bool) -> float:
    """Peak RSS of the largest waited-for descendant (and this process)."""
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if include_self:
        peak = max(peak, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return peak / 1024.0


def reset_caches() -> None:
    """Forget every in-process cache, as a fresh process would start."""
    from repro.parallel.cache import clear_caches
    from repro.store.tiering import clear_tiers

    clear_caches()
    clear_tiers()


def entry_counts(docs: Sequence[dict]) -> Dict[str, int]:
    """Per-layer counts read off report entries (untraced run)."""
    failures = [d["failure"] for d in docs if d.get("failure")]
    return {
        "supervision.failures": len(failures),
        "supervision.retries": sum(f.get("retries", 0) for f in failures),
        "core.heuristic_settled": sum(
            1 for d in docs
            if (d.get("warmstart") or {}).get("skipped_all_ilp")),
        "core.cut_skips": sum(
            1 for d in docs for a in d.get("attempts", ())
            if "cut_skip" in (a.get("model") or {})),
    }
