"""Store entry schema: a full ``SchedulingResult`` as a JSON blob.

An entry carries everything needed to reconstruct the result on an
*isomorphic* loop: bounds, the complete per-period attempt log (which is
what the ``is_rate_optimal_proven`` claim is made of), warm-start stats,
and the schedule with starts/colors permuted into **canonical op
order** — so a hit on a renamed/reordered variant of the original loop
maps the payload back through its own canonical order.  The canonical
DDG text rides along verbatim: lookups compare it byte-for-byte against
the query's canonical text (digest equality alone never decides a hit),
and ``repro cache verify`` re-checks entries offline by parsing it.

Entries are provenance-rich but trust-poor: reconstruction re-verifies
the schedule against the *current* machine before anything is reused
(see :mod:`repro.store.tiering`).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.core.bounds import LowerBounds
from repro.core.schedule import Schedule
from repro.core.scheduler import (
    ScheduleAttempt,
    SchedulingResult,
    WarmStartStats,
)
from repro.ddg.canonical import CanonicalForm
from repro.ddg.graph import Ddg
from repro.machine import Machine
from repro.store.keys import STORE_VERSION


class EntryError(ValueError):
    """Structurally unusable store entry (treated as a miss upstream)."""


def attempt_to_json(attempt: ScheduleAttempt) -> dict:
    return {
        "t_period": attempt.t_period,
        "status": attempt.status,
        "seconds": attempt.seconds,
        "model_stats": dict(attempt.model_stats),
        "nodes": attempt.nodes,
        "repaired": attempt.repaired,
        "bound": attempt.bound,
        "gap": attempt.gap,
        "warm_started": attempt.warm_started,
    }


def attempt_from_json(data: dict) -> ScheduleAttempt:
    return ScheduleAttempt(
        t_period=int(data["t_period"]),
        status=str(data["status"]),
        seconds=float(data.get("seconds", 0.0)),
        model_stats=dict(data.get("model_stats") or {}),
        nodes=int(data.get("nodes", 0)),
        repaired=bool(data.get("repaired", False)),
        bound=data.get("bound"),
        gap=data.get("gap"),
        warm_started=bool(data.get("warm_started", False)),
    )


def _warmstart_to_json(stats: Optional[WarmStartStats]) -> Optional[dict]:
    if stats is None:
        return None
    return {
        "enabled": stats.enabled,
        "heuristic_ii": stats.heuristic_ii,
        "heuristic_mii": stats.heuristic_mii,
        "heuristic_seconds": stats.heuristic_seconds,
        "placements": stats.placements,
        "ilp_solves": stats.ilp_solves,
    }


def _warmstart_from_json(data: Optional[dict]) -> Optional[WarmStartStats]:
    if data is None:
        return None
    return WarmStartStats(
        enabled=bool(data.get("enabled", False)),
        heuristic_ii=data.get("heuristic_ii"),
        heuristic_mii=data.get("heuristic_mii"),
        heuristic_seconds=float(data.get("heuristic_seconds", 0.0)),
        placements=int(data.get("placements", 0)),
        ilp_solves=int(data.get("ilp_solves", 0)),
    )


def schedule_to_canonical(schedule: Schedule, order: List[int]) -> dict:
    """``schedule``'s payload with starts/colors in canonical op order.

    ``order`` is the scheduled loop's canonical order (canonical
    position ``p`` is op ``order[p]``).
    """
    starts = [0] * len(order)
    colors: Dict[str, int] = {}
    for p, old in enumerate(order):
        starts[p] = schedule.starts[old]
        if old in schedule.colors:
            colors[str(p)] = schedule.colors[old]
    return {
        "t_period": schedule.t_period,
        "starts": starts,
        "colors": colors,
        "fu_counts_used": schedule.fu_counts_used,
    }


def schedule_from_canonical(
    sched: dict, ddg: Ddg, machine: Machine, order: List[int]
) -> Schedule:
    """Map a canonical-order payload onto ``ddg`` (canonical ``order``).

    Raises :class:`EntryError` when the payload does not fit the loop;
    a malformed payload raises KeyError/TypeError/ValueError/IndexError.
    The result is not verified — callers run the verifier.
    """
    starts_canon = [int(v) for v in sched["starts"]]
    if len(starts_canon) != ddg.num_ops or len(order) != ddg.num_ops:
        raise EntryError(
            f"entry has {len(starts_canon)} starts for a "
            f"{ddg.num_ops}-op loop"
        )
    starts = [0] * ddg.num_ops
    for p, value in enumerate(starts_canon):
        starts[order[p]] = value
    colors: Dict[int, int] = {}
    for key, value in (sched.get("colors") or {}).items():
        colors[order[int(key)]] = int(value)
    return Schedule(
        ddg=ddg,
        machine=machine,
        t_period=int(sched["t_period"]),
        starts=starts,
        colors=colors,
        fu_counts_used=sched.get("fu_counts_used"),
    )


def result_to_entry(
    result: SchedulingResult,
    form: CanonicalForm,
    machine_digest: str,
    fingerprint: dict,
    provenance: Optional[dict] = None,
) -> dict:
    """Serialize a clean result into the store's JSON entry schema.

    ``form`` is the canonical identity of the loop the result was
    computed for; the schedule's starts/colors are permuted into its
    canonical order so they transfer to any isomorphic loop.
    """
    schedule = result.schedule
    if schedule is None:
        raise EntryError("only results with a schedule are storable")
    return {
        "store_version": STORE_VERSION,
        "ddg_digest": form.digest,
        "ddg": form.text,
        "machine_digest": machine_digest,
        "fingerprint": dict(fingerprint),
        "provenance": {
            "created": time.time(),
            "loop": result.loop_name,
            "solve_seconds": result.total_seconds,
            **(provenance or {}),
        },
        "result": {
            "bounds": {
                "t_dep": result.bounds.t_dep,
                "t_res": result.bounds.t_res,
            },
            "attempts": [attempt_to_json(a) for a in result.attempts],
            "warmstart": _warmstart_to_json(result.warmstart),
            "schedule": schedule_to_canonical(schedule, form.order),
        },
    }


def entry_to_result(
    entry: dict,
    ddg: Ddg,
    machine: Machine,
    order: List[int],
) -> SchedulingResult:
    """Reconstruct a result against the *query* loop and machine.

    ``order`` is the query DDG's canonical order; canonical position
    ``p`` of the stored payload corresponds to query op ``order[p]``.
    Raises :class:`EntryError` on any structural mismatch — upstream
    treats that as a verification failure (miss + eviction), never as
    data.
    """
    try:
        payload = entry["result"]
        schedule = schedule_from_canonical(
            payload["schedule"], ddg, machine, order
        )
        bounds = LowerBounds(
            t_dep=int(payload["bounds"]["t_dep"]),
            t_res=int(payload["bounds"]["t_res"]),
        )
        attempts = [attempt_from_json(a) for a in payload["attempts"]]
        warmstart = _warmstart_from_json(payload.get("warmstart"))
    except EntryError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise EntryError(
            f"malformed store entry: {type(exc).__name__}: {exc}"
        ) from exc
    return SchedulingResult(
        loop_name=ddg.name,
        bounds=bounds,
        attempts=attempts,
        schedule=schedule,
        total_seconds=0.0,
        warmstart=warmstart,
    )
