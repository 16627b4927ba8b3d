"""Output checks that share no code with the scheduler's own verifier.

Each schedule the program returns is replayed cycle by cycle with
``repro.sim.simulate`` (absolute start times, one reservation stamp per
instance and physical unit), not with ``repro.core.verify``, the check
the scheduler runs on itself.  The loop's ``(achieved_t, proven)`` must
equal the verdict in ``expected.json``, which the three backends and the
exhaustive search agreed on when it was built.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Optional

from pools import PoolLoop


def replay_ok(schedule_doc: dict, ddg, machine) -> Optional[str]:
    """Replay a reported schedule; None when it is hazard- and dependence-free."""
    from repro.core.schedule import Schedule
    from repro.sim import simulate

    starts = [int(v) for v in schedule_doc["starts"]]
    if len(starts) != ddg.num_ops:
        return f"schedule has {len(starts)} starts for {ddg.num_ops} ops"
    schedule = Schedule(
        ddg=ddg,
        machine=machine,
        t_period=int(schedule_doc["t_period"]),
        starts=starts,
        colors={int(k): int(v) for k, v in schedule_doc["colors"].items()},
    )
    # Enough iterations that every instance overlapping the steady state
    # and every loop-carried dependence is replayed at least twice.
    distance = max((dep.distance for dep in ddg.deps), default=0)
    occupancy = max(
        cycle + 1
        for op in ddg.ops
        for _, cycle in machine.reservation_for(op.op_class).usage_offsets()
    )
    reach = max(schedule.starts) + max(schedule.span, occupancy)
    iterations = reach // schedule.t_period + distance + 3
    report = simulate(schedule, iterations=max(8, iterations),
                      stop_at_first=True)
    return None if report.ok else report.first_violation()


def check_entry(doc: dict, expected: PoolLoop, ddg, machine) -> Optional[str]:
    """Check one report entry (``BatchEntry.to_json_dict`` form).

    Returns None when the entry is correct, else a one-line reason.
    """
    if doc.get("error"):
        return f"{expected.name}: error: {doc['error']}"
    achieved = doc.get("achieved_t")
    proven = bool(doc.get("is_rate_optimal_proven"))
    if (achieved, proven) != (expected.achieved_t, expected.proven):
        return (f"{expected.name}: verdict (T={achieved}, proven={proven}) "
                f"!= expected (T={expected.achieved_t}, "
                f"proven={expected.proven})")
    if doc.get("t_lb") != expected.t_lb:
        return f"{expected.name}: T_lb {doc.get('t_lb')} != {expected.t_lb}"
    if achieved is None:
        return None
    schedule = doc.get("schedule")
    if schedule is None:
        return f"{expected.name}: scheduled but no schedule in the report"
    if int(schedule["t_period"]) != achieved:
        return (f"{expected.name}: schedule period {schedule['t_period']} "
                f"!= achieved T {achieved}")
    problem = replay_ok(schedule, ddg, machine)
    if problem is not None:
        return f"{expected.name}: replay: {problem}"
    return None


def verdict_digest(loops: Iterable[PoolLoop], docs: Iterable[dict]) -> str:
    """Digest of ``name:T:proven`` as reported, in input order."""
    h = hashlib.sha256()
    for loop, doc in zip(loops, docs):
        h.update(f"{loop.name}:{doc.get('achieved_t')}:"
                 f"{bool(doc.get('is_rate_optimal_proven'))}\n".encode())
    return h.hexdigest()[:16]
