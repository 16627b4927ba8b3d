"""Build ``expected.json``: the verdict every pool loop must reproduce.

Run once, from the repository root, when the pools or the generator
change (about ten minutes on two cores)::

    python3 perfbench/build_expected.py [--pool mixed|hazard] [--jobs 2]

Each candidate loop is scheduled by ``highs`` and ``sat`` separately,
each with the default settings the workloads use (feasibility
objective, 10 s per period, ``max_extra`` 10).  A loop gets an expected
verdict ``(t, proven)`` only when the two agree and neither reached its
time limit on any period.  ``bnb`` (3 s per period) and the exhaustive
``repro.enumerative`` search (0.5 s per period) are cross-checks: each
must agree wherever it finishes within its budget.  ``bnb`` finishes on
a loop when no period reached its limit and the whole sweep ended
within ``BNB_DEADLINE_S``; the search's rate-optimal period must equal
``t`` when the backends claim a proof, and never exceed ``t``.  Every
loop left out is listed under ``excluded`` with the reason; the pools
skip it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pools  # noqa: E402

BACKENDS = ("highs", "sat", "bnb")
#: Per-period budgets: the workloads' default for the two backends the
#: verdict rests on, shorter ones for the two cross-checks.
LIMIT_PER_T = {"highs": 10.0, "sat": 10.0, "bnb": 3.0}
#: bnb's whole sweep of one loop is killed after this many seconds
#: (plus the supervisor's grace); a killed sweep did not finish.
BNB_DEADLINE_S = 10.0
ENUM_LIMIT_PER_T = 0.5


def _verdicts(loops, machine, backend, jobs):
    from repro.parallel import run_batch
    from repro.supervision import SupervisionPolicy

    policy = None
    if backend == "bnb":
        policy = SupervisionPolicy(deadline=BNB_DEADLINE_S, max_retries=0)
    report = run_batch([ddg for _, _, ddg in loops], machine,
                       backend=backend, jobs=jobs,
                       time_limit_per_t=LIMIT_PER_T[backend], policy=policy)
    out = {}
    # Entries come back in input order; a killed loop's entry carries no
    # loop name, so key by position.
    for (name, _, _), entry in zip(loops, report.entries):
        result = entry.result
        if result is None and entry.failure is not None and policy:
            out[name] = {"time_limited": True}  # killed: unfinished
            continue
        if result is None:
            out[name] = {"error": entry.error}
            continue
        out[name] = {
            "t": result.achieved_t,
            "proven": bool(result.is_rate_optimal_proven),
            "t_lb": result.bounds.t_lb,
            "time_limited": any(
                a.status == "time_limit" for a in result.attempts
            ),
            "seconds": round(result.total_seconds, 3),
        }
    return out


def build_pool(pool: str, jobs: int) -> dict:
    from repro.corpusgen.manifest import sha256_text
    from repro.enumerative import enumerative_schedule_loop
    from repro.machine.presets import by_name

    spec = pools.POOLS[pool]
    machine = by_name(spec["machine"])
    loops = pools.generate(pool)
    by_backend = {}
    for backend in BACKENDS:
        started = time.monotonic()
        by_backend[backend] = _verdicts(loops, machine, backend, jobs)
        print(f"{pool}: {backend} done in "
              f"{time.monotonic() - started:.1f} s", flush=True)
    kept, excluded = {}, {}
    enum_finished = bnb_finished = 0
    for name, text, ddg in loops:
        votes = [by_backend[b][name] for b in BACKENDS]
        errors = [v["error"] for v in votes if "error" in v]
        if errors:
            excluded[name] = f"error: {errors[0]}"
            continue
        highs, sat, bnb = votes
        limited = [b for b, v in (("highs", highs), ("sat", sat))
                   if v["time_limited"]]
        if limited:
            excluded[name] = f"time limit reached by {','.join(limited)}"
            continue
        t, proven = highs["t"], highs["proven"]
        if (sat["t"], sat["proven"]) != (t, proven):
            excluded[name] = (f"highs (T={t}, proven={proven}) and sat "
                              f"(T={sat['t']}, proven={sat['proven']}) "
                              "disagree")
            continue
        if not bnb["time_limited"]:
            bnb_finished += 1
            if (bnb["t"], bnb["proven"]) != (t, proven):
                excluded[name] = (f"bnb (T={bnb['t']}, proven="
                                  f"{bnb['proven']}) disagrees with "
                                  f"highs and sat (T={t}, proven={proven})")
                continue
        # Periods above the backends' T cannot contradict them.
        enum = enumerative_schedule_loop(
            ddg, machine, time_limit_per_t=ENUM_LIMIT_PER_T,
            max_extra=10 if t is None else t - highs["t_lb"],
        )
        enum_t = enum.achieved_t if enum.proven else None
        if enum_t is not None:
            enum_finished += 1
            if (proven and enum_t != t) or (t is not None and enum_t > t):
                excluded[name] = (
                    f"enumerative finds T={enum_t}, backends T={t}"
                )
                continue
        kept[name] = {
            "sha256": sha256_text(text),
            "t": t,
            "proven": proven,
            "t_lb": highs["t_lb"],
            "seconds": {"highs": highs["seconds"], "sat": sat["seconds"]},
            "bnb_finished": not bnb["time_limited"],
            "enumerative_t": enum_t,
        }
    print(f"{pool}: kept {len(kept)}, excluded {len(excluded)}, "
          f"bnb finished on {bnb_finished}, enumerative on "
          f"{enum_finished}", flush=True)
    return {
        "machine": spec["machine"],
        "seed": spec["seed"],
        "count": spec["count"],
        "max_ops": spec["max_ops"],
        "limit_per_t": LIMIT_PER_T,
        "bnb_deadline_s": BNB_DEADLINE_S,
        "enumerative_limit_per_t": ENUM_LIMIT_PER_T,
        "bnb_finished": bnb_finished,
        "enumerative_finished": enum_finished,
        "loops": kept,
        "excluded": excluded,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pool", choices=sorted(pools.POOLS),
                        action="append")
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args()
    for pool in args.pool or sorted(pools.POOLS):
        built = build_pool(pool, args.jobs)
        doc = pools.load_expected() if pools.EXPECTED_PATH.exists() else {}
        doc[pool] = built
        tmp = pools.EXPECTED_PATH.with_suffix(".tmp")
        tmp.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
        os.replace(tmp, pools.EXPECTED_PATH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
