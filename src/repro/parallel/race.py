"""Race candidate periods across worker processes (§6, parallelized).

The sequential driver proves infeasibility of ``T_lb, T_lb+1, ...`` one
period at a time; on hard loops nearly all wall-clock goes into those
proofs.  The per-``T`` ILPs are completely independent, so
:func:`race_periods` dispatches a window of admissible periods to an
executor and collects outcomes as they land.  One driver
(:func:`_race_cells`) does this for every mode, and one rule picks its
executor (:func:`_cell_executor`): a supervision policy or ``jobs>=2``
runs it on a supervised worker pool
(:class:`repro.supervision.SupervisedExecutor`), and ``jobs=1`` without
a policy runs it in-process on an
:class:`~repro.supervision.executor.InlineExecutor`.  A supervised
sequential sweep (``schedule_loop(supervision=...)``) is this driver at
``jobs=1``.

* the **winner** is the smallest ``T`` whose solve returned a feasible
  point — exactly what the sequential sweep would have found;
* outstanding work at **larger** periods is dropped the moment a
  winner is known (queued cells are cancelled, running ones killed);
* work at **smaller** periods is always awaited, because rate-optimality
  (:attr:`SchedulingResult.is_rate_optimal_proven`) is a claim about
  those periods: the win only counts once every smaller admissible ``T``
  has come back INFEASIBLE.  A smaller period that lands feasible late
  *replaces* the provisional winner.

A cell that crashes, hangs past its deadline, OOMs or raises fails
**only its own candidate period**: the failure is recorded on that
attempt as a :class:`~repro.supervision.records.FailureRecord` (after
the policy's retries) and the race keeps going with the surviving
candidates.  On SIGINT/SIGTERM the race settles to its best-known
incumbent — the provisional winner or the heuristic schedule — with a
``degraded`` marker instead of raising.

Every attempt funnels through :func:`repro.core.scheduler.attempt_period`
— the same body the sequential driver runs — so the two drivers return
identical achieved periods and proof flags (asserted corpus-wide by
``tests/test_parallel_equivalence.py``).

**Portfolio racing** (``backend="portfolio"`` or an explicit
``backends=(...)`` roster) widens the race from periods to
``(period x backend)`` pairs: every candidate ``T`` is attempted by
every solver in the roster simultaneously, and

* the **first backend** to deliver a verdict settles its period for the
  whole roster — a feasible point makes it the (provisional) winner and
  same-/larger-``T`` losers are *killed* (running workers reaped with
  bounded TERM->KILL escalation, queued tasks dropped); an INFEASIBLE
  proof cancels the sibling backends still chewing on that period;
* a backend that crashes or errors on a period it cannot express (the
  SAT backend only lowers feasibility formulations) loses **only its
  own (period, backend) cell** — the siblings keep racing, so the
  portfolio's verdict per period is as strong as its strongest member;
* the achieved period and proof flag are identical to any single
  backend's (agreement is structural: every cell funnels through
  ``attempt_period``) — only wall-clock changes, tracking whichever
  backend is fastest per period.

Per-period losers are recorded as ``"cancelled"`` attempts tagged with
their backend, and :attr:`SchedulingResult.portfolio` carries the
roster plus kill/cancel counters for the batch report.
"""

from __future__ import annotations

import dataclasses
import os
import time
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.bounds import lower_bounds, modulo_feasible_t
from repro.core.errors import SchedulingError
from repro.core.schedule import Schedule
from repro.core.scheduler import (
    HEURISTIC,
    AttemptConfig,
    AttemptOutcome,
    ScheduleAttempt,
    SchedulingResult,
    attempt_period,
    heuristic_attempt,
    heuristic_pass,
)
from repro.ddg.graph import Ddg
from repro.ilp.solution import SolveStatus
from repro.machine import Machine
from repro.supervision.executor import (
    RUNNING,
    InlineExecutor,
    SupervisedExecutor,
    SupervisedTask,
)
from repro.supervision.records import (
    DEGRADED,
    INTERRUPTED,
    FailureRecord,
    SupervisionPolicy,
)
from repro.supervision.signals import interrupted

#: Attempt status recorded for periods abandoned after a smaller win.
CANCELLED = "cancelled"

#: Statuses that settle a period as "no schedule exists here".
_PROOFS = (SolveStatus.INFEASIBLE.value, "modulo_infeasible")

#: Backends a portfolio roster may name (``auto`` excluded on purpose —
#: a roster is exactly the set of *distinct* solvers to race).
PORTFOLIO_BACKENDS = ("highs", "bnb", "sat")


def default_jobs() -> int:
    """Worker count when the caller does not choose one."""
    return max(1, os.cpu_count() or 1)


def default_portfolio(objective: str = "feasibility") -> Tuple[str, ...]:
    """The backends worth racing for ``objective`` on this interpreter.

    HiGHS joins only when scipy's MILP interface imports; the SAT
    backend joins only under the pure-feasibility objective (it lowers
    the presolved feasibility formulation, nothing else).  The built-in
    branch-and-bound is always present, so the roster is never empty.
    """
    roster: List[str] = []
    try:
        from scipy.optimize import milp  # noqa: F401

        roster.append("highs")
    except ImportError:
        pass
    roster.append("bnb")
    if objective == "feasibility":
        roster.append("sat")
    return tuple(roster)


def _resolve_roster(
    backend: str, backends: Optional[Sequence[str]], objective: str
) -> Tuple[str, ...]:
    """The backends a run races, checked against ``objective``.

    An explicit ``backends`` list is validated; ``backend="portfolio"``
    is :func:`default_portfolio`; any other backend is a roster of one,
    which gets the same objective check, so a SAT run under a
    non-feasibility objective is refused before anything is dispatched.
    """
    if backends is not None:
        return _validate_roster(backends, objective)
    if backend == "portfolio":
        return default_portfolio(objective)
    roster = (backend,)
    _check_objective(roster, objective)
    return roster


def _check_objective(roster: Tuple[str, ...], objective: str) -> None:
    if "sat" in roster and objective != "feasibility":
        raise SchedulingError(
            "the sat backend only solves the feasibility objective; "
            f"drop it from the roster or use objective='feasibility' "
            f"(got {objective!r})"
        )


def _validate_roster(
    backends: Sequence[str], objective: str
) -> Tuple[str, ...]:
    roster = tuple(backends)
    if not roster:
        raise SchedulingError("portfolio roster must name >= 1 backend")
    seen = set()
    for name in roster:
        if name not in PORTFOLIO_BACKENDS:
            raise SchedulingError(
                f"unknown portfolio backend {name!r}; expected a subset "
                f"of {PORTFOLIO_BACKENDS}"
            )
        if name in seen:
            raise SchedulingError(
                f"portfolio roster lists {name!r} twice"
            )
        seen.add(name)
    _check_objective(roster, objective)
    return roster


def _init_worker(time_budget: Optional[float]) -> None:
    """Pool initializer: cap every solve in this worker process."""
    from repro.ilp import solve as solve_module

    solve_module.set_process_time_budget(time_budget)


def race_periods(
    ddg: Ddg,
    machine: Machine,
    backend: str = "auto",
    objective: str = "feasibility",
    mapping: Optional[bool] = None,
    time_limit_per_t: Optional[float] = 30.0,
    max_extra: int = 10,
    verify: bool = True,
    repair_modulo: bool = False,
    presolve: bool = True,
    jobs: Optional[int] = None,
    window: Optional[int] = None,
    warmstart: bool = True,
    incremental: bool = True,
    policy: Optional[SupervisionPolicy] = None,
    store=None,
    backends: Optional[Sequence[str]] = None,
) -> SchedulingResult:
    """Drop-in parallel replacement for :func:`repro.core.schedule_loop`.

    ``jobs`` is the worker-process count (default: CPU count); ``window``
    caps how many cells may be in flight at once (default:
    ``2 * jobs``), bounding speculative work beyond the eventual winner.
    One driver runs every mode.  With ``jobs=1`` cells run one at a time
    in increasing-T order, so the achieved period and proof match the
    sequential driver; without a ``policy`` they run in-process on an
    :class:`~repro.supervision.executor.InlineExecutor`.  A ``policy``
    or any larger ``jobs`` always runs them on the supervised pool, even
    when only one period is left to dispatch.

    With ``warmstart`` (the default) the iterative modulo heuristic runs
    once in the parent process before any dispatch: its achieved II caps
    the candidate range (periods above it can never win), settles its own
    period outright under the feasibility objective (the race then only
    chases smaller periods), and otherwise seeds the II-period solve with
    the heuristic incumbent.

    ``policy`` tunes the supervision guard-rails (deadline, memory cap,
    retries, backoff) and means the same at every ``jobs``.  A policy
    without a deadline (and the default policy of a ``jobs>=2`` race)
    derives each candidate's deadline from ``time_limit_per_t``, so a
    solver that ignores its budget is killed rather than trusted.
    ``schedule_loop(supervision=policy)`` is this race at ``jobs=1``.

    ``store`` (a :class:`repro.store.ScheduleStore` or path) is
    consulted before the heuristic pre-pass or any dispatch: a verified
    hit returns immediately without spawning workers, and a clean cold
    result is published back for future runs.

    With ``incremental`` (the default) every worker process self-serves
    a :class:`~repro.core.incremental.SweepContext` from its own
    per-process registry inside :func:`attempt_period` — nothing crosses
    a pickle boundary, and a worker handling several periods of the same
    loop reuses the shared analysis and banked cuts across them.

    ``backend="portfolio"`` (or an explicit ``backends`` roster) races
    every solver over every candidate period and takes the first
    verdict per period, killing the losers — see the module docstring.
    The achieved period, schedule validity and proof flag are the same
    as any single backend's; the backend column and the wall-clock are
    what change.  With ``jobs=1`` the portfolio is an ordered fallback
    chain per period: backends run in roster order until one settles
    the period, the rest are recorded cancelled.
    """
    if max_extra < 0:
        raise SchedulingError(f"max_extra must be >= 0, got {max_extra}")
    jobs = jobs if jobs is not None else default_jobs()
    if jobs < 1:
        raise SchedulingError(f"jobs must be >= 1, got {jobs}")
    window = window if window is not None else 2 * jobs
    if window < 1:
        raise SchedulingError(f"window must be >= 1, got {window}")
    roster = _resolve_roster(backend, backends, objective)
    # A one-solver "portfolio" is just that solver.
    backend = roster[0] if len(roster) == 1 else "portfolio"
    config = AttemptConfig(
        backend=backend,
        objective=objective,
        mapping=mapping,
        time_limit=time_limit_per_t,
        verify=verify,
        repair_modulo=repair_modulo,
        presolve=presolve,
        warmstart=warmstart,
        incremental=incremental,
    )
    start_clock = time.monotonic()
    store_stats = None
    if store is not None:
        from repro.store import open_store
        from repro.store.tiering import lookup as store_lookup

        store = open_store(store)
        stored, store_stats = store_lookup(
            store, ddg, machine, config, max_extra
        )
        if stored is not None:
            stored.store = store_stats
            stored.total_seconds = time.monotonic() - start_clock
            return stored
    bounds = lower_bounds(ddg, machine)
    ws, ws_stats = heuristic_pass(ddg, machine, config, max_extra)
    upper = bounds.t_lb + max_extra
    if ws is not None and ws.ii is not None:
        upper = min(upper, ws.ii)
    candidates = list(range(bounds.t_lb, upper + 1))

    # Classify up front: periods failing the modulo scheduling constraint
    # are recorded without a solve (the worker would re-derive the same
    # answer) — unless delay-insertion repair may rescue them, in which
    # case the worker must try.  The heuristic's own period is either
    # settled here (feasibility) or flagged to carry the incumbent.
    attempts: Dict[int, ScheduleAttempt] = {}
    dispatch: List[int] = []
    initial: Optional[AttemptOutcome] = None
    incumbent: Optional[Schedule] = None
    incumbent_t: Optional[int] = None
    for t_period in candidates:
        if ws is not None and ws.ii == t_period:
            if objective == "feasibility":
                attempts[t_period] = heuristic_attempt(ws)
                initial = AttemptOutcome(
                    attempt=attempts[t_period], schedule=ws.schedule
                )
                continue
            incumbent = ws.schedule
            incumbent_t = t_period
        if not repair_modulo and not modulo_feasible_t(
            ddg, machine, t_period
        ):
            attempts[t_period] = ScheduleAttempt(
                t_period=t_period, status="modulo_infeasible"
            )
        else:
            dispatch.append(t_period)

    winner, recs, kill_stats = _race_cells(
        ddg, machine, dispatch, config, roster, jobs, window,
        time_limit_per_t, policy,
        initial=initial, incumbent=incumbent, incumbent_t=incumbent_t,
    )
    losers: List[ScheduleAttempt] = []
    for t_period, cell_attempts in recs.items():
        rep = _period_rep(cell_attempts)
        attempts[t_period] = rep
        losers.extend(a for a in cell_attempts if a is not rep)
    portfolio_stats: Optional[Dict[str, object]] = None
    if len(roster) > 1:
        portfolio_stats = {
            "backends": list(roster),
            # The backend that produced the winning attempt; falls back
            # to the status label for wins no solver produced (a
            # heuristic settle or a degraded incumbent).
            "winner_backend": (
                (winner.attempt.backend or winner.attempt.status)
                if winner is not None else None
            ),
        }
        portfolio_stats.update(kill_stats)

    degraded = False
    if winner is None and incumbent is not None:
        failed = attempts.get(incumbent_t)
        lost = failed is not None and failed.failure is not None
        if lost or interrupted():
            # The exact solve at the heuristic's period was lost to a
            # crash/hang/interrupt, but the heuristic schedule itself is
            # verified: settle to it rather than report nothing.
            attempts[incumbent_t] = ScheduleAttempt(
                t_period=incumbent_t, status=DEGRADED,
                warm_started=True,
                failure=failed.failure if lost else None,
            )
            winner = AttemptOutcome(
                attempt=attempts[incumbent_t], schedule=incumbent
            )
            degraded = True
    if winner is not None and any(
        a.failure is not None
        for a in attempts.values()
        if a.t_period < winner.attempt.t_period
    ):
        # The win stands, but a smaller period was lost to a failure or
        # interrupt: optimality below the winner is unproven.
        degraded = True

    # One attempt per period for single-backend races; per-(period,
    # backend) cells for portfolios.  Sorted by (T, backend) so the log
    # is deterministic; the per-period proof scan is order-independent.
    ordered = sorted(
        list(attempts.values()) + losers,
        key=lambda a: (a.t_period, a.backend),
    )
    if winner is None and not ordered:
        raise SchedulingError(
            f"no candidate periods for loop {ddg.name!r} "
            f"(T_lb={bounds.t_lb}, max_extra={max_extra})"
        )
    ws_stats.ilp_solves = sum(
        1 for a in ordered
        if a.status not in ("modulo_infeasible", HEURISTIC, CANCELLED,
                            DEGRADED)
        and a.failure is None
    )
    result = SchedulingResult(
        loop_name=ddg.name,
        bounds=bounds,
        attempts=ordered,
        schedule=winner.schedule if winner is not None else None,
        total_seconds=time.monotonic() - start_clock,
        warmstart=ws_stats,
        degraded=degraded,
        store=store_stats,
        portfolio=portfolio_stats,
    )
    if store is not None:
        from repro.store.tiering import publish as store_publish

        store_publish(
            store, ddg, machine, config, max_extra, result,
            stats=store_stats,
        )
    return result


def _period_rep(cells: List[ScheduleAttempt]) -> ScheduleAttempt:
    """The attempt that best summarizes one period's portfolio cells.

    Priority: a feasible point, then an infeasibility proof, then a
    clean non-verdict (timeout), then a cancellation, then a failure.
    The representative is what the period-level post-processing reads:
    the incumbent fallback checks its ``failure``, and the degraded
    scan sees a failure only when *every* backend at the period failed
    — one backend crashing while a sibling delivered (or at least ran
    cleanly) must not degrade the result.
    """
    def rank(attempt: ScheduleAttempt) -> int:
        if attempt.status in _PROOFS:
            return 1
        if attempt.failure is not None:
            return 4
        if attempt.status == CANCELLED:
            return 3
        if attempt.status == SolveStatus.TIME_LIMIT.value:
            return 2
        return 0  # feasible/optimal/heuristic/degraded

    return min(cells, key=lambda a: (rank(a), a.backend))


def _cell_executor(
    jobs: int,
    cells: int,
    policy: Optional[SupervisionPolicy],
    time_budget: Optional[float],
):
    """The executor a driver runs its cells on.

    ``jobs=1`` without a policy runs every cell in this process
    (:class:`~repro.supervision.executor.InlineExecutor`).  A policy, or
    ``jobs>=2``, always gets a supervised pool of at most one worker per
    cell, so deadlines and crash isolation hold even for a single cell.
    """
    if jobs == 1 and policy is None:
        return InlineExecutor()
    return SupervisedExecutor(
        max_workers=min(jobs, max(1, cells)),
        policy=policy,
        initializer=_init_worker,
        initargs=(time_budget,),
    )


def _race_cells(
    ddg: Ddg,
    machine: Machine,
    dispatch: List[int],
    config: AttemptConfig,
    roster: Tuple[str, ...],
    jobs: int,
    window: int,
    time_budget: Optional[float],
    policy: Optional[SupervisionPolicy],
    initial: Optional[AttemptOutcome] = None,
    incumbent: Optional[Schedule] = None,
    incumbent_t: Optional[int] = None,
):
    """Windowed race over ``(period x backend)`` cells.

    A single-backend race is a roster of one.  Dispatch order is
    ``(T, roster index)`` increasing, so every backend gets the
    smallest open period before anyone speculates upward.  First
    verdict per period wins it for the roster:

    * feasible -> provisional winner; every cell at or beyond the
      winning period is killed (running workers included — bounded
      TERM->KILL escalation via
      :meth:`~repro.supervision.SupervisedExecutor.kill_task`);
    * INFEASIBLE / modulo-infeasible -> the period is settled, sibling
      backends still racing it are killed;
    * crash/hang/oom/solver-error -> that cell alone fails; siblings
      carry the period.

    ``initial`` (when given) is a provisional winner from the heuristic
    pre-pass: only smaller periods remain in ``dispatch``.
    ``incumbent`` rides along to the ``incumbent_t`` cells as the MIP
    start.  Cell deadlines default to the per-period solver budget.

    ``kill_stats`` counts actual executor actions (running workers
    killed vs queued tasks dropped); cells that never reported are
    backfilled without counting.  Attempts are tagged with their
    backend only for a real portfolio.
    """
    portfolio = len(roster) > 1
    winner: Optional[AttemptOutcome] = initial
    deadline = time_budget
    if policy is not None and policy.deadline is not None:
        deadline = policy.deadline
    reason = "race interrupted (SIGINT/SIGTERM)"
    configs = {
        name: dataclasses.replace(config, backend=name) for name in roster
    }
    recs: Dict[int, List[ScheduleAttempt]] = defaultdict(list)
    kill_stats = {"killed_running": 0, "cancelled_queued": 0}
    pending: List[Tuple[int, str]] = [
        (t, name) for t in dispatch for name in roster
    ]
    settled: set = set()
    reported: set = set()  # (period, backend) cells with a record
    in_flight: Dict[SupervisedTask, Tuple[int, str]] = {}
    executor = _cell_executor(jobs, len(pending), policy, time_budget)

    def record(t_period: int, name: str, attempt: ScheduleAttempt) -> None:
        if portfolio and not attempt.backend:
            attempt.backend = name
        recs[t_period].append(attempt)
        reported.add((t_period, name))

    def record_lost(t_period: int, name: str, status: str,
                    failure: Optional[FailureRecord] = None) -> None:
        record(t_period, name, ScheduleAttempt(
            t_period=t_period, status=status,
            seconds=failure.elapsed if failure is not None else 0.0,
            failure=failure,
        ))

    def reap_loser(task: SupervisedTask, t_period: int, name: str) -> None:
        was_running = task.state == RUNNING
        if executor.kill_task(task):
            key = "killed_running" if was_running else "cancelled_queued"
            kill_stats[key] += 1
            del in_flight[task]
            record_lost(t_period, name, CANCELLED)
        # kill_task returning False means the task already finished:
        # leave it in flight so the next poll records its real outcome.

    try:
        while True:
            if interrupted():
                for task in executor.abort(INTERRUPTED, reason):
                    key = in_flight.pop(task, None)
                    if key is not None:
                        record_lost(*key, task.failure.kind, task.failure)
                break
            best_t = (
                winner.attempt.t_period if winner is not None else None
            )
            # Losers die the moment they can no longer change the
            # outcome: any cell at a settled period, and — once a
            # winner exists — every cell at or beyond its period.
            for task, (t_period, name) in list(in_flight.items()):
                if t_period in settled or (
                    best_t is not None and t_period >= best_t
                ):
                    reap_loser(task, t_period, name)
            pending = [
                (t, name) for (t, name) in pending
                if t not in settled and (best_t is None or t < best_t)
            ]
            if not pending and not in_flight:
                break
            while pending and len(in_flight) < window:
                t_period, name = pending.pop(0)
                task = executor.submit(
                    attempt_period, ddg, machine, t_period,
                    configs[name],
                    incumbent=(
                        incumbent if t_period == incumbent_t else None
                    ),
                    tag=(t_period, name),
                    deadline=deadline,
                )
                in_flight[task] = (t_period, name)
            for task in executor.poll(timeout=0.25):
                key = in_flight.pop(task, None)
                if key is None:
                    continue
                t_period, name = key
                if task.failure is not None:
                    # The cell died (crash/hang/oom/solver error) after
                    # the policy's retries: record it, keep racing.
                    record_lost(
                        t_period, name, task.failure.kind, task.failure
                    )
                    continue
                outcome = task.result
                record(t_period, name, outcome.attempt)
                if outcome.schedule is not None:
                    settled.add(t_period)
                    if (winner is None
                            or t_period < winner.attempt.t_period):
                        winner = outcome
                elif outcome.attempt.status in _PROOFS:
                    settled.add(t_period)
    finally:
        executor.shutdown()
    # Cells that never got to report are backfilled so every (period,
    # backend) pair appears exactly once in the log: dropped after a
    # settle made them moot -> cancelled; still owed below the winner
    # (only an interrupt leaves those) -> interrupted, so the result
    # counts as degraded and is never published as a proof.
    best_t = winner.attempt.t_period if winner is not None else None
    for t_period in dispatch:
        moot = t_period in settled or (
            best_t is not None and t_period >= best_t
        )
        for name in roster:
            if (t_period, name) in reported:
                continue
            if moot:
                record_lost(t_period, name, CANCELLED)
            else:
                record_lost(t_period, name, INTERRUPTED,
                            FailureRecord(INTERRUPTED, detail=reason))
    return winner, recs, kill_stats
