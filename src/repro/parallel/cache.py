"""Per-process LRU caches for bounds and ILP formulation construction.

Corpora routinely contain structurally identical loops (the synthetic
generator reuses small shapes; real compiler corpora repeat idioms), and
the batch runner re-derives ``T_lb`` once for the report and once inside
the driver.  Both lookups are memoized here, keyed on content digests —
``(DDG digest, machine digest)`` for bounds and
``(DDG digest, machine digest, T, options)`` for built formulations — so
two different object instances with identical content share one entry.

Caches are plain per-process globals: each worker of a
:class:`~repro.supervision.SupervisedExecutor` warms its own copy, and
nothing here ever crosses a pickle boundary.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Callable, Dict, Generic, Optional, Tuple, TypeVar

from repro.core.bounds import LowerBounds, lower_bounds
from repro.core.formulation import Formulation, FormulationOptions
from repro.core.warmstart import WarmStart, compute_warmstart
from repro.ddg.builders import serialize_ddg
from repro.ddg.graph import Ddg
from repro.machine import Machine

K = TypeVar("K")
V = TypeVar("V")


class LruCache(Generic[K, V]):
    """A small, None-safe LRU map (``None`` is never a cached value).

    With ``weigh`` and ``max_weight`` the summed weight of the entries
    is bounded too: older entries are evicted until it fits, but the
    newest entry always stays, however heavy.
    """

    def __init__(
        self,
        maxsize: int = 256,
        max_weight: Optional[int] = None,
        weigh: Optional[Callable[[V], int]] = None,
    ) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.max_weight = max_weight
        self._weigh = weigh
        self.weight = 0
        self.hits = 0
        self.misses = 0
        self._data: "OrderedDict[K, V]" = OrderedDict()
        self._weights: Dict[K, int] = {}

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: K) -> Optional[V]:
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: K, value: V) -> None:
        self.pop(key)
        self._data[key] = value
        if self._weigh is not None:
            self._weights[key] = self._weigh(value)
            self.weight += self._weights[key]
        while len(self._data) > self.maxsize or (
            self.max_weight is not None
            and self.weight > self.max_weight
            and len(self._data) > 1
        ):
            self.pop(next(iter(self._data)))

    def pop(self, key: K) -> Optional[V]:
        """Remove and return ``key``'s value (None if absent); no counters."""
        self.weight -= self._weights.pop(key, 0)
        return self._data.pop(key, None)

    def clear(self) -> None:
        self._data.clear()
        self._weights.clear()
        self.weight = 0
        self.hits = 0
        self.misses = 0


def ddg_digest(ddg: Ddg) -> str:
    """Content digest of a DDG (its canonical text serialization)."""
    return hashlib.sha256(serialize_ddg(ddg).encode("utf-8")).hexdigest()


def machine_digest(machine: Machine) -> str:
    """Content digest of a machine description.

    Built from every field that affects scheduling — FU types (count,
    cost, reservation rows) and op classes (FU binding, latency, table
    override) — and *only* those: the display ``name`` is deliberately
    excluded, so two machines differing only in what they are called
    share cache entries.
    """
    parts = []
    for name in sorted(machine.fu_types):
        fu = machine.fu_types[name]
        parts.append(f"fu {name} {fu.count} {fu.cost} {fu.table!r}")
    for name in sorted(machine.op_classes):
        cls = machine.op_classes[name]
        parts.append(f"class {name} {cls.fu_type} {cls.latency} {cls.table!r}")
    blob = "\n".join(parts).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


_BOUNDS_CACHE: LruCache[Tuple[str, str], LowerBounds] = LruCache(1024)
#: Built formulations are the heavy entries (~160 bytes of Python
#: objects per model nonzero), and batch, race and serve workers live
#: for many loops, so their summed nonzeros are capped as well.
FORMULATION_NONZERO_BUDGET = 8_192
_FORMULATION_CACHE: LruCache[tuple, Formulation] = LruCache(
    64,
    max_weight=FORMULATION_NONZERO_BUDGET,
    weigh=lambda f: f.model_stats.nonzeros if f.model_stats else 0,
)
_WARMSTART_CACHE: LruCache[Tuple[str, str, int], WarmStart] = LruCache(512)


def cached_lower_bounds(ddg: Ddg, machine: Machine) -> LowerBounds:
    """Memoized :func:`repro.core.bounds.lower_bounds`."""
    key = (ddg_digest(ddg), machine_digest(machine))
    bounds = _BOUNDS_CACHE.get(key)
    if bounds is None:
        bounds = lower_bounds(ddg, machine)
        _BOUNDS_CACHE.put(key, bounds)
    return bounds


def _options_key(options: FormulationOptions) -> tuple:
    # Deliberately backend-free: a cached formulation is a *model*, and
    # every backend (HiGHS, branch-and-bound, SAT) solves that same
    # model — portfolio cells racing one (loop, T) share a single
    # cached build, and the SAT backend memoizes its CNF on the
    # formulation object itself (`_sat_encoding`), so the lowering
    # piggybacks on this cache too.
    return (
        options.mapping,
        options.objective,
        options.k_max,
        options.symmetry_breaking,
        options.enforce_modulo_constraint,
        options.presolve,
        tuple(sorted(options.fu_costs.items())),
    )


def cached_formulation(
    ddg: Ddg,
    machine: Machine,
    t_period: int,
    options: Optional[FormulationOptions] = None,
) -> Formulation:
    """Memoized, pre-built :class:`Formulation` for ``(ddg, machine, T)``.

    Safe to reuse: ``build()`` is idempotent and solving never mutates
    the model.  Signature matches the ``formulation_builder`` hook of
    :func:`repro.core.scheduler.attempt_period`.
    """
    options = options or FormulationOptions()
    key = (
        ddg_digest(ddg),
        machine_digest(machine),
        t_period,
        _options_key(options),
    )
    formulation = _FORMULATION_CACHE.get(key)
    if formulation is None:
        # Cold builds still draw on the loop's SweepContext: the shared
        # T-independent analysis feeds the build (byte-identical model,
        # less recomputation) and repeated periods of one loop reuse it.
        from repro.core.incremental import context_for

        context = context_for(
            ddg, machine, ddg_key=key[0], machine_key=key[1]
        )
        formulation = Formulation(
            ddg, machine, t_period, options, context=context
        )
        formulation.build()
        _FORMULATION_CACHE.put(key, formulation)
    return formulation


def cached_warmstart(ddg: Ddg, machine: Machine, max_extra: int) -> WarmStart:
    """Memoized :func:`repro.core.warmstart.compute_warmstart`.

    A :class:`WarmStart` is always returned (it records failure as
    ``ii=None``), so every outcome — including "heuristic found
    nothing" — is cacheable.  Signature matches the
    ``warmstart_provider`` hook of :func:`repro.core.scheduler.run_sweep`.
    """
    key = (ddg_digest(ddg), machine_digest(machine), max_extra)
    ws = _WARMSTART_CACHE.get(key)
    if ws is None:
        ws = compute_warmstart(ddg, machine, max_extra=max_extra)
        _WARMSTART_CACHE.put(key, ws)
    return ws


def cache_stats() -> dict:
    """Hit/miss counters for all caches (diagnostics / tests).

    The ``sat_encode`` block mirrors the SAT backend's per-formulation
    CNF memo (an encode is a miss, a reuse is a hit), reported in the
    same hits/misses shape as the LRUs so batch aggregation sums it
    uniformly.
    """
    from repro.core.incremental import incremental_stats
    from repro.sat.backend import encode_stats

    sat = encode_stats()
    return {
        "bounds": {
            "hits": _BOUNDS_CACHE.hits,
            "misses": _BOUNDS_CACHE.misses,
            "size": len(_BOUNDS_CACHE),
        },
        "formulation": {
            "hits": _FORMULATION_CACHE.hits,
            "misses": _FORMULATION_CACHE.misses,
            "size": len(_FORMULATION_CACHE),
        },
        "warmstart": {
            "hits": _WARMSTART_CACHE.hits,
            "misses": _WARMSTART_CACHE.misses,
            "size": len(_WARMSTART_CACHE),
        },
        "sat_encode": {
            "hits": sat["memo_hits"],
            "misses": sat["encodes"],
        },
        "incremental": incremental_stats(),
    }


def clear_caches() -> None:
    """Drop all caches and sweep contexts (tests / long-run memory)."""
    from repro.core.incremental import clear_contexts
    from repro.sat.backend import reset_encode_stats

    _BOUNDS_CACHE.clear()
    _FORMULATION_CACHE.clear()
    _WARMSTART_CACHE.clear()
    reset_encode_stats()
    clear_contexts()
