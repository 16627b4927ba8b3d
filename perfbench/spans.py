"""In-memory spans around the layers' public entry points.

Nothing in ``src/`` is instrumented.  ``Tracer.install`` replaces each
entry point below with a wrapper that records a span (name, start, end,
parent) and, for a few, a count read off the call's result; ``uninstall``
puts the originals back.  Functions are replaced wherever a ``repro``
module holds a reference to them (``from x import f`` copies the
reference), methods on their class.  Spans stay in memory until the run
reads them.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Tuple


def _built_rows(tracer, args, result, before):
    formulation = args[0]
    if not before:
        tracer.counts["core.build_calls"] += 1
        tracer.counts["core.rows"] += formulation.model.num_constraints


def _sat_conflicts(tracer, args, result, before):
    tracer.counts["sat.conflicts"] += result.stats.conflicts


def _store_hit(tracer, args, result, before):
    if result[0] is not None:
        tracer.counts["store.hits"] += 1


def _was_built(args):
    return args[0]._built


#: (span name, module, attribute path, hook on the result, state before).
TARGETS: List[Tuple] = [
    ("ddg.parse", "repro.ddg.builders", "parse_ddg", None, None),
    ("ddg.canonical", "repro.ddg.canonical", "canonical_form", None, None),
    ("core.bounds", "repro.core.bounds", "lower_bounds", None, None),
    ("core.heuristic", "repro.core.warmstart", "compute_warmstart",
     None, None),
    ("core.presolve", "repro.core.presolve", "presolve", None, None),
    ("core.build", "repro.core.formulation", "Formulation.build",
     _built_rows, _was_built),
    ("core.solve", "repro.core.formulation", "Formulation.solve", None, None),
    ("core.extract", "repro.core.formulation", "Formulation.extract",
     None, None),
    ("core.verify", "repro.core.verify", "verify_schedule", None, None),
    ("ilp.highs", "repro.ilp.highs", "solve_highs", None, None),
    ("ilp.bnb", "repro.ilp.branch_bound", "solve_bnb", None, None),
    ("sat.solve", "repro.sat.backend", "solve_formulation", None, None),
    ("sat.encode", "repro.sat.encode", "encode_formulation", None, None),
    ("sat.search", "repro.sat.solver", "CdclSolver.solve",
     _sat_conflicts, None),
    ("sat.decode", "repro.sat.encode", "decode_model", None, None),
    ("store.lookup", "repro.store.tiering", "lookup", _store_hit, None),
    ("store.publish", "repro.store.tiering", "publish", None, None),
]


class Tracer:
    """Spans and counts for one traced pass."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1]
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []
        self._wrappers: Dict[int, object] = {}

    # -- recording -----------------------------------------------------

    def _wrap(self, name: str, fn: Callable, hook, before_fn):
        tracer = self

        def traced(*args, **kwargs):
            before = before_fn(args) if before_fn is not None else None
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            record = [name, time.perf_counter(), 0.0, parent]
            tracer.spans.append(record)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer._stack.pop()
            tracer.counts[name + ".calls"] += 1
            if hook is not None:
                hook(tracer, args, result, before)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        for name, module_name, path, hook, before_fn in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                wrapper = self._wrap(name, original, hook, before_fn)
                setattr(owner, attr, wrapper)
                self._restore.append((owner, attr, original))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(name, original, hook, before_fn)
            self._wrappers[id(wrapper)] = original
            for mod_name, mod in list(sys.modules.items()):
                if not mod_name.startswith("repro") or mod is None:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        # Modules imported while tracing copied a wrapper: put the
        # original back there too.
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                original = self._wrappers.get(id(value))
                if original is not None:
                    setattr(mod, attr, original)
        self._wrappers.clear()

    # -- reading -------------------------------------------------------

    def self_seconds(self) -> Dict[str, float]:
        """Per span name: total duration minus time covered by child spans."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, parent) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[index]
        return dict(totals)

    def covered_seconds(self) -> float:
        """Wall time covered by top-level spans (they never overlap)."""
        return sum(end - start for _, start, end, parent in self.spans
                   if parent < 0)

    def calls(self, name: str) -> int:
        return self.counts[name + ".calls"]


def traced(run: Callable[[], object]):
    """Run ``run()`` with spans installed; ``(result, wall, tracer)``."""
    tracer = Tracer()
    tracer.install()
    try:
        started = time.perf_counter()
        result = run()
        wall = time.perf_counter() - started
    finally:
        tracer.uninstall()
    return result, wall, tracer


def layer_metrics(tracer: Tracer, traced_wall: float,
                  plain_wall: float) -> dict:
    """Every span-derived per-layer metric of one traced pass."""
    self_s = tracer.self_seconds()
    counts = tracer.counts

    def s(name):
        return self_s.get(name, 0.0)

    lookups = tracer.calls("store.lookup")
    return {
        "ddg.parse_s": s("ddg.parse"),
        "ddg.parse_calls": tracer.calls("ddg.parse"),
        "ddg.canonical_s": s("ddg.canonical"),
        "ddg.canonical_calls": tracer.calls("ddg.canonical"),
        "core.bounds_s": s("core.bounds"),
        "core.bounds_calls": tracer.calls("core.bounds"),
        "core.heuristic_s": s("core.heuristic"),
        "core.heuristic_calls": tracer.calls("core.heuristic"),
        "core.presolve_s": s("core.presolve"),
        "core.build_s": s("core.build"),
        "core.build_calls": counts["core.build_calls"],
        "core.rows": counts["core.rows"],
        "core.solve_s": s("core.solve"),
        "core.extract_s": s("core.extract"),
        "core.verify_s": s("core.verify"),
        "ilp.highs_s": s("ilp.highs"),
        "ilp.highs_calls": tracer.calls("ilp.highs"),
        "ilp.bnb_s": s("ilp.bnb"),
        "ilp.bnb_calls": tracer.calls("ilp.bnb"),
        "sat.encode_s": s("sat.encode"),
        "sat.search_s": s("sat.search"),
        "sat.decode_s": s("sat.decode"),
        "sat.calls": tracer.calls("sat.solve"),
        "sat.conflicts": counts["sat.conflicts"],
        "store.lookup_s": s("store.lookup"),
        "store.lookups": lookups,
        "store.hit_ratio": counts["store.hits"] / lookups if lookups else 0.0,
        "store.publish_s": s("store.publish"),
        "store.publishes": tracer.calls("store.publish"),
        "trace.residue_s": traced_wall - tracer.covered_seconds(),
        "trace.overhead": traced_wall / plain_wall,
    }
