"""Benchmark inputs: two fixed loop pools and the seeded samples drawn from them.

Every loop a run can see comes from one of two pools generated from fixed
master seeds, because every loop needs an expected verdict that was
cross-checked once, offline, by ``build_expected.py``.  The run's
``--seed`` picks which pool loops it schedules, in which order, and (for
``serve-open``) which requests repeat or rename an earlier loop.  The
same seed therefore always gives the same inputs, and any seed gives
inputs with known verdicts.

* ``mixed``: what ``repro gen --mode mixed --max-ops 12`` writes for
  ``powerpc604`` (guaranteed, DSL and adversarial families), minus the
  loops above 12 ops, which the DSL and adversarial families draw with
  their own size limits.  Used by ``cli-batch`` and ``serve-open``.
* ``hazard``: ``adversarial_params(max_ops=10)`` loops on the
  ``deep-unclean`` machine.  Used by ``hazard-portfolio``.

A loop whose verdict depended on timing while the expected file was built
(highs or sat reached its time limit), or on which the backends or the
exhaustive search disagreed, is kept out of the pool; ``expected.json``
lists it under ``excluded`` with the reason.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

MIXED = "mixed"
HAZARD = "hazard"

#: Pool definitions: machine preset, master seed, loops generated, op cap.
POOLS = {
    MIXED: {"machine": "powerpc604", "seed": 604, "count": 480,
            "max_ops": 12},
    HAZARD: {"machine": "deep-unclean", "seed": 1995, "count": 240,
             "max_ops": 10},
}


@dataclass(frozen=True)
class PoolLoop:
    """One pool loop: its DDG text plus the verdict it must reproduce."""

    name: str
    text: str
    sha256: str
    num_ops: int
    t_lb: int
    #: Achieved period highs and sat agreed on (None: unschedulable
    #: within the sweep's ``max_extra``).
    achieved_t: Optional[int]
    proven: bool


def _families(pool: str, count: int):
    from repro.corpusgen import default_families
    from repro.corpusgen.manifest import KIND_DDG, FamilySpec
    from repro.ddg.generators import GenParams, adversarial_params

    cap = POOLS[pool]["max_ops"]
    if pool == MIXED:
        # The same families `repro gen --mode mixed --max-ops 12` builds.
        base = GenParams(mode="guaranteed", max_ops=cap)
        return default_families(count, mode="mixed", base=base)
    return [FamilySpec("adversarial", count, KIND_DDG,
                       adversarial_params(max_ops=cap))]


def generate(pool: str):
    """Every candidate loop of ``pool`` as ``(name, text, ddg)``, op-capped."""
    from repro.corpusgen.generate import generate_corpus
    from repro.ddg.builders import serialize_ddg
    from repro.machine.presets import by_name

    spec = POOLS[pool]
    machine = by_name(spec["machine"])
    out = []
    for ddg in generate_corpus(spec["seed"], machine,
                               _families(pool, spec["count"])):
        if ddg.num_ops <= spec["max_ops"]:
            out.append((ddg.name, serialize_ddg(ddg), ddg))
    return out


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def load_pool(pool: str, expected: Optional[dict] = None) -> List[PoolLoop]:
    """The checked pool: generated loops that carry an expected verdict.

    Raises ``RuntimeError`` when a generated loop's text no longer
    matches the checksum recorded with its verdict: the generator drifted
    and the expected file must be rebuilt before the numbers mean anything.
    """
    from repro.corpusgen.manifest import sha256_text

    doc = (expected or load_expected())[pool]
    verdicts: Dict[str, dict] = doc["loops"]
    loops = []
    for name, text, ddg in generate(pool):
        verdict = verdicts.get(name)
        if verdict is None:
            continue
        sha = sha256_text(text)
        if sha != verdict["sha256"]:
            raise RuntimeError(
                f"pool {pool}: loop {name} no longer matches its expected "
                "verdict's checksum; rebuild perfbench/expected.json"
            )
        loops.append(PoolLoop(name, text, sha, ddg.num_ops,
                              verdict["t_lb"], verdict["t"],
                              verdict["proven"]))
    if len(loops) != len(verdicts):
        raise RuntimeError(
            f"pool {pool}: {len(verdicts) - len(loops)} expected loop(s) "
            "were not generated; rebuild perfbench/expected.json"
        )
    return loops


def seeded_order(loops: List[PoolLoop], seed: int, salt: str) -> List[PoolLoop]:
    """The pool in the seed's order (``salt`` separates the workloads)."""
    rng = random.Random(f"{salt}:{seed}")
    order = list(loops)
    rng.shuffle(order)
    return order


def cycle_chunks(order: List[PoolLoop], size: int):
    """Endless consecutive chunks of ``size`` loops, wrapping around."""
    start = 0
    while True:
        chunk = [order[(start + k) % len(order)] for k in range(size)]
        start += size
        yield chunk
