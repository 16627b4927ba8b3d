"""The repository's benchmark: one command, three workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload cli-batch --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing traced;
``--trace 1`` makes the separate traced run and reports the per-layer
metrics instead.  Every metric is printed on its own line with its unit;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when any
output check failed.  See README.md for the workloads, the metrics and
why they were chosen.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _units(kind: str) -> dict:
    """Metric name -> unit, from BENCHMARK.json's ``end_to_end``/``per_layer``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


WORKLOADS = {
    "cli-batch": "wl_cli",
    "hazard-portfolio": "wl_hazard",
    "serve-open": "wl_serve",
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is "
              "missing; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    import common
    import probes

    work = ROOT / ".bench_build" / "perfbench" / (
        f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = common.Ctx(work=work, seed=args.seed, seconds=args.seconds,
                     env=env)
    module = importlib.import_module(WORKLOADS[args.workload])
    try:
        if args.trace:
            out = module.trace(ctx)
            out.metrics.update(probes.cli_probes(env))
            out.metrics.update(probes.supervision_roundtrips())
            for name in getattr(module, "OFF_PATH", ()):
                out.metrics[name] = 0
                out.notes[name] = "not on this workload's path"
            units = _units("per_layer")
        else:
            out = module.run(ctx)
            units = _units("end_to_end")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = sorted(set(units) - set(out.metrics))
    if missing:
        raise RuntimeError(f"workload did not report {missing}")
    correct = out.failed == 0 and not out.problems
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  attempted {out.attempted}  "
          f"failed {out.failed}")
    if out.digest:
        print(f"verdict digest {out.digest}")
    for line in out.info:
        print(line)
    for problem in out.problems:
        print(f"CHECK FAILED: {problem}")
    for name, unit in units.items():
        note = out.notes.get(name)
        print(f"{name:28s} {out.metrics[name]:.6g} {unit}"
              + (f"  ({note})" if note else ""))
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": out.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
