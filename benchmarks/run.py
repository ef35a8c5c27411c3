#!/usr/bin/env python3
"""Benchmark of the emocause pipeline on synthetic workloads.

Run from the root of a checkout (no install needed; the package is
imported from ./src):

    python3 benchmarks/run.py --workload corpus-retrieval --seed 1 --seconds 35 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of untraced passes;
with ``--trace 1`` the per-layer metrics of a traced run. Both run the
correctness checks. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it are a readable summary. See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path

WORKLOAD_NAMES = ("corpus-retrieval", "remote-providers")
WORK_DIR = ".bench_work"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True, help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, required=True, help="measurement time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "emocause" / "__init__.py").is_file():
        print(f"error: no emocause sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from bench import Checks, environment, measure, measure_traced
    from stub import ProviderStub
    from workloads import WORKLOADS, write_inputs

    w = WORKLOADS[args.workload]
    (root / WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-seed{args.seed}-", dir=root / WORK_DIR))
    checks = Checks()
    try:
        inputs = write_inputs(w, args.seed, work / "inputs")
        with ProviderStub() if w.remote else nullcontext() as stub:
            if args.trace:
                trace_path = root / WORK_DIR / "traces" / f"{w.name}-seed{args.seed}.json"
                result = measure_traced(w, inputs, args.seconds, work, checks, trace_path, stub)
            else:
                result = measure(w, inputs, args.seconds, work, checks, src, stub)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"environment: {json.dumps(environment(), sort_keys=True)}")
    print(f"workload {w.name} seed {args.seed} trace {args.trace}: {result.passes} passes")
    print(f"  why: {w.why}")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    for note in result.notes:
        print(f"  {note}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
