"""Seeded end-to-end and per-layer benchmark of the LWDP protocol simulator.

One workload, as one fresh single-threaded process:

    python3 perfbench/run.py --workload scale-smooth --seed 1 --seconds 20 --trace 0

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.  The line before it
holds the run's details (versions, nproc, seed, graph statistics, trial
count, tail percentile, failure reasons).  ``attempted``/``failed`` count
method runs, so ``failed / attempted`` is the failed fraction.  The exit
status is 1 when any output check failed.

Every workload, each in its own process, printed as one table:

    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

The library is imported from the ``src/`` directory next to this one, never
from an installed copy; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import os

# Single-threaded numpy, set before anything imports it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _parse(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds < 0:
        parser.error("--seconds must be nonnegative")
    return args


def _import_bench():
    if not (SRC / "lwdp_triangles" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import bench
    import lwdp_triangles

    if Path(lwdp_triangles.__file__).resolve().parent.parent != SRC:
        print(f"perfbench: imported {lwdp_triangles.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return bench


def run_one(bench, args) -> int:
    w = bench.WORKLOADS[args.workload]
    measure = bench.measure_traced if args.trace else bench.measure
    result = measure(w, args.seed, args.seconds)
    print(json.dumps(result.details))
    print(json.dumps(result.contract_line()))
    return 0 if result.correct else 1


def run_all(bench, args) -> int:
    status = 0
    print(f"{'workload':<14} {'metric':<46} {'value':>14}  unit")
    for name in bench.WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            print(f"{name:<14} failed with status {proc.returncode}")
            status = 1
            continue
        details, result = json.loads(lines[-2]), json.loads(lines[-1])
        rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
        if not args.trace:
            rows.append(("rel_error.mean", details["rel_error.mean"], "frac"))
        rows.append(("failed_frac", details["failed_frac"], "frac"))
        for metric, value, unit in rows:
            print(f"{name:<14} {metric:<46} {value:>14.6g}  {unit}")
        g = details["graph"]
        print(
            f"{name:<14} correct={result['correct']} trials={details['trials']} "
            f"n={g['n']} m={g['m']} triangles={g['triangles']} max_degree={g['max_degree']} "
            f"nproc={details['nproc']} python={details['python']} numpy={details['numpy']}"
        )
        if not result["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    bench = _import_bench()
    args = _parse(argv, bench.WORKLOADS)
    return (run_all if args.workload == "all" else run_one)(bench, args)


if __name__ == "__main__":
    sys.exit(main())
