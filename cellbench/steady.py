"""Steadiness tool: repeat the benchmark and report the spread of each metric.

    python3 cellbench/steady.py --workload mc-bulk --runs 10 --seconds 30

Runs ``run.py`` ``--runs`` times per workload, one seed per run
(``--first-seed``, ``--first-seed`` + 1, ...), one after another, and
prints for each metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the interquartile
range as a share of the median, plus the attempted and failed counts.
For the end-to-end metrics it also prints the bound from BENCHMARK.json
and the ratio spread / bound.  Raw results go to
``.cellbench_out/steady-<workload>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(results, bounds):
    attempted = [r["attempted"] for r in results]
    failed = [r["failed"] for r in results]
    print(f"  runs={len(results)} correct={all(r['correct'] for r in results)} "
          f"attempted={attempted} failed={failed}")
    print(f"  {'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} {'bound':>6s} {'ratio':>6s}")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        line = f"  {name:32s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%}"
        if name in bounds:
            line += f" {bounds[name]:6.2f} {spread / bounds[name]:6.2f}"
        print(line + f"  {first['unit']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = ROOT / ".cellbench_out"
    out.mkdir(exist_ok=True)
    for workload in args.workload:
        results = []
        for k in range(args.runs):
            results.append(run_once(workload, args.first_seed + k, seconds, args.trace))
        (out / f"steady-{workload}-trace{args.trace}.json").write_text(json.dumps(results, indent=1))
        print(f"{workload} (trace={args.trace}, seconds={seconds:g}, seeds {args.first_seed}..{args.first_seed + args.runs - 1})")
        summarise(results, bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
