"""Benchmark of cellhom: one workload, run in a fresh worker process.

Usage (from the root of a checkout):

    python3 cellbench/run.py --workload mc-bulk --seed 1 --seconds 30 --trace 0

The command builds nothing: it runs the ``src/`` tree of the checkout.
It times set-up in fresh interpreters, runs the workload in one worker
process (``worker.py``), checks every output against references
computed apart from the program (``checks.py``) and prints, as its last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from checks import check_cohesive, check_mc_round, self_test
from workloads import WORKLOADS, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4  # set-up-only worker starts timed per run, besides the real worker's
WORKER_TIMEOUT_S = 150.0
# one worker, and single-threaded native libraries inside it
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def fail(msg, code):
    print(f"cellbench: {msg}", file=sys.stderr)
    sys.exit(code)


def start_worker(args, out, setup_only):
    """Spawn the worker and wait for its ``ready`` line; returns (proc, setup seconds)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_ENV)
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", str(out),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup_s = perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        fail(f"worker did not start (got {line!r})", 4)
    return proc, setup_s


def finish(proc):
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("worker timed out", 5)
    if proc.returncode != 0:
        fail(f"worker exited {proc.returncode}", 6)
    return stdout


def evaluate(workload, seed, rounds):
    """Apply the checks to every round; returns (errors, attempted, failed, scaled values)."""
    errors, attempted, failed, scaled = [], 0, 0, []
    if workload == "mc-bulk":
        seeds = make_inputs(workload, seed)["seeds"]
        for rnd in rounds:
            errs, rows = check_mc_round(rnd["exit_code"], rnd["results_csv"], rnd["diagnostics_csv"], seeds)
            errors += errs
            attempted += len(seeds)
            ok_rows = [r for r in rows if r["converged"] == "True"]
            failed += len(seeds) if rnd["exit_code"] == 1 else len(seeds) - len(ok_rows)
            scaled += [float(r["scaled_value"]) for r in rows]
    else:
        for rnd in rounds:
            cells = rnd["cells"]
            attempted += len(cells)
            done = [c for c in cells if not c["failed"]]
            failed += sum(1 for c in cells if c["failed"] or not c["converged"])
            errors += check_cohesive(workload, done)
            if len(done) < len(cells):
                errors.append(f"{len(cells) - len(done)} solve(s) raised")
            scaled += [c["scaled"] for c in done]
    return errors, attempted, failed, scaled


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "cellhom" / "__init__.py").is_file():
        fail(f"no cellhom source tree under {ROOT / 'src'}", 2)
    problems = self_test()
    if problems:
        fail("check self-test failed: " + "; ".join(problems), 3)

    out = ROOT / ".cellbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"

    def probe_setup():
        proc, setup_s = start_worker(args, out, setup_only=True)
        finish(proc)
        return setup_s

    # a discarded warm-up fills the bytecode and file caches; the timed
    # set-ups straddle the workload so that one slow moment weighs less
    probe_setup()
    setup_samples = [probe_setup() for _ in range(SETUP_PROBES // 2)]
    proc, setup_s = start_worker(args, out, setup_only=False)
    setup_samples.append(setup_s)
    raw = finish(proc).strip().splitlines()[-1]
    setup_samples += [probe_setup() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    (out / "worker.json").write_text(raw)
    result = json.loads(raw)

    rounds = result["rounds"]
    errors, attempted, failed, scaled = evaluate(args.workload, args.seed, rounds)
    for e in errors[:20]:
        print(f"CHECK FAIL: {e}", file=sys.stderr)
    if not scaled:
        fail("no cell solve produced a value", 7)

    if args.trace:
        metrics = result["layers"]
    else:
        cells = result["cell_s"]
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            # cells in the fixed list over the median time of one pass over it
            "cells_per_s": {"value": len(cells) / len(rounds) / statistics.median(result["round_s"]), "unit": "1/s"},
            "cell_s_p50": {"value": statistics.median(cells), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "scaled_value_mean": {"value": statistics.fmean(scaled), "unit": "1"},
        }
    print(
        f"{args.workload} seed={args.seed} rounds={len(rounds)} "
        f"attempted={attempted} failed={failed} check_failures={len(errors)}"
    )
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
