"""Reference figures that are not workloads of the benchmark.

    python3 cellbench/reference.py [--repeats 3]

Times, each in a fresh ``python3 -m cellhom.cli`` process:

* ``verify``: the default property suite (its cost is the estimates it
  calls, which the workloads already measure);
* ``fhom`` with two xi rows on a random checkerboard at r=8, h=0.25,
  with ``--jobs 1`` and ``--jobs 2`` (the CLI's thread pool).

Prints the wall times of every repeat and their median.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from run import ROOT, THREAD_ENV

CONFIGS = {
    "verify": "command = verify\n",
    "fhom": "command = fhom\nintegrand = checkerboard:7,1,2\nxi = 1,0\nxi = 0,1\nr = 8\nh = 0.25\n",
}
CASES = (("verify", 1), ("fhom", 1), ("fhom", 2))


def time_case(name, jobs, out):
    cfg = out / f"{name}.cfg"
    cfg.write_text(CONFIGS[name])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_ENV)
    cmd = [sys.executable, "-m", "cellhom.cli", "--config", str(cfg), "--out", str(out / f"{name}-jobs{jobs}"),
           "--jobs", str(jobs)]
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{name} --jobs {jobs}: exit {proc.returncode}\n{proc.stderr}")
    return elapsed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args(argv)
    out = ROOT / ".cellbench_out" / "reference"
    out.mkdir(parents=True, exist_ok=True)
    for name, jobs in CASES:
        times = [time_case(name, jobs, out) for _ in range(args.repeats)]
        shown = ", ".join(f"{t:.2f}" for t in times)
        print(f"{name:6s} --jobs {jobs}: median {statistics.median(times):.2f} s  [{shown}]", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
