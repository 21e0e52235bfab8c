"""Worker process of the benchmark: imports the program and runs one workload.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the ``src/`` tree.
It prints ``ready`` once the program is imported and the workload's
inputs are built, then (unless ``--setup-only``) runs whole rounds of
the workload and prints one JSON object with the raw outputs, the
timings and, with ``--trace 1``, the per-layer metrics.

A round is one pass over the workload's fixed list of cells.  Another
round starts only while the elapsed time plus the mean round time stays
within ``--seconds``; at least one round always runs.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import cellhom.cli
import cellhom.homogenise
import cellhom.integrand

from workloads import C1_H, C1_R, C2_H, C2_R, make_inputs


def run_mc_round(cfg_path, out_dir):
    """One ``cellhom mc`` run through the CLI; returns its artifacts."""
    code = cellhom.cli.main(["--config", str(cfg_path), "--out", str(out_dir)])
    read = lambda name: (out_dir / name).read_text() if (out_dir / name).is_file() else ""
    return {"exit_code": code, "results_csv": read("results.csv"), "diagnostics_csv": read("diagnostics.csv")}


def run_cohesive_round(inputs, g, schedule):
    """Every interface cell of the sweep through ``estimate_g_hom``."""
    cells = []
    for c in inputs["cells"]:
        row = {"amplitude": c["amplitude"], "failed": False}
        try:
            est = cellhom.homogenise.estimate_g_hom(g, c["zeta"], c["nu"], schedule)
        except Exception:  # a failed solve is counted, not fatal
            traceback.print_exc()
            row["failed"] = True
        else:
            res = est.per_r_results[0]
            row.update(
                scaled=float(est.scaled_values[0]),
                value=float(res.value),
                trace=[float(e) for e in res.energy_trace],
                converged=bool(res.converged),
            )
        cells.append(row)
    return {"cells": cells}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="directory for artifacts and spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    inputs = make_inputs(args.workload, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.workload == "mc-bulk":
        cfg_path = out / "mc.cfg"
        cfg_path.write_text(inputs["config"])
        artifacts = out / "artifacts"
        do_round = lambda: run_mc_round(cfg_path, artifacts)
    else:
        g = cellhom.integrand.euclid()
        r, h = (C1_R, C1_H) if args.workload == "cohesive-1d" else (C2_R, C2_H)
        schedule = cellhom.homogenise.Schedule((r,), h)
        do_round = lambda: run_cohesive_round(inputs, g, schedule)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        from tracing import Tracer

        probe = Tracer().install()
    else:
        from tracing import CellTimer

        probe = CellTimer().install()

    rounds, round_s = [], []
    t_start = perf_counter()
    while True:
        t0 = perf_counter()
        rounds.append(do_round())
        round_s.append(perf_counter() - t0)
        elapsed = perf_counter() - t_start
        if elapsed + sum(round_s) / len(round_s) > args.seconds:
            break

    result = {
        "rounds": rounds,
        "round_s": round_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        result["layers"] = probe.layer_metrics(len(rounds))
        probe.write_spans(out / "spans.csv")
    else:
        result["cell_s"] = probe.times
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
