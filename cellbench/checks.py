"""Correctness checks on every output, with references computed apart
from the program.

Nothing here imports ``cellhom`` or numpy: the references are closed-form
laws, Jensen's inequality, and the coefficient field of the random
checkerboard rebuilt with a plain-Python SplitMix64 lattice hash.

Every check returns a list of failure messages (empty means passed).
``self_test`` feeds each check one valid and one perturbed value and
confirms that only the perturbed one fails; run it with
``python3 cellbench/checks.py``.
"""

from __future__ import annotations

import csv
import io
import math
import sys

from workloads import C1_TOL, C2_BAND, MC_A_MAX, MC_A_MIN, MC_H, MC_R, MC_XI, cohesive_law

# float slack on inequalities that hold exactly in real arithmetic
REL_SLACK = 1e-9

_M64 = (1 << 64) - 1


def splitmix64(x):
    """SplitMix64 output for state x (state advanced by the golden gamma)."""
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def lattice_uniform(master_seed, cell):
    """Uniform [0, 1) value of integer lattice cell ``cell`` under ``master_seed``."""
    h = splitmix64(master_seed & _M64)
    for c in cell:
        h = splitmix64(h ^ (c & _M64))
    return (h >> 11) / float(1 << 53)


def mc_mean_coefficient(master_seed):
    """Mean checkerboard coefficient over the cells of the r=8, h=0.25 cube.

    The cube is centred at the origin with normal e_2, so its grid is
    axis-aligned on [-r/2, r/2)^2 and cell i along an axis has centre
    -r/2 + h (i + 1/2), inside lattice cell floor(-r/2 + h i).
    """
    d = int(round(MC_R / MC_H))
    lattice = [math.floor(-MC_R / 2 + MC_H * i) for i in range(d)]
    total = 0.0
    for a in lattice:
        for b in lattice:
            total += MC_A_MIN + (MC_A_MAX - MC_A_MIN) * lattice_uniform(master_seed, (a, b))
    return total / (d * d)


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------


def check_trace(trace, value, tag):
    """Accepted-energy trace non-increasing; value no higher than its first entry."""
    errs = []
    for k, (a, b) in enumerate(zip(trace, trace[1:])):
        if b > a + REL_SLACK * (1.0 + abs(a)):
            errs.append(f"{tag}: trace rises at step {k + 1} ({a!r} -> {b!r})")
            break
    if not trace:
        errs.append(f"{tag}: empty energy trace")
    elif value > trace[0] + REL_SLACK * (1.0 + abs(trace[0])):
        errs.append(f"{tag}: value {value!r} above the initial competitor {trace[0]!r}")
    return errs


def check_mc_bounds(master_seed, scaled):
    """a_min |xi| <= scaled value <= mean coefficient * |xi|."""
    xi = math.hypot(*MC_XI)
    lower = MC_A_MIN * xi
    upper = mc_mean_coefficient(master_seed) * xi
    errs = []
    if scaled < lower * (1.0 - REL_SLACK):
        errs.append(f"seed {master_seed}: value {scaled!r} below the Jensen bound {lower!r}")
    if scaled > upper * (1.0 + REL_SLACK):
        errs.append(f"seed {master_seed}: value {scaled!r} above the affine competitor {upper!r}")
    return errs


def check_mc_round(exit_code, results_csv, diagnostics_csv, seeds):
    """Everything one mc-bulk CLI round produced.

    Returns (errors, rows): rows are the parsed results.csv rows.
    """
    errs = []
    if exit_code != 0:
        errs.append(f"cellhom exited {exit_code}")
    rows = list(csv.DictReader(io.StringIO(results_csv)))
    got = [int(r["seed"]) for r in rows]
    if got != list(seeds):
        errs.append(f"results.csv has seeds {got}, expected one row per seed {list(seeds)}")
    traces = {}
    for d in csv.DictReader(io.StringIO(diagnostics_csv)):
        traces.setdefault(int(d["seed"]), []).append(float(d["accepted_energy"]))
    for r in rows:
        seed = int(r["seed"])
        if r["converged"] != "True":
            errs.append(f"seed {seed}: solve unconverged")
        errs += check_mc_bounds(seed, float(r["scaled_value"]))
        trace = traces.get(seed, [])
        if len(trace) != int(r["trace_len"]):
            errs.append(f"seed {seed}: diagnostics trace has {len(trace)} rows, results says {r['trace_len']}")
        errs += check_trace(trace, float(r["raw_value"]), f"seed {seed}")
        if trace and float(r["raw_value"]) != trace[-1]:
            errs.append(f"seed {seed}: value is not the last accepted energy")
    return errs, rows


def check_law(amplitude, value, rel_tol):
    """|value - 2s/(s+2)| <= rel_tol * 2s/(s+2)."""
    law = cohesive_law(amplitude)
    if abs(value - law) > rel_tol * law:
        return [f"|zeta|={amplitude!r}: value {value!r} off the law {law!r} by more than {rel_tol:.0%}"]
    return []


def check_nondecreasing(pairs, tag):
    """Values sorted by amplitude do not decrease."""
    pairs = sorted(pairs)
    for (s0, v0), (s1, v1) in zip(pairs, pairs[1:]):
        if v1 < v0 - REL_SLACK * abs(v0):
            return [f"{tag}: value falls from {v0!r} at |zeta|={s0!r} to {v1!r} at |zeta|={s1!r}"]
    return []


def check_cohesive(workload, cells):
    """Every cell of a cohesive round: law band, monotone sweep, traces, convergence."""
    tol = C1_TOL if workload == "cohesive-1d" else C2_BAND
    errs = []
    for c in cells:
        tag = f"|zeta|={c['amplitude']!r}"
        if not c["converged"]:
            errs.append(f"{tag}: solve unconverged")
        errs += check_law(c["amplitude"], c["scaled"], tol)
        errs += check_trace(c["trace"], c["value"], tag)
    errs += check_nondecreasing([(c["amplitude"], c["scaled"]) for c in cells], workload)
    return errs


# ----------------------------------------------------------------------
# self-test
# ----------------------------------------------------------------------


def self_test():
    """Each check passes a valid value and fails a perturbed one.

    Returns a list of problems; empty means every check discriminates.
    """
    problems = []

    def expect(name, good, bad):
        if good:
            problems.append(f"{name}: rejected a valid value: {good}")
        if not bad:
            problems.append(f"{name}: accepted a perturbed value")

    # published SplitMix64 sequence for state 1234567
    state, seq = 1234567, []
    for _ in range(3):
        seq.append(splitmix64(state))
        state = (state + 0x9E3779B97F4A7C15) & _M64
    if seq != [6457827717110365317, 3203168211198807973, 9817491932198370423]:
        problems.append("splitmix64 does not reproduce the reference sequence")

    seed = 12345
    upper = mc_mean_coefficient(seed)
    if not (MC_A_MIN < upper < MC_A_MAX):
        problems.append(f"mean coefficient {upper} outside ({MC_A_MIN}, {MC_A_MAX})")
    mid = 0.5 * (MC_A_MIN + upper)
    expect("mc lower bound", check_mc_bounds(seed, mid), check_mc_bounds(seed, MC_A_MIN * 0.999))
    expect("mc upper bound", check_mc_bounds(seed, mid), check_mc_bounds(seed, upper * 1.001))

    trace = [3.0, 2.5, 2.5, 2.0]
    expect("trace monotone", check_trace(trace, 2.0, "t"), check_trace([3.0, 2.5, 2.6, 2.0], 2.0, "t"))
    expect("trace competitor", check_trace(trace, 2.0, "t"), check_trace(trace, 3.1, "t"))

    law = cohesive_law(0.5)
    expect("1d law", check_law(0.5, law * 1.019, C1_TOL), check_law(0.5, law * 1.021, C1_TOL))
    expect("2d band", check_law(2.0, 1.0 * (1 + 0.9 * C2_BAND), C2_BAND), check_law(2.0, 1.0 * (1 + 1.1 * C2_BAND), C2_BAND))
    expect(
        "monotone sweep",
        check_nondecreasing([(2.0, 1.0), (0.5, 0.4), (1.0, 0.67)], "s"),
        check_nondecreasing([(2.0, 0.6), (0.5, 0.4), (1.0, 0.67)], "s"),
    )

    seeds = [seed]
    val = mid
    results = (
        "quantity,argument,r,seed,scaled_value,raw_value,iterations,converged,trace_len\n"
        f"f_hom,[1.0 0.0],8.0,{seed},{val!r},{val * 64.0!r},10,True,2\n"
    )
    diags = (
        "quantity,argument,r,seed,step,accepted_energy\n"
        f"f_hom,[1.0 0.0],8.0,{seed},0,{upper * 64.0!r}\n"
        f"f_hom,[1.0 0.0],8.0,{seed},1,{val * 64.0!r}\n"
    )
    expect("mc round", check_mc_round(0, results, diags, seeds)[0], check_mc_round(2, results, diags, seeds)[0])
    expect(
        "mc rows",
        check_mc_round(0, results, diags, seeds)[0],
        check_mc_round(0, results, diags, seeds + [seed + 1])[0],
    )
    expect(
        "mc converged",
        check_mc_round(0, results, diags, seeds)[0],
        check_mc_round(0, results.replace(",True,", ",False,"), diags, seeds)[0],
    )
    return problems


if __name__ == "__main__":
    found = self_test()
    for p in found:
        print("SELF-TEST FAIL:", p)
    print("self-test:", "FAIL" if found else "PASS")
    sys.exit(1 if found else 0)
