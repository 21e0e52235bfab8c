"""Workload inputs, drawn from the workload seed.

Pure Python: this module imports nothing from ``cellhom`` so that the
checks in :mod:`checks` can use the same inputs without touching the
program.  The same seed always gives the same inputs.

The amount of work per round is fixed by design:

* ``mc-bulk`` solves a fixed ensemble of realisations, drawn once from
  ``MC_ENSEMBLE_SEED``: the solver's iteration count varies by half
  between realisations (439 to 700 over those tried), so drawing new realisations
  for every workload seed would change the work.  The workload seed
  draws the sign of xi (u -> -u is a symmetry of the problem) and the
  order of the ensemble.
* ``cohesive-1d`` and ``cohesive-2d`` use fixed amplitude sweeps (cell
  cost varies 50-fold with the amplitude), and the seed draws only
  inputs that are equivalent under the symmetries of the isotropic
  density: the sign of each jump, the sign or the rational direction of
  the normal, the direction of the vector jump and the order of the
  sweep.

Values and work therefore stay put across seeds; the seed changes the
inputs the program sees and its floating-point path.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("mc-bulk", "cohesive-1d", "cohesive-2d")

# mc-bulk: scalar fields on an r=8, h=0.25 random checkerboard
MC_R, MC_H = 8.0, 0.25
MC_A_MIN, MC_A_MAX = 1.0, 2.0
MC_XI = (1.0, 0.0)
MC_REALISATIONS = 8
MC_ENSEMBLE_SEED = "cellhom mc-bulk ensemble"

# cohesive-1d: the acceptance-criterion-1 sweep
C1_R, C1_H = 16.0, 0.05
C1_AMPLITUDES = (0.5, 1.0, 2.0, 4.0, 8.0)
C1_TOL = 0.02

# cohesive-2d: vector jumps across rotated rational normals at r=8
C2_R, C2_H = 8.0, 0.25
C2_AMPLITUDES = (1.0, 1.5, 2.0)
C2_BAND = 0.25
C2_NORMALS = ((3, 4, 5), (4, 3, 5), (5, 12, 13), (12, 5, 13), (8, 15, 17), (15, 8, 17))


def cohesive_law(s):
    """The isotropic cohesive law 2|s| / (|s| + 2)."""
    s = abs(s)
    return 2.0 * s / (s + 2.0)


def mc_ensemble():
    """Master seeds of the fixed mc-bulk ensemble: distinct, uniform in [1, 2^31)."""
    rng = random.Random(MC_ENSEMBLE_SEED)
    seeds = []
    while len(seeds) < MC_REALISATIONS:
        s = rng.randrange(1, 2**31)
        if s not in seeds:
            seeds.append(s)
    return seeds


def mc_config(seeds, sign):
    """The ``cellhom`` config of one mc-bulk ensemble with datum sign * xi."""
    return "\n".join(
        [
            "command = mc",
            f"integrand = checkerboard:0,{MC_A_MIN},{MC_A_MAX}",
            "xi = " + ",".join(repr(sign * v + 0.0) for v in MC_XI),
            f"r = {MC_R}",
            f"h = {MC_H}",
            "seeds = " + ",".join(str(s) for s in seeds),
            "mc_quantity = f_hom",
            "",
        ]
    )


def make_inputs(workload, seed):
    """The inputs of one round of ``workload``, as plain data.

    mc-bulk: {"seeds": [...], "config": text}
    cohesive-*: {"cells": [{"amplitude", "zeta", "nu"}, ...]}, in run order.
    """
    rng = random.Random(f"{workload}/{seed}")
    if workload == "mc-bulk":
        seeds = mc_ensemble()
        rng.shuffle(seeds)
        return {"seeds": seeds, "config": mc_config(seeds, rng.choice((-1.0, 1.0)))}
    if workload == "cohesive-1d":
        cells = [
            {"amplitude": s, "zeta": [rng.choice((-1.0, 1.0)) * s], "nu": [rng.choice((-1.0, 1.0))]}
            for s in C1_AMPLITUDES
        ]
    elif workload == "cohesive-2d":
        cells = []
        for a in C2_AMPLITUDES:
            p, q, m = rng.choice(C2_NORMALS)
            nu = [rng.choice((-1, 1)) * p / m, rng.choice((-1, 1)) * q / m]
            theta = rng.uniform(0.0, 2.0 * math.pi)
            cells.append({"amplitude": a, "zeta": [a * math.cos(theta), a * math.sin(theta)], "nu": nu})
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng.shuffle(cells)
    return {"cells": cells}
