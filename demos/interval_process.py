"""The interval process behind the stochastic surface limit.

The scaled interface minimum on lattice-compatible rotated boxes,

    mu(A') = m_s(smoothed jump, M R (A' x [-c, c))) / M^{n-1},

is a set function over (n-1)-dimensional half-open intervals A'.  Three
structural facts make the ergodic limit work, and all three are visible
at desk scale:

* covariance: shifting A' by a lattice vector equals shifting the
  coefficient field by the matching lattice vector in the interface
  plane (exact here, by construction of the hashed coefficients);
* subadditivity: the minimum over a box is at most the sum of the minima
  over a partition (glued competitors);
* volume bound: the smoothed-jump competitor caps mu by
  C |zeta| * max-ramp-slope * measure(A').
"""

import numpy as np

from cellhom import make_checkerboard, shift, subadditive_process_eval
from cellhom.homogenise import lattice_period
from cellhom.verify import RAMP_SLOPE_MAX

model = make_checkerboard(3, 1.0, 2.0)
ZETA = [1.0]

print("axis-aligned normal (0, 1): lattice period M = 1")
whole = subadditive_process_eval(model, ZETA, (0.0, 1.0), [(0.0, 2.0)], h=0.25).extrapolated
left = subadditive_process_eval(model, ZETA, (0.0, 1.0), [(0.0, 1.0)], h=0.25).extrapolated
right = subadditive_process_eval(model, ZETA, (0.0, 1.0), [(1.0, 2.0)], h=0.25).extrapolated
print(f"  mu([0,2)) = {whole:.4f} <= mu([0,1)) + mu([1,2)) = {left:.4f} + {right:.4f} = {left + right:.4f}")
C = model.base.C * max(model.a_max, 1.0 / model.a_min)
print(f"  volume bound per unit interval: C * |zeta| * {RAMP_SLOPE_MAX} = {C * RAMP_SLOPE_MAX:.2f}")

print()
print("rational normal (3/5, 4/5): lattice period M = 5")
nu = (0.6, 0.8)
M, rot = lattice_period(nu)
z_nu = np.round(M * rot.matrix @ np.array([1.0, 0.0])).astype(int)
print(f"  M = {M}, in-plane lattice step for A' -> A' + 1 is {tuple(int(v) for v in z_nu)}")
a = subadditive_process_eval(model, ZETA, nu, [(1.0, 2.0)], h=0.25).extrapolated
b = subadditive_process_eval(shift(model, z_nu), ZETA, nu, [(0.0, 1.0)], h=0.25).extrapolated
print(f"  mu(model, A'+1) = {a:.10f}")
print(f"  mu(shifted,  A') = {b:.10f}")
print(f"  covariance defect: {abs(a - b):.2e} (exact up to float noise)")
