"""Orientation dependence of the cohesive surface density.

The cell grid is built in a frame rotated onto the interface normal, so
for the isotropic density the discrete problem is the same for every
normal and the estimate is exactly orientation independent.  A layered
density breaks this: its coefficient field lives on the fixed ambient
lattice while the grid rotates, so the estimate genuinely depends on
the normal (cheapest when the interface plane runs inside a soft
layer).  This script sweeps normals along the upper half-circle and
prints both columns.

This doubles as the empirical probe of how the estimate behaves along a
nu-path: the rotation construction is deterministic in nu, and the
values vary continuously away from the antipodes of the last axis.
"""

import numpy as np

from cellhom import Schedule, estimate_g_hom, euclid, laminate

R, H = 8.0, 0.25
angles = np.linspace(0.1, np.pi - 0.1, 7)

iso = euclid()
layered = laminate(1.0, 2.0)  # the cells integrate its recession, which is itself

print(f"surface density estimates at r = {R:g}, h = {H:g}, jump amplitude 1")
print(f"{'angle/pi':>9} {'nu':>16} {'isotropic':>10} {'layered':>10}")
for th in angles:
    nu = (float(np.cos(th)), float(np.sin(th)))
    sched = Schedule(r_values=(R,), h=H, nu=nu)
    e_iso = estimate_g_hom(iso, [1.0], nu, sched)
    e_lay = estimate_g_hom(layered, [1.0], nu, sched)
    print(
        f"{th / np.pi:9.3f} ({nu[0]:+.3f},{nu[1]:+.3f}) "
        f"{e_iso.extrapolated:10.4f} {e_lay.extrapolated:10.4f}"
    )

print()
print("isotropic column: exactly flat (the grid rotates with the normal);")
print("layered column: the normal sees the layering, cheapest when the")
print("interface plane runs inside a soft layer.")
