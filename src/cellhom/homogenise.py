"""Drivers for the asymptotic cell formulas.

The effective bulk density is the limit of scaled bulk cell minima
m_b(affine xi, Q_r(r x)) / (k^{n-1} r^n) as r grows; the effective
cohesive surface density is the limit of scaled interface minima
m_s(jump zeta nu, Q^nu_r(r x)) / r^{n-1}.  These drivers run the cell
solvers over an r-schedule, scale by the realised discrete geometry
(volume, respectively cross-section), and report the last value together
with the gap between the last two entries rather than asserting a limit.

The recession of the effective bulk density can be estimated by two
routes that must agree: homogenising the recession density, or scaling
out the effective density itself along a t-schedule.

For random models a Monte Carlo layer evaluates the scaled cell value
per seed at fixed r and reports ensemble statistics, and the interval
process evaluates the scaled interface minimum on lattice-compatible
rotated boxes T_nu(A') = M_nu R_nu (A' x [-c, c)), the set function whose
covariance and subadditivity underpin the ergodic limit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .geometry import make_box_cell, make_cell, rotation_for_normal
from .integrand import InputDomainError, Integrand, RandomIntegrandModel
from .solvers import solve_bulk_cell, solve_surface_cell

__all__ = [
    "Schedule",
    "HomEstimate",
    "UnsupportedNormalError",
    "estimate_f_hom",
    "estimate_f_inf_hom",
    "estimate_g_hom",
    "mc_expectation",
    "subadditive_process_eval",
    "lattice_period",
]

DEFAULT_CAUCHY_TOL = 0.05


class UnsupportedNormalError(ValueError):
    """Raised when no integer multiple of the rotation is a lattice matrix."""


@dataclass(frozen=True)
class Schedule:
    """r-schedule for a homogenisation run.

    ``center`` is the blow-up point x: the cell at size r is centred at
    r*x.  ``h`` is kept constant along the schedule.
    """

    r_values: tuple
    h: float = 0.25
    k: int = 1
    center: Optional[tuple] = None
    nu: Optional[tuple] = None

    def __post_init__(self):
        rs = tuple(float(r) for r in self.r_values)
        if not rs or any(a >= b for a, b in zip(rs, rs[1:])):
            raise InputDomainError("r_values must be increasing and non-empty")

    def cell(self, r, n):
        """The cell at size r for n-dimensional data (gradient columns or normal entries)."""
        if self.nu is not None and len(self.nu) != n:
            raise InputDomainError(f"gradient dimension {n} does not match normal dimension {len(self.nu)}")
        center = np.zeros(n) if self.center is None else np.asarray(self.center, dtype=float)
        nu = self.nu
        if nu is None:
            nu = np.zeros(n)
            nu[-1] = 1.0
        return make_cell(center=r * center, side=r, nu=nu, k=self.k, h=self.h)


@dataclass(eq=False)
class HomEstimate:
    """Scaled cell values along an r-schedule with a convergence record.

    ``per_r_results`` holds every cell solve behind the values (for a
    Monte Carlo ``ensemble``, one per seed).  The record reads off them:
    ``extrapolated`` is the last scaled value, ``cauchy_gap`` its gap to
    the one before (0 for a single value), and ``warnings`` flags a gap
    above ``DEFAULT_CAUCHY_TOL`` relative to max(1, |extrapolated|) and
    an unconverged solve.
    """

    quantity: str
    argument: tuple
    r_values: tuple
    scaled_values: np.ndarray
    per_r_results: list
    ensemble: Optional[dict] = None
    route: Optional[str] = None

    def __post_init__(self):
        self.r_values = tuple(self.r_values)
        self.scaled_values = np.asarray(self.scaled_values, dtype=float)

    @property
    def extrapolated(self) -> float:
        return float(self.scaled_values[-1])

    @property
    def cauchy_gap(self) -> float:
        s = self.scaled_values
        return float(abs(s[-1] - s[-2])) if len(s) > 1 else 0.0

    @property
    def warnings(self) -> list:
        warnings = []
        if self.cauchy_gap > DEFAULT_CAUCHY_TOL * max(1.0, abs(self.extrapolated)):
            warnings.append(f"non-Cauchy tail: gap {self.cauchy_gap:.3g} at r={self.r_values[-1]}")
        if any(not res.converged for res in self.per_r_results):
            warnings.append("one or more cell solves unconverged; values are upper bounds")
        return warnings


def estimate_f_hom(g: Integrand, xi, schedule: Schedule) -> HomEstimate:
    """Scaled bulk minima m_b(affine xi, Q_r(r x)) / volume along the schedule."""
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    results, scaled = [], []
    for r in schedule.r_values:
        cell = schedule.cell(r, xi.shape[1])
        res = solve_bulk_cell(cell, g, xi)
        results.append(res)
        scaled.append(res.value / cell.volume)
    return HomEstimate("f_hom", (xi.copy(),), schedule.r_values, scaled, results)


def estimate_f_inf_hom(
    g: Integrand,
    xi,
    route: str,
    schedule: Schedule,
    t_schedule: Sequence[float] = (8.0, 32.0, 128.0),
) -> HomEstimate:
    """Effective recession density by one of two routes.

    ``hom_of_recession`` homogenises the recession density directly;
    ``recession_of_hom`` evaluates the effective density at t*xi over the
    t-schedule, scales by 1/t and reports the largest t.  The two routes
    estimate the same quantity.
    """
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    if route == "hom_of_recession":
        ginf = g.recession_integrand()
        est = estimate_f_hom(ginf, xi, schedule)
        return HomEstimate("f_inf_hom", (xi.copy(),), est.r_values, est.scaled_values, est.per_r_results, route=route)
    if route == "recession_of_hom":
        # one solve per t, at the largest r (the one that feeds the scaled
        # value), so report rows stay aligned with the t-schedule
        last = replace(schedule, r_values=schedule.r_values[-1:])
        values, results = [], []
        for t in t_schedule:
            est = estimate_f_hom(g, t * xi, last)
            values.append(est.extrapolated / t)
            results.append(est.per_r_results[-1])
        return HomEstimate("f_inf_hom", (xi.copy(),), t_schedule, values, results, route=route)
    raise InputDomainError(f"unknown route {route!r}")


def estimate_g_hom(g: Integrand, zeta, nu, schedule: Schedule) -> HomEstimate:
    """Scaled interface minima m_s(jump, Q^nu_r(r x)) / cross-section of the recession of g.

    The cells are k = 1 cubes on the normal ``nu``: the schedule's own
    ``nu`` and ``k`` are replaced, and only its sizes, spacing and
    ``center`` are read.
    """
    zeta = np.asarray(zeta, dtype=float).reshape(-1)
    nu = np.asarray(nu, dtype=float).reshape(-1)
    sched = Schedule(schedule.r_values, schedule.h, 1, schedule.center, tuple(nu))
    results, scaled = [], []
    for r in sched.r_values:
        cell = sched.cell(r, nu.shape[0])
        res = solve_surface_cell(cell, g, zeta)
        results.append(res)
        scaled.append(res.value / cell.cross_section)
    return HomEstimate("g_hom", (zeta.copy(), nu.copy()), sched.r_values, scaled, results)


def mc_expectation(
    model: RandomIntegrandModel,
    quantity: str,
    argument,
    seeds: Sequence[int],
    r: float,
    h: float = 0.25,
    k: int = 1,
) -> HomEstimate:
    """Ensemble of scaled cell values over seed-indexed realisations.

    ``quantity`` is ``"f_hom"`` (argument xi) or ``"g_hom"`` (argument
    (zeta, nu), whose cells see the recession of the realised density).
    Reports per-seed values, mean, sample standard deviation and a
    normal-approximation 95 percent half-width; the across-seed spread is
    the ergodicity diagnostic and should shrink as r grows.
    """
    seeds = list(seeds)
    if len(seeds) < 2:
        raise InputDomainError("Monte Carlo needs at least 2 seeds")
    # a repeated seed repeats its realisation, so the spread would not be over i.i.d. samples
    if len(set(seeds)) < len(seeds):
        raise InputDomainError(f"Monte Carlo seeds must be distinct, got {seeds}")
    values, results = [], []
    for seed in seeds:
        realisation = replace(model, master_seed=int(seed))
        if quantity == "f_hom":
            xi = np.atleast_2d(np.asarray(argument, dtype=float))
            sched = Schedule((r,), h, k)
            est = estimate_f_hom(realisation.realise(), xi, sched)
        elif quantity == "g_hom":
            zeta, nu = argument
            sched = Schedule((r,), h, 1, None, tuple(np.asarray(nu, dtype=float)))
            est = estimate_g_hom(realisation.realise(), zeta, nu, sched)
        else:
            raise InputDomainError(f"unknown Monte Carlo quantity {quantity!r}")
        values.append(est.extrapolated)
        results.extend(est.per_r_results)
    values = np.asarray(values)
    std = float(np.std(values, ddof=1))
    ensemble = {
        "seeds": seeds,
        "values": values,
        "mean": float(np.mean(values)),
        "std": std,
        "halfwidth95": 1.96 * std / np.sqrt(len(seeds)),
    }
    # the argument in the form of the per-seed estimates: (xi,) or (zeta, nu)
    return HomEstimate(quantity, est.argument, (r,), [ensemble["mean"]], results, ensemble=ensemble)


def lattice_period(nu):
    """Smallest positive integer M <= 64 with M * R_nu an integer matrix."""
    rot = rotation_for_normal(nu)
    R = rot.matrix
    for M in range(1, 65):
        if np.max(np.abs(M * R - np.round(M * R))) < 1e-9:
            return M, rot
    raise UnsupportedNormalError(f"no integer multiple of the rotation for nu={np.asarray(nu)} within cap 64")


def subadditive_process_eval(
    model: RandomIntegrandModel,
    zeta,
    nu,
    a_prime,
    h: float = 0.25,
) -> HomEstimate:
    """Scaled interface minimum mu(A') on the lattice-compatible box of A'.

    ``a_prime`` is an (n-1)-dimensional half-open interval given as
    (lo, hi) pairs.  The domain is M R (A' x [-c, c)) with c half the
    largest side of A' and M the lattice period of the (rational) normal;
    the boundary datum is the unit-width smoothed jump through the
    origin.  The estimate (quantity ``"mu"``, one solve, recorded at
    r = 0) holds the minimum divided by M^{n-1} as ``extrapolated`` and
    the cell solve in ``per_r_results``.
    """
    zeta = np.asarray(zeta, dtype=float).reshape(-1)
    nu = np.asarray(nu, dtype=float).reshape(-1)
    n = nu.shape[0]
    pairs = [tuple(float(v) for v in p) for p in a_prime]
    if len(pairs) != n - 1 or any(b <= a for a, b in pairs):
        raise InputDomainError("a_prime must be n-1 nonempty half-open intervals")
    M, _ = lattice_period(nu)
    c = 0.5 * max(b - a for a, b in pairs)
    lo = np.array([a for a, _ in pairs] + [-c]) * M
    hi = np.array([b for _, b in pairs] + [c]) * M
    cell = make_box_cell(nu, lo, hi, h)
    res = solve_surface_cell(cell, model.realise(), zeta, datum_width=1.0)
    return HomEstimate("mu", (zeta.copy(), nu.copy()), (0.0,), [res.value / M ** (n - 1)], [res])
