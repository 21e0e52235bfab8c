"""Property checks on the estimated effective densities.

Each check compares estimates produced by :mod:`cellhom.homogenise`
against a quantitative property the effective densities are known to
satisfy: growth bounds and a dimensional Lipschitz bound for the bulk
density, amplitude bounds, symmetry under (zeta, nu) -> (-zeta, -nu) and
a Lipschitz bound in the jump amplitude for the surface density,
agreement of the two recession routes, and covariance, subadditivity and
volume boundedness of the interval process.  One more check reads no
estimate: the admissibility of a density's declared constants, on the
sample of :func:`cellhom.integrand.validate_admissibility`.

A check returns a ``PropertyCheck`` whose signed margin is normalised so
that margin <= tolerance means pass; violations are content, never
exceptions, and re-running a check with the same configuration and seeds
reproduces it bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .homogenise import (
    HomEstimate,
    Schedule,
    estimate_f_hom,
    estimate_f_inf_hom,
    estimate_g_hom,
    lattice_period,
    subadditive_process_eval,
)
from .integrand import (
    ADMISSIBILITY_SLACK,
    InputDomainError,
    Integrand,
    RandomIntegrandModel,
    shift,
    validate_admissibility,
)

__all__ = [
    "PropertyCheck",
    "check_admissibility",
    "check_fhom_growth",
    "check_fhom_lipschitz",
    "check_fhom_rank_one_convexity",
    "check_ghom_bounds",
    "check_ghom_symmetry_and_lipschitz",
    "check_recession_routes",
    "check_subadditive_process",
    "run_suite",
    "RAMP_SLOPE_MAX",
]

# peak slope of the cubic smoothstep ramp on the unit-width transition
RAMP_SLOPE_MAX = 1.5


@dataclass
class PropertyCheck:
    """One verified property: pass iff margin <= tolerance.

    ``converged`` is False when a cell solve behind one of the estimates
    the check read did not converge; the margin still stands, but rests
    on upper bounds.
    """

    name: str
    margin: float
    tolerance: float
    passed: bool
    provenance: str
    converged: bool

    @staticmethod
    def of(name, margin, tolerance, provenance, estimates=()):
        return PropertyCheck(
            name=name,
            margin=float(margin),
            tolerance=float(tolerance),
            passed=bool(margin <= tolerance),
            provenance=provenance,
            converged=all(res.converged for est in estimates for res in est.per_r_results),
        )


def _norm(x):
    return float(np.linalg.norm(np.asarray(x, dtype=float)))


def _max_difference_quotient(estimates, worst):
    """The larger of ``worst`` and every |est_i - est_j| / |arg_i - arg_j| over pairs of distinct first arguments."""
    for i in range(len(estimates)):
        for j in range(i + 1, len(estimates)):
            d = _norm(np.asarray(estimates[i].argument[0]) - np.asarray(estimates[j].argument[0]))
            if d < 1e-12:
                continue
            worst = max(worst, abs(estimates[i].extrapolated - estimates[j].extrapolated) / d)
    return worst


def check_admissibility(g: Integrand) -> PropertyCheck:
    """The declared (C, alpha) constants of g hold on the validator's sample.

    The margin is the worst of the growth, recession-bound and
    recession-rate margins of ``validate_admissibility``; the tolerance
    is its rounding slack.
    """
    report = validate_admissibility(g)
    margin = max(report.growth_margin, report.recession_bounds_margin, *report.recession_rate_margins.values())
    return PropertyCheck.of("admissibility", margin, ADMISSIBILITY_SLACK, "declared-constants:density")


def check_fhom_growth(estimates: Sequence[HomEstimate], C: float) -> PropertyCheck:
    """C^-1 |xi| <= estimate <= C (|xi| + 1), with relative slack 0.03."""
    margin = -np.inf
    for est in estimates:
        xi = est.argument[0]
        lo = _norm(xi) / C
        hi = C * (_norm(xi) + 1.0)
        val = est.extrapolated
        margin = max(margin, (lo - val) / max(lo, 1e-12), (val - hi) / hi)
    return PropertyCheck.of(
        "fhom-growth",
        margin,
        0.03,
        "growth-bounds:effective-bulk-density",
        estimates,
    )


def check_fhom_lipschitz(estimates: Sequence[HomEstimate], C: float, n: int) -> PropertyCheck:
    """Difference quotients |est(xi1) - est(xi2)| / |xi1 - xi2| below a cap.

    The cap C * sqrt(n) * n * H^{n-1}(boundary of unit cube) is a
    generous dimensional constant; H^{n-1} of the unit-cube boundary is
    2n.
    """
    if len(estimates) < 3:
        raise InputDomainError("need at least 3 estimates for the Lipschitz check")
    cap = C * np.sqrt(n) * n * (2.0 * n)
    return PropertyCheck.of(
        "fhom-lipschitz",
        _max_difference_quotient(estimates, 0.0) - cap,
        0.0,
        "lipschitz:effective-bulk-density",
        estimates,
    )


def check_fhom_rank_one_convexity(g: Integrand, schedule: Schedule, lines: int = 3, seed: int = 0) -> PropertyCheck:
    """Midpoint convexity along sampled rank-one lines xi0 + t a (x) b.

    The testable consequence of quasi-convexity on a grid: for each
    sampled line of scalar 2D gradients, est(xi0) <= (est(xi0 - s a@b) +
    est(xi0 + s a@b)) / 2 at s = 0.75, up to relative slack 0.02.
    """
    rng = np.random.default_rng(seed)
    margin = -np.inf
    estimates = []
    for _ in range(lines):
        xi0 = rng.normal(size=(1, 2))
        a = rng.normal(size=1)
        b = rng.normal(size=2)
        rank1 = np.outer(a, b) / max(_norm(np.outer(a, b)), 1e-12)
        line = [estimate_f_hom(g, xi, schedule) for xi in (xi0, xi0 - 0.75 * rank1, xi0 + 0.75 * rank1)]
        estimates += line
        mid, left, right = (est.extrapolated for est in line)
        chord = 0.5 * (left + right)
        margin = max(margin, (mid - chord) / max(abs(chord), 1e-12))
    return PropertyCheck.of(
        "fhom-rank-one-convexity",
        margin,
        0.02,
        "rank-one-convexity:effective-bulk-density",
        estimates,
    )


def check_ghom_bounds(estimates: Sequence[HomEstimate], C: float) -> PropertyCheck:
    """2|zeta| / (C (|zeta| + 2)) <= estimate <= 2 C |zeta| / (|zeta| + 2), with relative slack 0.15."""
    margin = -np.inf
    for est in estimates:
        zeta = est.argument[0]
        s = _norm(zeta)
        lo = 2.0 * s / (C * (s + 2.0))
        hi = 2.0 * C * s / (s + 2.0)
        val = est.extrapolated
        if s == 0.0:
            margin = max(margin, abs(val))
            continue
        margin = max(margin, (lo - val) / lo, (val - hi) / hi)
    return PropertyCheck.of(
        "ghom-bounds",
        margin,
        0.15,
        "amplitude-bounds:effective-surface-density",
        estimates,
    )


def check_ghom_symmetry_and_lipschitz(
    pairs: Sequence[tuple], sweep: Sequence[HomEstimate], C: float, n: int
) -> PropertyCheck:
    """Symmetry under joint sign flip plus the amplitude Lipschitz bound.

    ``pairs`` holds (estimate(zeta, nu), estimate(-zeta, -nu)) tuples;
    ``sweep`` holds estimates at different amplitudes and a common
    normal.  The symmetry tolerance is 0.02, relative; the Lipschitz cap
    is 1.1 * C * 2n.
    """
    margin = -np.inf
    for e1, e2 in pairs:
        scale = max(abs(e1.extrapolated), abs(e2.extrapolated), 1e-12)
        margin = max(margin, abs(e1.extrapolated - e2.extrapolated) / scale - 0.02)
    cap = 1.1 * C * 2.0 * n
    margin = max(margin, _max_difference_quotient(sweep, -np.inf) - cap)
    return PropertyCheck.of(
        "ghom-symmetry-lipschitz",
        margin,
        0.0,
        "symmetry-and-lipschitz:effective-surface-density",
        [est for pair in pairs for est in pair] + list(sweep),
    )


def check_recession_routes(g: Integrand, xi, schedule: Schedule, rel_tol: float = 0.02) -> PropertyCheck:
    """The two recession-route estimates agree within a relative tolerance."""
    e1 = estimate_f_inf_hom(g, xi, "hom_of_recession", schedule)
    e2 = estimate_f_inf_hom(g, xi, "recession_of_hom", schedule)
    scale = max(abs(e1.extrapolated), abs(e2.extrapolated), 1e-12)
    margin = abs(e1.extrapolated - e2.extrapolated) / scale - rel_tol
    return PropertyCheck.of(
        "recession-route-agreement",
        margin,
        0.0,
        "recession-commutes-with-homogenisation",
        (e1, e2),
    )


def check_subadditive_process(
    model: RandomIntegrandModel,
    zeta,
    nu,
    splits: Sequence[tuple],
    h: float = 0.25,
    slack: float = 0.05,
    shifts: Sequence = (),
) -> PropertyCheck:
    """Subadditivity, boundedness and lattice covariance of the process.

    ``splits`` is a sequence of (whole, parts) interval tuples; for each,
    mu(whole) <= sum mu(part) + slack.  Boundedness compares mu against
    C |zeta| * max-ramp-slope * measure(A').  ``shifts`` holds integer
    (n-1)-vectors z'; covariance compares mu(model, A' + z') with
    mu(shifted model, A') where the model shift is M R (z', 0).
    """
    zeta = np.asarray(zeta, dtype=float).reshape(-1)
    nu = np.asarray(nu, dtype=float).reshape(-1)
    n = nu.shape[0]
    C = model.realise().C
    margin = -np.inf
    estimates = []

    def mu(m, box):
        est = subadditive_process_eval(m, zeta, nu, box, h)
        estimates.append(est)
        return est.extrapolated

    for whole, parts in splits:
        mu_whole = mu(model, whole)
        mu_parts = sum(mu(model, p) for p in parts)
        rel = (mu_whole - mu_parts) / max(mu_parts, 1e-12)
        margin = max(margin, rel - slack)
        measure = float(np.prod([b - a for a, b in whole]))
        bound = C * _norm(zeta) * RAMP_SLOPE_MAX * measure
        margin = max(margin, (mu_whole - bound) / bound - slack)

    for z in shifts:
        z = np.asarray(z, dtype=int).reshape(-1)
        if z.shape[0] != n - 1:
            raise InputDomainError("shift must be an (n-1)-dimensional lattice vector")
        M, rot = lattice_period(nu)
        z_nu = np.round(M * rot.matrix @ np.concatenate([z.astype(float), [0.0]])).astype(int)
        base_box = [(0.0, 1.0)] * (n - 1)
        shifted_box = [(a + z[i], b + z[i]) for i, (a, b) in enumerate(base_box)]
        mu_shifted_box = mu(model, shifted_box)
        mu_shifted_model = mu(shift(model, z_nu), base_box)
        scale = max(abs(mu_shifted_box), abs(mu_shifted_model), 1e-12)
        rel = abs(mu_shifted_box - mu_shifted_model) / scale
        margin = max(margin, rel - slack)

    return PropertyCheck.of(
        "interval-process",
        margin,
        0.0,
        "covariant-subadditive-bounded-process",
        estimates,
    )


# ----------------------------------------------------------------------
# the suite
# ----------------------------------------------------------------------


def run_suite() -> list:
    """The property suite over the bundled integrand catalog.

    Runs, per catalog density, the admissibility check, growth and
    Lipschitz checks on effective bulk estimates and rank-one midpoint
    convexity along three sampled lines; then amplitude bounds, symmetry
    and amplitude-Lipschitz checks on effective surface estimates; then
    agreement of the two recession routes for euclid, area and a 1D
    laminate, and the interval-process check on a checkerboard.  Every
    tolerance and the seed are fixed, so the suite reproduces bit for
    bit.
    """
    from .integrand import area, euclid, laminate, make_checkerboard

    seed = 1
    checks = []
    sched = Schedule(r_values=(4.0, 8.0), h=0.25)
    xi_grid = [np.array([[t, 0.0]]) for t in (0.25, 0.5, 1.0, 2.0, 4.0)]
    xi_grid += [np.array([[0.6, 0.8]]), np.array([[-1.0, 0.5]])]

    cb = make_checkerboard(seed, 1.0, 2.0)
    catalog = [euclid(), area(), laminate(1.0, 2.0), cb.realise()]
    for g in catalog:
        checks.append(check_admissibility(g))
        ests = [estimate_f_hom(g, xi, sched) for xi in xi_grid]
        checks.append(check_fhom_growth(ests, C=g.C))
        checks.append(check_fhom_lipschitz(ests, C=g.C, n=2))
        checks.append(check_fhom_rank_one_convexity(g, sched, lines=3, seed=seed))

    e2 = (0.0, 1.0)
    # the euclid bounds are tight (C = 1), so its sweep needs the larger cells;
    # the checkerboard recession has C = 2 and generous margins at small r
    for g, r_pair in ((euclid(), (8.0, 16.0)), (cb.realise(), (4.0, 8.0))):
        gsched = Schedule(r_values=r_pair, h=0.25, nu=e2)
        sweep = [estimate_g_hom(g, [z], e2, gsched) for z in (0.5, 1.0, 2.0)]
        checks.append(check_ghom_bounds(sweep, C=g.C))
        pair_sched = Schedule(r_values=(4.0, 8.0), h=0.25, nu=e2)
        neg_sched = Schedule(r_values=(4.0, 8.0), h=0.25, nu=(0.0, -1.0))
        pairs = [(estimate_g_hom(g, [1.0], e2, pair_sched), estimate_g_hom(g, [-1.0], (0.0, -1.0), neg_sched))]
        checks.append(check_ghom_symmetry_and_lipschitz(pairs, sweep, C=g.C, n=2))

    for g in (euclid(), area()):
        checks.append(check_recession_routes(g, np.array([[1.0, 0.0]]), sched, rel_tol=0.02))
    sched1d = Schedule(r_values=(8.0,), h=0.05)
    checks.append(check_recession_routes(laminate(1.0, 2.0), np.array([[1.0]]), sched1d, rel_tol=0.05))

    splits = [([(0.0, 2.0)], [[(0.0, 1.0)], [(1.0, 2.0)]])]
    checks.append(check_subadditive_process(cb, [1.0], e2, splits, h=0.25, slack=0.05, shifts=[(1,)]))
    return checks
