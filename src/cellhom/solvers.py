"""Minimisation of the discrete bulk and interface cell problems.

The bulk problem minimises the linear-growth energy over deformations
pinned to an affine datum on the whole boundary; the interface problem
minimises the phase-field surface energy over pairs (u, v) pinned to a
smoothed jump across the plane normal to the cell's own normal and
v = 1 on the boundary.  The interface solver takes the bulk density and
forms its recession coeff * k * |xi|, the only part a jump sees; that
density does not change under a rotation of the components, so a
vector jump zeta is solved as the scalar cell of amplitude |zeta|.

Linear growth makes the u-problem nonsmooth, so the u-step works on a
delta-smoothed surrogate, continued over three levels (1e-1, 1e-3, 1e-6).
Every density has the form coeff(x) * profile(|xi|), and the step is a
damped primal-dual Newton iteration on it (Chan, Golub and Mulet): each
iteration solves the Hessian, with a dual estimate of Du/m that starts
at 0 and that the cell solvers carry across delta levels and sweeps (for
N >= 2, each component's diagonal block), and halves the step until the
Armijo condition holds, so the surrogate energy cannot increase; a failed
line search or a non-finite system ends the iteration as stalled.  Reported
energies are always evaluated with the unsmoothed density, so every
returned value is a true upper bound of the discrete minimum.

The v-step is exact: the surface energy is quadratic in the nodal
phase values, so one Newton step from v = 1 reaches its minimiser, and
a flat u leaves v = 1 exactly; boundary nodes stay 1.

Both steps solve for free-node values.  Each maps its cell weights into
the free-free block of the cell's ``free_operator`` (see
:class:`cellhom.geometry.FreeNodeOperator`) with one sparse scatter
product, both building the Laplacian from its ``hessian`` term (the
v-step scales the operator's ``laplacian``, that term under unit
weights, assembled once), and solves each system (the u-step: one per
component) with one call of LAPACK's ``dpbsv`` (banded Cholesky,
``dpbtrf`` then ``dpbtrs``).  A factorisation that breaks down, or a
phase solve with non-finite values, raises :class:`SolverBreakdown`.

Alternating minimisation keeps the best (lowest unsmoothed energy) pair
seen; the recorded energy trace contains accepted energies only and is
therefore non-increasing by construction.  ``converged`` holds only when
every smoothing level ended on its energy-decrease test and every u-step
on its own.

The solver settings are module constants, the same for every cell
solve: ``DELTA_SCHEDULE`` (the strictly decreasing smoothing
levels), ``AM_MAX_ITERS`` (alternating sweeps per smoothing level),
``AM_REL_TOL`` (the relative energy decrease that ends a level),
``INNER_TOL`` (the change over a full Newton step, relative to
max(1, |objective|), that ends a u-step) and ``U_MAX_ITERS`` (Newton
iterations per u-step).
The solvers read them at call time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpbsv
# no solver calls spsolve; it stays bound only because cellbench/tracing.py
# rebinds ``cellhom.solvers.spsolve``
from scipy.sparse.linalg import spsolve

from .fields import (
    PhaseField,
    PreconditionError,
    VectorField,
    affine_datum,
    bulk_energy,
    cell_average,
    cell_gradient,
    jump_datum,
    surface_energy,
)
from .geometry import CellDomain
from .integrand import InputDomainError, Integrand

__all__ = [
    "CellResult",
    "SolverBreakdown",
    "minimize_u_given_v",
    "minimize_v_given_u",
    "solve_bulk_cell",
    "solve_surface_cell",
]


DELTA_SCHEDULE = (1e-1, 1e-3, 1e-6)  # ending at 1e-6, not 1e-5, lowers every interface value
AM_MAX_ITERS = 80
AM_REL_TOL = 1e-7
INNER_TOL = 1e-7
U_MAX_ITERS = 1200


@dataclass(eq=False)
class CellResult:
    """Outcome of one cell-problem minimisation.

    ``energy_trace`` holds the unsmoothed energies of the accepted
    iterates, so its last entry, ``value``, is that of the best one;
    ``converged`` is False when an iteration budget ran out at any
    smoothing level or a u-step stalled; the value is still a valid
    upper bound then.
    """

    u: VectorField
    v: PhaseField
    iterations: int
    energy_trace: list
    converged: bool

    @property
    def value(self) -> float:
        return self.energy_trace[-1]


class SolverBreakdown(RuntimeError):
    """A linear solve inside a cell problem failed: a factorisation broke
    down or a solve that must succeed returned non-finite values."""


def _solve_free(op, store, rhs):
    """Solve the free-free system held in ``store`` for every column of ``rhs``.

    Banded Cholesky (LAPACK dpbsv, which overwrites ``store`` and
    ``rhs``) in every dimension; one factorisation serves all columns.
    """
    _, x, info = dpbsv(store.reshape(op.nfree, op.bw + 1).T, rhs, overwrite_ab=1, overwrite_b=1)
    if info > 0:
        raise SolverBreakdown(f"banded factorisation failed: {info}-th leading minor not positive definite")
    return x


# ----------------------------------------------------------------------
# u-step
# ----------------------------------------------------------------------


def _sum_cells(x):
    """Per-cell sum of x (cells, N, n): its N n columns added in turn, numpy's own order for N n < 8."""
    cols = x.reshape(len(x), -1).T
    return sum(cols[1:], cols[0])


def _smoothed_objective(cell, g, coeff, weights, delta2, u_values, N):
    """Value of sum_c h^n w_c g_delta(y_c, Du_c), the gradients Du_c and the magnitudes m_c; delta2 = delta^2."""
    Du = cell_gradient(cell, u_values).reshape(cell.num_cells, N, cell.n)
    m = np.sqrt(_sum_cells(Du**2) + delta2)
    vals = coeff * np.asarray(g.profile(m), dtype=float)
    return cell.h**cell.n * float((weights * vals).sum()), Du, m


def _newton_system(cell, g, hw, Du, m, q):
    """Gradient and primal-dual Hessian of the smoothed objective at the cell gradients Du.

    With hw = h^n w coeff and s = hw p'(m)/m the cell fluxes are s Du / h,
    and the gradient (num_nodes, N) is their sum at the nodes of the
    forward differences.  Per cell, with r = Du/m and t = hw p''(m), the
    Hessian in xi = Du is s I + (t - s)(q r^T + r q^T)/2, with q the dual
    estimate of r (cells, N, n); q = r gives the primal Hessian, and
    |q| <= 1 keeps it SPD for every density here.  The diagonal block of
    each component, with s floored at 1e-14 of its largest value, gives
    the ``hessian`` template weights (N, n*n, cells) over h^2.  Also
    returns the largest s / h^2 and r.
    """
    n, h = cell.n, cell.h
    s = hw * np.asarray(g.profile_deriv(m), dtype=float) / m
    flux = (s[:, None, None] * Du / h).reshape(cell.dims + Du.shape[1:])
    grad = np.zeros(cell.node_shape + Du.shape[1:2])
    base = (slice(0, -1),) * n
    for a in range(n):
        grad[base[:a] + (slice(1, None),) + base[a + 1 :]] += flux[..., a]
        grad[base] -= flux[..., a]
    smax = float(s.max())
    s = np.maximum(s, 1e-14 * smax)
    half = (hw * np.asarray(g.profile_deriv2(m), dtype=float) - s) * 0.5
    r = Du / m[:, None, None]
    hess = np.empty((Du.shape[1], n * n, m.size))
    for k in range(Du.shape[1]):
        qk, rk = q[:, k], r[:, k]
        for a in range(n):
            # the pairs (a, b) and (b, a) take the same weight
            for b in range(a, n):
                w = half * (qk[:, a] * rk[:, b] + qk[:, b] * rk[:, a])
                hess[k, a * n + b] = hess[k, b * n + a] = (w + s if a == b else w) / h**2
    return grad, hess, smax / h**2, r


def _ball_step(q, dq):
    """min(1, 0.99 x the largest step along dq that keeps every |q_c| <= 1)."""
    a, b = _sum_cells(dq**2), _sum_cells(q * dq)
    c = np.minimum(_sum_cells(q**2) - 1.0, 0.0)
    moving = a > 0
    roots = (np.sqrt(b**2 - a * c) - b)[moving] / a[moving]
    return min(1.0, 0.99 * float(roots.min(initial=np.inf)))


def minimize_u_given_v(
    cell: CellDomain,
    g: Integrand,
    v: PhaseField,
    start: VectorField,
    delta: float,
    *,
    stats: dict | None = None,
    dual: np.ndarray | None = None,
) -> VectorField:
    """Approximate minimiser of the vbar^2-weighted, delta-smoothed energy.

    The iteration starts from ``start``, whose values on the boundary
    nodes are the Dirichlet data: only free nodes move.

    Primal-dual Newton (Chan, Golub and Mulet, SIAM J. Sci. Comput. 20,
    1999): a dual estimate q (cells, N, n), |q_c| <= 1, of r = Du/m
    replaces r r^T in the Hessian by (q r^T + r q^T)/2, since where
    |Du| >> delta the primal curvature along r, delta^2/m^2, makes the
    full step overshoot.  Each iteration solves it (for N >= 2, each
    component's diagonal block) for a direction and halves the step (at
    most 30 times) until the Armijo condition (c = 1e-4) holds, so the
    energy never increases.  An accepted change dxi of Du moves q by the
    linearisation of q m = Du, dq = (dxi - q <r, dxi>)/m - (q - r), scaled
    by ``_ball_step``.  ``dual`` starts q; without it q starts at 0, so
    the first step is the lagged-diffusivity step s I.  A vanishing
    Tikhonov anchor tau on the diagonal keeps the system definite where
    the weight vanishes and makes the flat-region tie-break deterministic
    (the previous iterate survives there).

    Stops when a full step changes the objective by at most ``INNER_TOL``
    times max(1, |objective|) (converged), and on a non-finite system or
    a failed line search (stalled, in ``stats``); ``stats["iterations"]``
    counts the Hessian solves and ``stats["dual"]`` holds the final q.
    Only accepted iterates are returned.
    """
    if delta <= 0:
        raise InputDomainError("delta must be positive")
    N = start.N
    op = cell.free_operator
    weights = cell_average(cell, v.values).reshape(-1) ** 2
    coeff = g.coeff_cells(cell.cell_centers_global)
    hw = cell.h**cell.n * weights * coeff

    u = start.values.copy()
    E, Du, m = _smoothed_objective(cell, g, coeff, weights, delta**2, u, N)
    q = np.zeros_like(Du) if dual is None else dual

    it = 0
    converged = stalled = False
    while it < U_MAX_ITERS and not (converged or stalled):
        grad, hess, scale, r = _newton_system(cell, g, hw, Du, m, q)
        grad = grad.reshape(-1, N)[op.free]
        if not scale > 0.0:
            # no weight anywhere leaves nothing to minimise; NaN is a stall
            converged = scale == 0.0
            stalled = not converged
            break
        it += 1
        d = np.empty_like(grad)
        for k in range(N):
            store = op.assemble("hessian", hess[k])
            store[op.diag] += 1e-12 * scale
            d[:, k] = _solve_free(op, store, -grad[:, k : k + 1])[:, 0]
        slope = float((grad * d).sum())
        d_full = np.zeros_like(u)
        d_full.reshape(-1, N)[op.free] = d
        # Armijo backtracking; the stop test reads the full step only
        for halvings in range(31):
            step = 0.5**halvings
            u_try = u + step * d_full
            E_try, Du_try, m_try = _smoothed_objective(cell, g, coeff, weights, delta**2, u_try, N)
            converged = halvings == 0 and abs(E - E_try) <= INNER_TOL * max(1.0, abs(E))
            if E_try <= E + 1e-4 * step * slope or (converged and E_try <= E):
                dxi = Du_try - Du
                dq = (dxi - q * _sum_cells(r * dxi)[:, None, None]) / m[:, None, None] - (q - r)
                q = q + _ball_step(q, dq) * dq
                u, E, Du, m = u_try, E_try, Du_try, m_try
                break
            if converged:
                break
        else:
            stalled = True

    if stats is not None:
        stats.update(iterations=it, objective=E, converged=converged, stalled=stalled, dual=q)
    return VectorField(cell, u)


# ----------------------------------------------------------------------
# v-step: exact screened elliptic solve
# ----------------------------------------------------------------------


def minimize_v_given_u(cell: CellDomain, ginf: Integrand, u: VectorField) -> PhaseField:
    """Exact minimiser of the surface energy in v at fixed u.

    The energy is quadratic in the nodal phase values with cell weights
    W_c = ginf(y_c, Du_c) >= 0, so one Newton step from v = 1 is exact:
    v_free = 1 - A^-1 g, with A the half-Hessian (the Laplacian at
    h^(n-2) plus the corner mass at h^n (W + 1) / 4^n) and g the
    half-gradient at v = 1, h^n W_c / 2^n at each corner of every cell.
    Boundary nodes stay 1; :class:`PhaseField` clamps to [0, 1].
    """
    n, h = cell.n, cell.h
    hn = h**n
    Du = cell_gradient(cell, u.values).reshape(cell.num_cells, u.N, n)
    W = ginf.eval_cells(cell.cell_centers_global, Du)
    if np.any(W < -1e-12):
        raise PreconditionError("cell weights must be nonnegative")
    W = np.maximum(W, 0.0)

    op = cell.free_operator
    store = h ** (n - 2) * op.laplacian + op.assemble("mass", hn * (W + 1.0) / 4**n)
    corners = cell.cell_corner_nodes
    grad = np.bincount(np.concatenate(corners), weights=np.tile(hn * W / 2**n, len(corners)), minlength=cell.num_nodes)
    vvals = np.ones(cell.num_nodes)
    vvals[op.free] -= _solve_free(op, store, grad[op.free, None])[:, 0]
    if not np.all(np.isfinite(vvals)):
        raise SolverBreakdown("phase solve broke down: non-finite solution")
    return PhaseField(cell, vvals.reshape(cell.node_shape))


# ----------------------------------------------------------------------
# cell problems
# ----------------------------------------------------------------------


def solve_bulk_cell(cell: CellDomain, g: Integrand, xi) -> CellResult:
    """Minimise the bulk energy with affine boundary datum xi . y.

    Starts from the affine field (which is also the competitor bound:
    the returned value never exceeds its energy) and continues the
    smoothed minimisation over the delta schedule; the reported value is
    the unsmoothed energy of the best iterate.
    """
    # the corner average of ones is exactly 1, so every cell weight is 1
    ones = PhaseField.ones(cell)
    u_run = best_u = affine_datum(cell, xi)
    best_E = bulk_energy(cell, g, best_u)
    trace = [best_E]
    iters = 0
    converged = True
    # each u-step overwrites every entry; the dual carries over
    stats = {}
    for delta in DELTA_SCHEDULE:
        u_try = minimize_u_given_v(cell, g, ones, u_run, delta, stats=stats, dual=stats.get("dual"))
        iters += stats["iterations"]
        E_try = bulk_energy(cell, g, u_try)
        if E_try < best_E:
            best_E, best_u = E_try, u_try
            trace.append(E_try)
        u_run = u_try
        if not stats["converged"]:
            converged = False
    return CellResult(
        u=best_u,
        v=ones,
        iterations=iters,
        energy_trace=trace,
        converged=converged,
    )


def _seeded_phase(cell):
    """All-ones phase with a dip to 0.5 on the first node layer above the plane.

    The dip covers the two corner rows of the cell layer on the positive
    side of the interface, which selects the concentrated branch of the
    alternating minimisation; a symmetric dip can stall on a two-cell
    saddle.
    """
    v = np.ones(cell.node_shape)
    zn = cell.local_nodes[..., -1]
    v[np.abs(zn - 0.5 * cell.h) <= 0.51 * cell.h] = 0.5
    v[cell.boundary_mask] = 1.0
    return PhaseField(cell, v)


def solve_surface_cell(cell: CellDomain, g: Integrand, zeta, *, datum_width: float | None = None) -> CellResult:
    """Alternating minimisation of the interface cell problem of the density g.

    The blow-up at a jump sees only the recession ginf of g, so both
    steps and the reported energy use ginf, formed here from g.
    Boundary datum: smoothed jump of amplitude zeta across the plane
    through the cell centre normal to the cell's ``rotation.nu`` (ramp
    width ``datum_width``, default 4h), with v = 1 on the boundary.
    Starts from the datum pair with a seeded phase dip on the jump
    plane; the returned value is the unsmoothed surface energy of the
    best pair and never exceeds the energy of the initial pair.
    """
    ginf = g.recession_integrand()
    # coeff * k * |xi| does not change under a rotation of the components,
    # and a component normal to zeta only adds energy: solve the scalar
    # cell of amplitude |zeta| and point its field along zeta
    zeta = np.asarray(zeta, dtype=float).reshape(-1)
    amplitude = float(np.linalg.norm(zeta))
    width = 4.0 * cell.h if datum_width is None else float(datum_width)
    u_run = jump_datum(cell, [amplitude], cell.rotation.nu, eps_width=width)
    v_run = _seeded_phase(cell)
    best_u, best_v = u_run, v_run
    best_E = surface_energy(cell, ginf, u_run, v_run)
    trace = [best_E]
    sweeps = 0
    converged = True
    E_prev = best_E
    # each u-step overwrites every entry; the dual carries over
    stats = {}
    for delta in DELTA_SCHEDULE:
        for _ in range(AM_MAX_ITERS):
            u_try = minimize_u_given_v(cell, ginf, v_run, u_run, delta, stats=stats, dual=stats.get("dual"))
            converged = converged and stats["converged"]
            v_try = minimize_v_given_u(cell, ginf, u_try)
            E_try = surface_energy(cell, ginf, u_try, v_try)
            sweeps += 1
            if E_try < best_E:
                best_E, best_u, best_v = E_try, u_try, v_try
                trace.append(E_try)
            drop = E_prev - E_try
            u_run, v_run, E_prev = u_try, v_try, E_try
            if drop <= AM_REL_TOL * max(1.0, abs(E_try)):
                break
        else:
            # this level ran out of sweeps; later levels do not undo that
            converged = False

    return CellResult(
        u=VectorField(cell, best_u.values * (zeta / amplitude if amplitude > 0 else zeta)),
        v=best_v,
        iterations=sweeps,
        energy_trace=trace,
        converged=converged,
    )
