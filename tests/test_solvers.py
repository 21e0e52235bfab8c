import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.sparse.linalg import spsolve

import cellhom.solvers

from cellhom.fields import (
    PhaseField,
    VectorField,
    affine_datum,
    bulk_energy,
    cell_average,
    cell_gradient,
    jump_datum,
    surface_energy,
)
from cellhom.geometry import make_box_cell, make_cell
from cellhom.integrand import InputDomainError, Integrand, area, euclid, laminate, make_checkerboard
from cellhom.solvers import (
    SolverBreakdown,
    minimize_u_given_v,
    minimize_v_given_u,
    solve_bulk_cell,
    solve_surface_cell,
)


def lp_bulk_oracle_1d(coeffs, h, xi_times_r):
    """Discrete lower bound by linear programming.

    Minimise sum_i a_i |d_i| h subject to sum_i d_i h = xi * r, with the
    cell derivatives d_i free; |d_i| is split into positive parts.  This
    is the exact discrete bulk minimum in one dimension and is built
    independently of the descent solver.
    """
    m = len(coeffs)
    c = np.concatenate([coeffs * h, coeffs * h])
    A_eq = np.concatenate([np.full(m, h), np.full(m, -h)])[None, :]
    res = linprog(c, A_eq=A_eq, b_eq=[xi_times_r], bounds=[(0, None)] * 2 * m, method="highs")
    assert res.success
    return res.fun


def trace_is_non_increasing(trace, tol=1e-9):
    return all(b <= a + tol * (1.0 + abs(a)) for a, b in zip(trace, trace[1:]))


def assemble_reference(cell, edge_w, mass_w=None):
    """Full nodal matrix of the stencil (and corner mass) couplings, COO-assembled."""
    pbase = cell.cell_corner_nodes[0]
    rows, cols, vals = [], [], []
    for q in (cell.cell_corner_nodes[1 << a] for a in range(cell.n)):
        rows += [pbase, q, pbase, q]
        cols += [pbase, q, q, pbase]
        vals += [edge_w, edge_w, -edge_w, -edge_w]
    if mass_w is not None:
        for p in cell.cell_corner_nodes:
            for q in cell.cell_corner_nodes:
                rows.append(p)
                cols.append(q)
                vals.append(mass_w)
    shape = (cell.num_nodes, cell.num_nodes)
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=shape).tocsr()


def difference_matrix(cell):
    """The forward differences D, rows (cell, axis) in C order, as a scipy.sparse matrix."""
    C, n, h = cell.num_cells, cell.n, cell.h
    corners = cell.cell_corner_nodes
    rows = np.concatenate([np.arange(C) * n + a for a in range(n) for _ in range(2)])
    cols = np.concatenate([nodes for a in range(n) for nodes in (corners[1 << a], corners[0])])
    vals = np.concatenate([np.full(C, sign / h) for a in range(n) for sign in (1.0, -1.0)])
    return sp.csr_matrix((vals, (rows, cols)), shape=(C * n, cell.num_nodes))


def reference_newton_system(cell, g, v, delta, u0, q=None):
    """Gradient and Hessian blocks D^T H D of the smoothed u-objective, assembled with scipy.sparse.

    Per cell, H is s I + (t - s)(q r^T + r q^T)/2 with r = Du/m, the
    primal-dual Hessian for a dual estimate q (cells, N, n); without
    one, q = r and H is the primal Hessian.  Component k gets its own
    diagonal block, with the 1e-14 floor on s = h^n w coeff p'(m)/m.
    Returns the free-node gradient (nfree, N), the free-free blocks and
    the 1e-12 anchor tau of the u-step.
    """
    n, h, N, C = cell.n, cell.h, u0.shape[-1], cell.num_cells
    D = difference_matrix(cell)
    Du = (D @ u0.reshape(-1, N)).reshape(C, n, N).transpose(0, 2, 1)
    m = np.sqrt(np.sum(Du**2, axis=(1, 2)) + delta**2)
    q = Du / m[:, None, None] if q is None else q
    hw = h**n * cell_average(cell, v.values).reshape(-1) ** 2 * g.coeff_cells(cell.cell_centers_global)
    s = hw * g.profile_deriv(m) / m
    grad = D.T @ (s[:, None, None] * Du).transpose(0, 2, 1).reshape(C * n, N)
    tau = 1e-12 * s.max() / h**2
    s = np.maximum(s, 1e-14 * s.max())
    t = hw * g.profile_deriv2(m)
    free = np.flatnonzero(~cell.boundary_mask.reshape(-1))
    blocks = []
    for k in range(N):
        r = Du[:, k, :] / m[:, None]
        sym = [(np.outer(qc, rc) + np.outer(rc, qc)) / 2 for qc, rc in zip(q[:, k, :], r)]
        H = sp.block_diag([sc * np.eye(n) + (tc - sc) * symc for sc, tc, symc in zip(s, t, sym)])
        blocks.append((D.T @ H @ D).tocsr()[free][:, free])
    return grad[free], blocks, tau


def reference_newton_direction(cell, g, v, delta, u0, q=None):
    """Newton direction of the smoothed u-objective for the dual q (the primal one without q).

    Solved with scipy.sparse, anchor included.
    """
    grad, blocks, tau = reference_newton_system(cell, g, v, delta, u0, q)
    return np.column_stack([spsolve((A + tau * sp.eye(A.shape[0])).tocsc(), -grad[:, k]) for k, A in enumerate(blocks)])


def band_to_dense(op, store):
    """The symmetric matrix held in a free-node band storage."""
    ab = store.reshape(op.nfree, op.bw + 1).T
    A = np.zeros((op.nfree, op.nfree))
    for k in range(op.bw + 1):
        j = np.arange(op.bw - k, op.nfree)
        A[j - op.bw + k, j] = A[j, j - op.bw + k] = ab[k, j]
    return A


def reference_v_step(cell, ginf, u):
    """The exact v-step assembled in full and sliced, solved with scipy.sparse."""
    n, hn = cell.n, cell.h**cell.n
    Du = cell_gradient(cell, u.values).reshape(cell.num_cells, u.N, n)
    W = np.maximum(ginf.eval_cells(cell.cell_centers_global, Du), 0.0)
    corners = cell.cell_corner_nodes
    b = np.zeros(cell.num_nodes)
    for p in corners:
        b[p] += hn / len(corners)
    lap = np.full(cell.num_cells, cell.h ** (n - 2))
    A = assemble_reference(cell, lap, hn * (W + 1.0) / len(corners) ** 2)
    bflat = cell.boundary_mask.reshape(-1)
    free, fixed = np.flatnonzero(~bflat), np.flatnonzero(bflat)
    vvals = np.ones(cell.num_nodes)
    vvals[free] = spsolve(A[free][:, free].tocsc(), b[free] - A[free][:, fixed] @ vvals[fixed])
    return np.clip(vvals, 0.0, 1.0).reshape(cell.node_shape)


def sparse_products(cell, term, w):
    """One term's free-free storage as a scipy.sparse product.

    The per-cell scatter matrix maps cell weights into the operator's
    storage (the column-major upper band).
    """
    op = cell.free_operator
    pos = np.full(cell.num_nodes, -1)
    pos[op.free] = np.arange(op.nfree)
    corners = cell.cell_corner_nodes
    pbase, n = corners[0], cell.n
    # pairs (row node, column node, sign, weight row); the hessian's
    # template (a, b) is the outer product of the differences along a and b
    if term == "hessian":
        diffs = [((corners[1 << a], 1.0), (pbase, -1.0)) for a in range(n)]
        pairs = [
            (p, q, sign_p * sign_q, a * n + b)
            for a in range(n)
            for b in range(n)
            for p, sign_p in diffs[a]
            for q, sign_q in diffs[b]
        ]
    else:
        pairs = [(p, q, 1.0, 0) for p in corners for q in corners]
    w = np.atleast_2d(w)
    # one column per (cell, weight row), cell-major
    c = np.tile(np.arange(cell.num_cells), len(pairs))
    col = c * len(w) + np.repeat([row for *_, row in pairs], cell.num_cells)
    i = pos[np.concatenate([p for p, *_ in pairs])]
    j = pos[np.concatenate([q for _, q, _, _ in pairs])]
    s = np.repeat([sign for _, _, sign, _ in pairs], cell.num_cells)
    sel = (i >= 0) & (j >= 0) & (i <= j)
    slot = np.ravel_multi_index((op.bw + i[sel] - j[sel], j[sel]), (op.bw + 1, op.nfree), order="F")
    return sp.csc_matrix((s[sel], (slot, col[sel])), shape=(op.nslots, w.size)) @ w.T.ravel()


def relative_gap(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


EQUIVALENCE_CELLS = {
    "1d": (make_cell((0.0,), 4.0, (1.0,), 1, 0.25), [1.0]),
    "2d-N2": (make_cell((0.0, 0.0), 4.0, (0.0, 1.0), 1, 0.25), [0.6, 0.8]),
    "2d-k3": (make_cell((0.0, 0.0), 4.0, (0.0, 1.0), 3, 0.5), [1.0]),
    "2d-rotated": (make_cell((0.3, -0.2), 4.0, (0.6, 0.8), 1, 0.25), [1.0]),
    "3d": (make_cell((0.0, 0.0, 0.0), 2.0, (0.0, 0.0, 1.0), 1, 0.5), [1.0]),
}

# the exact-assembly grids: four of the cells above and the grids of the
# cohesive-1d and cohesive-2d benchmark workloads
ASSEMBLY_CELLS = {
    **{name: EQUIVALENCE_CELLS[name][0] for name in ("1d", "2d-k3", "2d-rotated", "3d")},
    "1d-r16-h0.05": make_cell((0.0,), 16.0, (1.0,), 1, 0.05),
    "2d-r8-rotated": make_cell((0.0, 0.0), 8.0, (0.6, 0.8), 1, 0.25),
}


class TestFreeNodeOperator:
    """Both steps against a scipy.sparse assembly of the same systems."""

    @staticmethod
    def _first_direction(name, rng, monkeypatch, primal):
        """The u-step's first direction from a random start, and its scipy.sparse reference.

        ``primal`` passes the dual Du/m of the start, which gives the
        primal Newton direction; otherwise no dual is passed, so q = 0.
        """
        cell, zeta = EQUIVALENCE_CELLS[name]
        bdata = jump_datum(cell, zeta, cell.rotation.nu, eps_width=4 * cell.h)
        v = PhaseField(cell, rng.uniform(0.2, 1.0, size=cell.node_shape))
        start = bdata.values + 0.3 * rng.standard_normal(bdata.values.shape)
        start[cell.boundary_mask] = bdata.values[cell.boundary_mask]
        Du = cell_gradient(cell, start).reshape(cell.num_cells, bdata.N, cell.n)
        q = Du / np.sqrt(np.sum(Du**2, axis=(1, 2)) + 1e-1**2)[:, None, None] if primal else np.zeros_like(Du)
        # the direction is what the factorised Hessian returns
        solve, directions = cellhom.solvers._solve_free, []

        def capture(*args):
            directions.append(solve(*args).copy())
            return directions[-1]

        monkeypatch.setattr(cellhom.solvers, "_solve_free", capture)
        monkeypatch.setattr(cellhom.solvers, "U_MAX_ITERS", 1)
        stats = {}
        minimize_u_given_v(
            cell, euclid(), v, bdata, 1e-1, start=VectorField(cell, start), stats=stats, dual=q if primal else None
        )
        assert stats["iterations"] == 1 and not stats["stalled"]
        assert len(directions) == bdata.N
        return np.hstack(directions), reference_newton_direction(cell, euclid(), v, 1e-1, start, q)

    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_CELLS))
    def test_newton_direction_matches_sparse_solve(self, name, rng, monkeypatch):
        # at delta = 0.1 these Hessians have condition numbers up to about
        # 2e5 (the 1D cell), so two direct solves agree to 1e-12
        direction, reference = self._first_direction(name, rng, monkeypatch, primal=True)
        assert relative_gap(direction, reference) <= 1e-12

    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_CELLS))
    def test_zero_dual_direction_matches_sparse_solve(self, name, rng, monkeypatch):
        # without a dual the first step is the lagged-diffusivity step, Hessian s I
        direction, reference = self._first_direction(name, rng, monkeypatch, primal=False)
        assert relative_gap(direction, reference) <= 1e-12

    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_CELLS))
    def test_v_step_matches_sparse_reference(self, name, rng):
        cell, zeta = EQUIVALENCE_CELLS[name]
        u = jump_datum(cell, zeta, cell.rotation.nu, eps_width=2 * cell.h)
        u = VectorField(cell, u.values + 0.2 * rng.standard_normal(u.values.shape))
        v = minimize_v_given_u(cell, euclid(), u)
        assert v.values.min() < 0.99
        assert relative_gap(v.values, reference_v_step(cell, euclid(), u)) <= 1e-12

    @pytest.mark.parametrize("name", sorted(ASSEMBLY_CELLS))
    @pytest.mark.parametrize("term", ["mass", "hessian"])
    def test_assembly_matches_sparse_product_exactly(self, name, term, rng):
        cell = ASSEMBLY_CELLS[name]
        # the hessian takes one weight row per axis pair (a, b)
        shape = (cell.n**2, cell.num_cells) if term == "hessian" else cell.num_cells
        w = rng.uniform(0.1, 2.0, size=shape)
        assert np.array_equal(cell.free_operator.assemble(term, w), sparse_products(cell, term, w))

    @pytest.mark.parametrize("name", ["1d", "2d-k3", "3d"])
    def test_shared_operator_is_read_only(self, name):
        cell, _ = EQUIVALENCE_CELLS[name]
        op = cell.free_operator
        # every cell of these dims is handed this one operator
        hi = cell.lo + cell.realised_sides
        assert make_box_cell(-cell.rotation.nu, cell.lo, hi, cell.h, cell.center + 1.0).free_operator is op
        arrays = [op.free, op.diag, op.laplacian]
        arrays += [arr for m in op.scatter.values() for arr in (m.data, m.indices, m.indptr)]
        assert sorted(op.scatter) == ["hessian", "mass"]
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[0]

    @pytest.mark.parametrize("name", ["1d", "2d-k3", "3d"])
    def test_indefinite_band_is_a_breakdown(self, name):
        cell, _ = EQUIVALENCE_CELLS[name]
        op = cell.free_operator
        # -1 on the (a, a) rows: the negated Laplacian stencil
        lap = np.zeros((cell.n**2, cell.num_cells))
        lap[:: cell.n + 1] = -1.0
        store = op.assemble("hessian", lap)
        with pytest.raises(SolverBreakdown, match="banded factorisation failed: 1-th leading minor"):
            cellhom.solvers._solve_free(op, store, np.ones((op.nfree, 1)))

    @pytest.mark.parametrize("name, bw", [("2d-k3", 8), ("3d", 13)], ids=["2d-k3", "3d"])
    def test_band_layout(self, name, bw):
        cell, _ = EQUIVALENCE_CELLS[name]
        op = cell.free_operator
        interior = [d - 1 for d in cell.dims]
        assert op.nfree == np.prod(interior)
        # the corner diagonal of a cell: one node forward along every axis
        assert op.bw == sum(int(np.prod(interior[a + 1 :])) for a in range(cell.n)) == bw


class TestSolveBulkCell:
    def test_euclid_affine_minimiser(self):
        cell = make_cell((0.0, 0.0), 8.0, (0.0, 1.0), 1, 0.25)
        res = solve_bulk_cell(cell, euclid(), [[1.0, 0.0]])
        assert res.value / cell.volume == pytest.approx(1.0, abs=1e-3)
        assert np.all(res.v.values == 1.0)

    def test_area_zero_datum(self):
        cell = make_cell((0.0, 0.0), 8.0, (0.0, 1.0), 1, 0.25)
        res = solve_bulk_cell(cell, area(), [[0.0, 0.0]])
        assert res.value / cell.volume == pytest.approx(1.0, abs=1e-3)

    def test_laminate_against_lp_oracle(self):
        r, h = 8.0, 0.05
        cell = make_cell((0.0,), r, (1.0,), 1, h)
        g = laminate(1.0, 2.0)
        coeffs = g.coeff_cells(cell.cell_centers_global)
        oracle = lp_bulk_oracle_1d(coeffs, h, 1.0 * r)
        assert oracle / r == pytest.approx(1.0, abs=1e-9)
        res = solve_bulk_cell(cell, g, [[1.0]])
        assert res.value <= oracle * 1.10
        assert res.value >= oracle - 1e-9

    def test_upper_bound_vs_affine_competitor(self):
        cell = make_cell((0.0, 0.0), 4.0, (0.0, 1.0), 1, 0.25)
        g = laminate(1.0, 2.0)
        u_aff = affine_datum(cell, [[1.0, 0.0]])
        res = solve_bulk_cell(cell, g, [[1.0, 0.0]])
        assert res.value <= bulk_energy(cell, g, u_aff) + 1e-12
        assert res.energy_trace[0] == pytest.approx(bulk_energy(cell, g, u_aff))

    def test_discrete_coercivity(self):
        cell = make_cell((0.0, 0.0), 4.0, (0.0, 1.0), 1, 0.25)
        g = laminate(1.0, 2.0)
        xi = np.array([[0.7, -0.4]])
        res = solve_bulk_cell(cell, g, xi)
        lower = 0.9 * np.linalg.norm(xi) / g.C * cell.volume
        assert res.value >= lower

    def test_trace_monotone(self):
        cell = make_cell((0.0, 0.0), 4.0, (0.0, 1.0), 1, 0.25)
        res = solve_bulk_cell(cell, laminate(1.0, 2.0), [[1.0, 0.0]])
        assert trace_is_non_increasing(res.energy_trace)
        assert res.value == res.energy_trace[-1]


class TestSolveSurfaceCell:
    def test_zero_jump(self):
        cell = make_cell((0.0, 0.0), 4.0, (0.0, 1.0), 1, 0.25)
        res = solve_surface_cell(cell, euclid(), [0.0])
        # u stays flat, so every v-step returns v = 1 exactly
        assert res.value == 0.0
        assert np.all(res.v.values == 1.0)

    def test_1d_cohesive_value(self):
        cell = make_cell((0.0,), 16.0, (1.0,), 1, 0.05)
        res = solve_surface_cell(cell, euclid(), [2.0])
        assert res.value == pytest.approx(1.0, rel=0.02)

    def test_2d_isotropic_level(self):
        cell = make_cell((0.0, 0.0), 8.0, (0.0, 1.0), 1, 0.25)
        res = solve_surface_cell(cell, euclid(), [1.0])
        assert res.value / cell.cross_section == pytest.approx(2.0 / 3.0, rel=0.15)

    def test_upper_bound_vs_seeded_initialisation(self):
        cell = make_cell((0.0, 0.0), 4.0, (0.0, 1.0), 1, 0.25)
        res = solve_surface_cell(cell, euclid(), [1.0])
        assert res.value <= res.energy_trace[0] + 1e-12
        assert trace_is_non_increasing(res.energy_trace)

    def test_density_enters_through_its_recession(self):
        # the surface energy integrates f_inf, and the recession of area is |xi|
        cell = make_cell((0.0, 0.0), 4.0, (0.0, 1.0), 1, 0.25)
        smooth = solve_surface_cell(cell, area(), [1.0])
        flat = solve_surface_cell(cell, euclid(), [1.0])
        assert smooth.value == flat.value and smooth.energy_trace == flat.energy_trace

    def test_datum_width_is_keyword_only(self):
        cell = make_cell((0.0, 0.0), 4.0, (0.0, 1.0), 1, 0.25)
        # a stale normal in the fourth place must not be read as a ramp width
        with pytest.raises(TypeError):
            solve_surface_cell(cell, euclid(), [1.0], (0.0, 1.0))

    def test_exhausted_early_level_reports_unconverged(self, monkeypatch):
        # zero jump: the first sweep lifts the seeded dip to v = 1, later
        # sweeps change nothing; one sweep per level exhausts only the first
        cell = make_cell((0.0, 0.0), 4.0, (0.0, 1.0), 1, 0.25)
        monkeypatch.setattr(cellhom.solvers, "DELTA_SCHEDULE", (1e-1, 1e-2))
        monkeypatch.setattr(cellhom.solvers, "AM_MAX_ITERS", 1)
        one = solve_surface_cell(cell, euclid(), [0.0])
        assert one.iterations == 2 and not one.converged
        monkeypatch.setattr(cellhom.solvers, "AM_MAX_ITERS", 2)
        two = solve_surface_cell(cell, euclid(), [0.0])
        assert two.iterations == 3 and two.converged
        assert one.value == two.value


    def test_vector_jump_is_the_scalar_cell(self):
        cell = make_cell((0.0, 0.0), 8.0, (0.6, 0.8), 1, 0.25)
        zeta = np.array([0.6, 0.8])
        vector = solve_surface_cell(cell, euclid(), zeta)
        scalar = solve_surface_cell(cell, euclid(), [np.linalg.norm(zeta)])
        assert vector.value == scalar.value and vector.converged and scalar.converged
        assert vector.energy_trace == scalar.energy_trace
        np.testing.assert_allclose(vector.u.values, scalar.u.values * zeta / np.linalg.norm(zeta), rtol=0, atol=1e-15)

    def test_small_jump_converges(self):
        # v barely dips, so the sweeps creep; the dual carried across
        # sweeps and levels keeps each level within AM_MAX_ITERS
        cell = make_cell((0.0, 0.0), 8.0, (0.0, 1.0), 1, 0.25)
        res = solve_surface_cell(cell, laminate(1.0, 2.0).recession_integrand(), [0.2])
        assert res.converged

    def test_exhausted_u_step_reports_unconverged(self, monkeypatch):
        # one smoothing level, whose sweeps meet their test even with
        # one-iteration u-steps; those u-steps ran out of their budget
        cell = make_cell((0.0, 0.0), 4.0, (0.0, 1.0), 1, 0.25)
        monkeypatch.setattr(cellhom.solvers, "DELTA_SCHEDULE", (1e-1,))
        assert solve_surface_cell(cell, euclid(), [1.0]).converged
        monkeypatch.setattr(cellhom.solvers, "U_MAX_ITERS", 1)
        assert not solve_surface_cell(cell, euclid(), [1.0]).converged


FIVE_LEVELS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)


class TestDeltaSchedule:
    """The shipped smoothing schedule against the five-level one it replaced.

    Every value is an upper bound of the discrete minimum, so the shorter
    schedule must not raise any of them, and it must cost fewer solves.
    """

    @staticmethod
    def _total_iterations(monkeypatch, solve_all):
        shipped = solve_all()
        monkeypatch.setattr(cellhom.solvers, "DELTA_SCHEDULE", FIVE_LEVELS)
        five = solve_all()
        for new, old in zip(shipped, five, strict=True):
            assert new.converged and old.converged
            assert new.value <= old.value
        return sum(r.iterations for r in shipped), sum(r.iterations for r in five)

    def test_interface_values_fall_in_fewer_sweeps(self, monkeypatch):
        # the five criterion-1 cells and three 2D cells on a rational normal
        line = make_cell((0.0,), 16.0, (1.0,), 1, 0.05)
        plane = make_cell((0.0, 0.0), 8.0, (0.6, 0.8), 1, 0.25)
        cases = [(line, s) for s in (0.5, 1.0, 2.0, 4.0, 8.0)] + [(plane, z) for z in (1.0, 1.5, 2.0)]

        def solve_all():
            return [solve_surface_cell(cell, euclid(), [z]) for cell, z in cases]

        sweeps, five_sweeps = self._total_iterations(monkeypatch, solve_all)
        assert 1.5 * sweeps <= five_sweeps

    def test_bulk_values_fall_in_fewer_newton_solves(self, monkeypatch):
        cell = make_cell((0.0, 0.0), 8.0, (0.0, 1.0), 1, 0.25)
        gs = [make_checkerboard(seed, 1.0, 2.0).realise() for seed in range(1, 9)]
        solves, five_solves = self._total_iterations(
            monkeypatch, lambda: [solve_bulk_cell(cell, g, [[1.0, 0.0]]) for g in gs]
        )
        assert solves < five_solves


class TestNewtonCount:
    def test_criterion1_cells_take_at_most_160_newton_solves(self, monkeypatch):
        # the five criterion-1 cells; 178 solves when a cell's first u-step
        # started from the primal dual q = Du/m
        u_step, solves = cellhom.solvers.minimize_u_given_v, []

        def counted(*args, **kwargs):
            out = u_step(*args, **kwargs)
            solves.append(kwargs["stats"]["iterations"])
            return out

        monkeypatch.setattr(cellhom.solvers, "minimize_u_given_v", counted)
        line = make_cell((0.0,), 16.0, (1.0,), 1, 0.05)
        results = [solve_surface_cell(line, euclid(), [s]) for s in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(r.converged for r in results)
        assert sum(solves) <= 160


class TestTracedNames:
    """The names a call tracer rebinds in ``cellhom.solvers`` stay on the solvers' call path.

    A tracer that wraps these module attributes counts each layer's work;
    a refactor that calls around one would silently zero its count.
    """

    BOUND = (
        "minimize_u_given_v",
        "minimize_v_given_u",
        "bulk_energy",
        "surface_energy",
        "cell_gradient",
        "cell_average",
        "spsolve",
    )
    WRAPPED = ("cell_gradient", "cell_average", "minimize_v_given_u", "bulk_energy", "surface_energy", "dpbsv")

    def test_bulk_and_interface_solves_reach_every_wrapped_name(self, monkeypatch):
        for name in self.BOUND:
            assert callable(getattr(cellhom.solvers, name)), name
        calls = dict.fromkeys(self.WRAPPED, 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in self.WRAPPED:
            monkeypatch.setattr(cellhom.solvers, name, counting(name, getattr(cellhom.solvers, name)))
        cell = make_cell((0.0, 0.0), 4.0, (0.0, 1.0), 1, 0.5)
        solve_bulk_cell(cell, make_checkerboard(1, 1.0, 2.0).realise(), [[1.0, 0.0]])
        bulk = dict(calls)
        calls.update(dict.fromkeys(self.WRAPPED, 0))
        solve_surface_cell(cell, euclid(), [1.0])
        assert {name for name, count in bulk.items() if count == 0} == {"minimize_v_given_u", "surface_energy"}
        assert {name for name, count in calls.items() if count == 0} == {"bulk_energy"}


class TestMinimizeUGivenV:
    @pytest.mark.parametrize("g", [euclid(), area()], ids=["euclid", "area"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_newton_system_matches_finite_differences(self, g, n, rng):
        cell = make_cell((0.0,) * n, 2.0, np.eye(n)[-1], 1, 0.5 if n == 2 else 0.25)
        op = cell.free_operator
        weights = rng.uniform(0.2, 1.0, size=cell.num_cells)
        coeff = g.coeff_cells(cell.cell_centers_global)
        u = rng.standard_normal(cell.node_shape + (1,))

        def objective(x):
            return cellhom.solvers._smoothed_objective(cell, g, coeff, weights, 0.3**2, x, 1)

        def system(x):
            _, Du, m = objective(x)
            # q = r: the primal Hessian, which the differences of the gradient measure
            grad, hess, *_ = cellhom.solvers._newton_system(cell, g, cell.h**n * weights * coeff, Du, m, Du / m[:, None, None])
            return grad.reshape(-1)[op.free], band_to_dense(op, op.assemble("hessian", hess[0]))

        def bumped(k, eps):
            x = u.copy()
            x.reshape(-1)[op.free[k]] += eps
            return x

        grad, hess = system(u)
        eps = 1e-5
        fd_grad = [(objective(bumped(k, eps))[0] - objective(bumped(k, -eps))[0]) / (2 * eps) for k in range(op.nfree)]
        fd_hess = np.column_stack(
            [(system(bumped(k, eps))[0] - system(bumped(k, -eps))[0]) / (2 * eps) for k in range(op.nfree)]
        )
        np.testing.assert_allclose(grad, fd_grad, rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(hess, fd_hess, rtol=1e-6, atol=1e-8 * np.abs(hess).max())

    @pytest.mark.parametrize("g", [euclid(), area()], ids=["euclid", "area"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_dual_hessian_matches_sparse_assembly(self, g, n, rng):
        # N = n components; a random dual in the closed unit ball, on its
        # sphere in every third cell
        cell = make_cell((0.0,) * n, 2.0, np.eye(n)[-1], 1, 0.5 if n == 2 else 0.25)
        op = cell.free_operator
        v = PhaseField(cell, rng.uniform(0.2, 1.0, size=cell.node_shape))
        u = rng.standard_normal(cell.node_shape + (n,))
        q = rng.standard_normal((cell.num_cells, n, n))
        radius = rng.uniform(0.0, 1.0, size=cell.num_cells)
        radius[::3] = 1.0
        q *= (radius / np.linalg.norm(q, axis=(1, 2)))[:, None, None]
        weights = cell_average(cell, v.values).reshape(-1) ** 2
        coeff = g.coeff_cells(cell.cell_centers_global)
        _, Du, m = cellhom.solvers._smoothed_objective(cell, g, coeff, weights, 0.3**2, u, n)
        grad, hess, *_ = cellhom.solvers._newton_system(cell, g, cell.h**n * weights * coeff, Du, m, q)
        ref_grad, blocks, _ = reference_newton_system(cell, g, v, 0.3, u, q)
        np.testing.assert_allclose(grad.reshape(-1, n)[op.free], ref_grad, rtol=0, atol=1e-13 * np.abs(ref_grad).max())
        for k, A in enumerate(blocks):
            store = op.assemble("hessian", hess[k])
            A = A.toarray()
            np.testing.assert_allclose(band_to_dense(op, store), A, rtol=0, atol=1e-13 * np.abs(A).max())
            # definite without the anchor: the banded Cholesky factorises it
            rhs = rng.standard_normal((op.nfree, 1))
            x = cellhom.solvers._solve_free(op, store, rhs.copy())
            np.testing.assert_allclose(A @ x, rhs, rtol=0, atol=1e-9)

    def test_dual_stays_in_unit_ball(self, rng):
        cell = make_cell((0.0, 0.0), 4.0, (0.0, 1.0), 1, 0.25)
        bdata = jump_datum(cell, [1.0], (0.0, 1.0), eps_width=4 * cell.h)
        v = PhaseField(cell, rng.uniform(0.2, 1.0, size=cell.node_shape))
        dual = None
        # the second u-step starts from the dual the first returned
        for delta in (1e-2, 1e-4):
            stats = {}
            minimize_u_given_v(cell, euclid(), v, bdata, delta, stats=stats, dual=dual)
            dual = stats["dual"]
            assert stats["converged"] and stats["iterations"] >= 1
            assert dual.shape == (cell.num_cells, 1, 2)
            assert np.all(np.linalg.norm(dual, axis=(1, 2)) <= 1.0)

    def test_zero_weight_keeps_start(self):
        cell = make_cell((0.0, 0.0), 4.0, (0.0, 1.0), 1, 0.5)
        v = PhaseField(cell, np.zeros(cell.node_shape))
        bdata = affine_datum(cell, [[1.0, 0.0]])
        start = VectorField(cell, bdata.values + 0.123)
        out = minimize_u_given_v(cell, euclid(), v, bdata, 1e-2, start=start)
        interior = ~cell.boundary_mask
        np.testing.assert_allclose(out.values[interior], start.values[interior])
        np.testing.assert_allclose(out.values[cell.boundary_mask], bdata.values[cell.boundary_mask])

    def test_convex_exact_case(self):
        cell = make_cell((0.0, 0.0), 4.0, (0.0, 1.0), 1, 0.25)
        bdata = affine_datum(cell, [[1.0, 0.0]])
        out = minimize_u_given_v(cell, euclid(), PhaseField.ones(cell), bdata, 1e-3)
        obj = bulk_energy(cell, euclid(), out)
        assert obj == pytest.approx(cell.volume * 1.0, rel=1e-3)

    def test_beats_boundary_extension_under_random_weight(self, rng):
        cell = make_cell((0.0, 0.0), 4.0, (0.0, 1.0), 1, 0.5)
        v = PhaseField(cell, rng.uniform(0.2, 1.0, size=cell.node_shape))
        bdata = affine_datum(cell, [[1.0, 0.5]])
        out = minimize_u_given_v(cell, euclid(), v, bdata, 1e-3)
        w = cell_average(cell, v.values).reshape(-1) ** 2

        def weighted(uf):
            Du = cell_gradient(cell, uf.values).reshape(cell.num_cells, 1, 2)
            m = np.sqrt(np.sum(Du**2, axis=(1, 2)))
            return cell.h**2 * float(np.sum(w * m))

        assert weighted(out) <= weighted(bdata) + 1e-10

    def test_non_finite_step_stops_unconverged(self):
        nan_deriv = Integrand(
            id="nan-deriv",
            C=1.0,
            alpha=0.5,
            profile=lambda s: np.asarray(s, dtype=float),
            profile_deriv=lambda s: np.full_like(np.asarray(s, dtype=float), np.nan),
            profile_deriv2=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
            recession_slope=1.0,
        )
        cell = make_cell((0.0, 0.0), 4.0, (0.0, 1.0), 1, 0.5)
        bdata = affine_datum(cell, [[1.0, 0.0]])
        start = VectorField(cell, bdata.values + 0.123)
        stats = {}
        out = minimize_u_given_v(cell, nan_deriv, PhaseField.ones(cell), bdata, 1e-2, start=start, stats=stats)
        assert stats["iterations"] <= 2 and stats["stalled"] and not stats["converged"]
        expected = start.values.copy()
        expected[cell.boundary_mask] = bdata.values[cell.boundary_mask]
        np.testing.assert_array_equal(out.values, expected)
        res = solve_bulk_cell(cell, nan_deriv, [[1.0, 0.0]])
        assert not res.converged and res.iterations <= 2 * len(cellhom.solvers.DELTA_SCHEDULE)

    def test_rejects_bad_delta(self):
        cell = make_cell((0.0, 0.0), 4.0, (0.0, 1.0), 1, 0.5)
        bdata = affine_datum(cell, [[1.0, 0.0]])
        with pytest.raises(InputDomainError):
            minimize_u_given_v(cell, euclid(), PhaseField.ones(cell), bdata, 0.0)


class TestMinimizeVGivenU:
    def test_constant_u_gives_ones(self):
        # zero weights leave a zero half-gradient at v = 1, so the Newton
        # step is exactly zero
        for cell, zeta in EQUIVALENCE_CELLS.values():
            u = VectorField(cell, np.broadcast_to(0.7 * np.asarray(zeta), cell.node_shape + (len(zeta),)))
            v = minimize_v_given_u(cell, euclid(), u)
            assert np.array_equal(v.values, np.ones(cell.node_shape))

    def test_decay_length_against_analytic_profile(self):
        # a point mass at the origin dips the phase and the recovery is
        # exponential with unit decay length
        cell = make_cell((0.0,), 16.0, (1.0,), 1, 0.05)
        zn = cell.local_nodes[..., -1]
        u = VectorField(cell, np.where(zn > 1e-12, 10.0, 0.0)[..., None])
        v = minimize_v_given_u(cell, euclid(), u)
        # anchor one node past the carrying cell: both of its corner nodes
        # are dipped, the exponential recovery starts from the next node
        idx = np.flatnonzero(np.isclose(zn, cell.h))[0]
        t0 = v.values[idx]
        zs = zn[idx:]
        analytic = 1.0 - (1.0 - t0) * np.exp(-(zs - zs[0]))
        inner = zs - zs[0] < 6.0
        np.testing.assert_allclose(v.values[idx:][inner], analytic[inner], atol=0.04)

    def test_point_mass_dip_value(self):
        # mass s = 2 concentrated at the origin: dip about 2/(s+2) = 0.5
        cell = make_cell((0.0,), 16.0, (1.0,), 1, 0.05)
        zn = cell.local_nodes[..., -1]
        s = 2.0
        u = VectorField(cell, np.where(zn > 1e-12, s, 0.0)[..., None])
        v = minimize_v_given_u(cell, euclid(), u)
        assert v.values.min() == pytest.approx(2.0 / (s + 2.0), rel=0.10)

    def test_non_finite_solve_is_a_breakdown(self, monkeypatch):
        cell = make_cell((0.0, 0.0), 4.0, (0.0, 1.0), 1, 0.5)
        u = jump_datum(cell, [1.0], (0.0, 1.0), eps_width=1.0)
        monkeypatch.setattr(cellhom.solvers, "dpbsv", lambda ab, b, **kw: (ab, np.full(b.shape, np.nan), 0))
        with pytest.raises(SolverBreakdown, match="non-finite"):
            minimize_v_given_u(cell, euclid(), u)

    def test_improves_on_previous_phase(self, rng):
        cell = make_cell((0.0, 0.0), 4.0, (0.0, 1.0), 1, 0.25)
        u = jump_datum(cell, [1.0], (0.0, 1.0), eps_width=1.0)
        v_prev = PhaseField(cell, rng.uniform(0.3, 1.0, size=cell.node_shape))
        v_prev.values[cell.boundary_mask] = 1.0
        v_new = minimize_v_given_u(cell, euclid(), u)
        e_prev = surface_energy(cell, euclid(), u, v_prev)
        e_new = surface_energy(cell, euclid(), u, v_new)
        assert e_new <= e_prev + 1e-9

