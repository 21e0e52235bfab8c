import numpy as np
import pytest

import cellhom.homogenise
from cellhom.fields import affine_datum, bulk_energy
from cellhom.geometry import make_cell
from cellhom.homogenise import (
    Schedule,
    UnsupportedNormalError,
    estimate_f_hom,
    estimate_f_inf_hom,
    estimate_g_hom,
    lattice_period,
    mc_expectation,
    subadditive_process_eval,
)
from cellhom.integrand import InputDomainError, area, euclid, laminate, make_checkerboard, shift
from cellhom.solvers import solve_bulk_cell
from cellhom.verify import RAMP_SLOPE_MAX

E2 = (0.0, 1.0)


class TestEstimateFHom:
    def test_euclid_scale_invariant(self):
        est = estimate_f_hom(euclid(), [[1.0, 0.0]], Schedule((4.0, 8.0), 0.25))
        np.testing.assert_allclose(est.scaled_values, 1.0, atol=1e-3)
        assert est.cauchy_gap <= 1e-3
        assert not est.warnings

    def test_checkerboard_between_coercivity_and_affine_mean(self):
        model = make_checkerboard(2, 1.0, 2.0)
        g = model.realise()
        sched = Schedule((4.0, 8.0), 0.25)
        est = estimate_f_hom(g, [[1.0, 0.0]], sched)
        for r, res, scaled in zip(est.r_values, est.per_r_results, est.scaled_values):
            cell = sched.cell(r, 2)
            affine = bulk_energy(cell, g, affine_datum(cell, [[1.0, 0.0]]))
            assert scaled >= 1.0 - 1e-9  # exact discrete coercivity at a_min = 1
            assert res.value <= affine + 1e-9  # affine-competitor mean bound
            assert scaled <= 2.0 + 1e-9

    def test_center_independence_for_periodic_density(self):
        g = laminate(1.0, 2.0)
        tol_r = 0.05
        e0 = estimate_f_hom(g, [[1.0, 0.0]], Schedule((16.0,), 0.25))
        e1 = estimate_f_hom(g, [[1.0, 0.0]], Schedule((16.0,), 0.25, center=(0.37, -1.2)))
        assert abs(e0.extrapolated - e1.extrapolated) <= 2 * tol_r

    def test_schedule_validation(self):
        with pytest.raises(InputDomainError):
            Schedule((8.0, 4.0))
        with pytest.raises(InputDomainError):
            Schedule(())

    def test_gradient_dimension_must_match_normal(self):
        with pytest.raises(InputDomainError, match="gradient dimension 3 does not match normal dimension 2"):
            estimate_f_hom(euclid(), [[1.0, 0.0, 0.0]], Schedule((4.0,), 0.5, nu=E2))


class TestRecessionRoutes:
    def test_euclid_both_routes(self):
        sched = Schedule((4.0, 8.0), 0.25)
        for route in ("hom_of_recession", "recession_of_hom"):
            est = estimate_f_inf_hom(euclid(), [[1.0, 0.0]], route, sched)
            assert est.extrapolated == pytest.approx(1.0, abs=1e-3)
            assert est.route == route

    def test_area_hom_of_recession(self):
        est = estimate_f_inf_hom(area(), [[1.0, 0.0]], "hom_of_recession", Schedule((4.0, 8.0), 0.25))
        assert est.extrapolated == pytest.approx(1.0, abs=1e-3)

    def test_area_recession_of_hom(self):
        est = estimate_f_inf_hom(
            area(), [[1.0, 0.0]], "recession_of_hom", Schedule((4.0, 8.0), 0.25), t_schedule=(8.0, 32.0, 128.0)
        )
        assert est.extrapolated == pytest.approx(1.0, abs=2e-2)

    def test_unknown_route(self):
        with pytest.raises(InputDomainError):
            estimate_f_inf_hom(euclid(), [[1.0, 0.0]], "backwards", Schedule((4.0,), 0.25))

    def test_recession_of_hom_solves_once_per_t(self, monkeypatch):
        calls = []

        def counting(cell, g, xi):
            calls.append(cell.dims)
            return solve_bulk_cell(cell, g, xi)

        monkeypatch.setattr(cellhom.homogenise, "solve_bulk_cell", counting)
        t_schedule = (8.0, 32.0, 128.0)
        est = estimate_f_inf_hom(euclid(), [[1.0, 0.0]], "recession_of_hom", Schedule((2.0, 4.0), 0.5), t_schedule)
        # only the largest r feeds a row, so only it is solved
        assert calls == [(8, 8)] * len(t_schedule)
        assert len(est.per_r_results) == len(t_schedule)


class TestEstimateGHom:
    def test_zero_jump(self):
        est = estimate_g_hom(euclid(), [0.0], E2, Schedule((4.0, 8.0), 0.25, nu=E2))
        np.testing.assert_allclose(est.scaled_values, 0.0, atol=1e-8)

    def test_1d_cohesive(self):
        est = estimate_g_hom(euclid(), [2.0], (1.0,), Schedule((16.0,), 0.05, nu=(1.0,)))
        assert est.extrapolated == pytest.approx(1.0, rel=0.02)

    def test_density_enters_through_its_recession(self):
        # the cells integrate f_inf, and the recession of area is |xi|
        sched = Schedule((4.0, 8.0), 0.25, nu=E2)
        smooth, flat = (estimate_g_hom(g, [1.0], E2, sched) for g in (area(), euclid()))
        assert smooth.scaled_values.tolist() == flat.scaled_values.tolist()
        assert [r.energy_trace for r in smooth.per_r_results] == [r.energy_trace for r in flat.per_r_results]


class TestMonteCarlo:
    def test_degenerate_model_zero_std(self):
        model = make_checkerboard(3, 1.5, 1.5)
        est = mc_expectation(model, "f_hom", np.array([[1.0, 0.0]]), seeds=[1, 2], r=4.0, h=0.25)
        assert est.ensemble["std"] == 0.0

    def test_per_seed_values_bounded(self):
        model = make_checkerboard(3, 1.0, 2.0)
        est = mc_expectation(model, "f_hom", np.array([[1.0, 0.0]]), seeds=[1, 2, 3, 4], r=4.0, h=0.25)
        vals = est.ensemble["values"]
        assert np.all(vals >= 1.0 - 1e-9) and np.all(vals <= 2.0 + 1e-9)
        assert est.ensemble["mean"] == pytest.approx(np.mean(vals))
        assert vals.min() <= est.ensemble["mean"] <= vals.max()

    def test_needs_two_seeds(self):
        model = make_checkerboard(3, 1.0, 2.0)
        with pytest.raises(InputDomainError):
            mc_expectation(model, "f_hom", np.array([[1.0, 0.0]]), seeds=[1], r=4.0)

    def test_needs_distinct_seeds(self):
        # a repeated seed is a second copy of one realisation, not an independent sample
        model = make_checkerboard(3, 1.0, 2.0)
        with pytest.raises(InputDomainError, match="seeds must be distinct"):
            mc_expectation(model, "f_hom", np.array([[1.0, 0.0]]), seeds=[1, 2, 1], r=4.0)

    def test_ghom_quantity(self):
        model = make_checkerboard(3, 1.0, 2.0)
        est = mc_expectation(model, "g_hom", ([1.0], E2), seeds=[1, 2], r=4.0, h=0.25)
        lo = 2.0 / (2.0 * 3.0)
        hi = 2.0 * 2.0 / 3.0
        assert lo * 0.8 <= est.ensemble["mean"] <= hi * 1.2

    def test_shifted_model_keeps_offset(self):
        xi = np.array([[1.0, 0.0]])
        z = (3, -2)
        est = mc_expectation(shift(make_checkerboard(0, 1.0, 2.0), z), "f_hom", xi, seeds=[1, 2], r=2.0, h=0.5)

        def cell_value(model):
            return estimate_f_hom(model.realise(), xi, Schedule((2.0,), 0.5, 1)).extrapolated

        per_seed = [cell_value(shift(make_checkerboard(s, 1.0, 2.0), z)) for s in (1, 2)]
        unshifted = [cell_value(make_checkerboard(s, 1.0, 2.0)) for s in (1, 2)]
        assert per_seed != unshifted  # the shift moves the cell onto other coefficients
        assert est.ensemble["values"].tolist() == per_seed


class TestSubadditiveProcess:
    def test_axis_normal_period_one(self):
        M, _ = lattice_period(E2)
        assert M == 1

    def test_rational_normal_period(self):
        M, rot = lattice_period((0.6, 0.8))
        assert M == 5
        np.testing.assert_allclose(5 * rot.matrix, np.round(5 * rot.matrix), atol=1e-12)

    def test_irrational_normal_rejected(self):
        nu = np.array([1.0, np.sqrt(3.0)])
        nu /= np.linalg.norm(nu)
        with pytest.raises(UnsupportedNormalError):
            lattice_period(nu)

    def test_zero_jump_vanishes(self):
        model = make_checkerboard(3, 1.0, 2.0)
        val = subadditive_process_eval(model, [0.0], E2, [(0.0, 1.0)], h=0.25).extrapolated
        assert val == pytest.approx(0.0, abs=1e-8)

    def test_upper_bound_by_datum_energy(self):
        model = make_checkerboard(3, 1.0, 2.0)
        val = subadditive_process_eval(model, [1.0], E2, [(0.0, 1.0)], h=0.25).extrapolated
        C = model.base.C * max(model.a_max, 1.0 / model.a_min)
        assert 0.0 <= val <= C * 1.0 * RAMP_SLOPE_MAX * 1.0

    def test_subadditive_on_halving_split(self):
        model = make_checkerboard(3, 1.0, 2.0)
        whole = subadditive_process_eval(model, [1.0], E2, [(0.0, 2.0)], h=0.25).extrapolated
        parts = sum(subadditive_process_eval(model, [1.0], E2, p, h=0.25).extrapolated for p in ([(0.0, 1.0)], [(1.0, 2.0)]))
        assert whole <= parts * 1.05

    def test_lattice_covariance_exact(self):
        model = make_checkerboard(3, 1.0, 2.0)
        M, rot = lattice_period((0.6, 0.8))
        z_nu = np.round(M * rot.matrix @ np.array([1.0, 0.0])).astype(int)
        assert abs(z_nu @ np.array([0.6, 0.8])) < 1e-12
        a = subadditive_process_eval(model, [1.0], (0.6, 0.8), [(1.0, 2.0)], h=0.25).extrapolated
        b = subadditive_process_eval(shift(model, z_nu), [1.0], (0.6, 0.8), [(0.0, 1.0)], h=0.25).extrapolated
        assert a == pytest.approx(b, abs=1e-10)

    def test_bad_interval(self):
        model = make_checkerboard(3, 1.0, 2.0)
        with pytest.raises(InputDomainError):
            subadditive_process_eval(model, [1.0], E2, [(1.0, 1.0)], h=0.25)
