from dataclasses import replace

import numpy as np
import pytest

import cellhom.solvers
from cellhom.homogenise import HomEstimate, Schedule
from cellhom.integrand import area, euclid, laminate, make_checkerboard
from cellhom.verify import (
    check_admissibility,
    check_fhom_growth,
    check_fhom_lipschitz,
    check_fhom_rank_one_convexity,
    check_ghom_bounds,
    check_ghom_symmetry_and_lipschitz,
    check_recession_routes,
    check_subadditive_process,
)

E2 = (0.0, 1.0)


def fake_estimate(quantity, argument, value):
    return HomEstimate(
        quantity=quantity,
        argument=argument,
        r_values=(8.0,),
        scaled_values=np.array([value]),
        per_r_results=[],
    )


def euclid_table(values=(0.5, 1.0, 2.0, 4.0)):
    return [fake_estimate("f_hom", (np.array([[t, 0.0]]),), t) for t in values]


class TestAdmissibility:
    @pytest.mark.parametrize(
        "g",
        [euclid(), area(), laminate(1.0, 2.0), make_checkerboard(1, 1.0, 2.0).realise()],
        ids=["euclid", "area", "laminate", "checkerboard"],
    )
    def test_catalog_passes(self, g):
        check = check_admissibility(g)
        assert check.passed and check.converged
        assert check.margin <= 0.0

    def test_misdeclared_slope_fails(self):
        # |xi| scaled by 1.1 exceeds the recession bound C |xi| with C = 1
        check = check_admissibility(replace(euclid(), recession_slope=1.1))
        assert not check.passed
        assert check.margin == pytest.approx(0.464, abs=1e-3)
        assert check.tolerance == 1e-10


class TestFhomGrowth:
    def test_exact_table_passes(self):
        check = check_fhom_growth(euclid_table(), C=1.0)
        assert check.passed
        assert check.margin <= 1e-12

    def test_misscaled_estimate_fails(self):
        table = euclid_table()
        table.append(fake_estimate("f_hom", (np.array([[8.0, 0.0]]),), 80.0))
        check = check_fhom_growth(table, C=1.0)
        assert not check.passed
        assert check.margin > 0


class TestFhomLipschitz:
    def test_euclid_quotients_below_cap(self):
        check = check_fhom_lipschitz(euclid_table(), C=1.0, n=2)
        assert check.passed

    def test_injected_non_lipschitz_table_fails(self):
        table = euclid_table((1.0, 1.001, 2.0))
        table[1] = fake_estimate("f_hom", (np.array([[1.001, 0.0]]),), 100.0)
        check = check_fhom_lipschitz(table, C=1.0, n=2)
        assert not check.passed

    def test_needs_three_estimates(self):
        from cellhom.integrand import InputDomainError

        with pytest.raises(InputDomainError):
            check_fhom_lipschitz(euclid_table((1.0, 2.0)), C=1.0, n=2)


class TestGhomBounds:
    def test_cohesive_level_passes(self):
        sweep = [fake_estimate("g_hom", (np.array([z]), np.array(E2)), 2 * z / (z + 2)) for z in (0.5, 1.0, 2.0)]
        assert check_ghom_bounds(sweep, C=1.0).passed

    def test_zero_amplitude(self):
        sweep = [fake_estimate("g_hom", (np.array([0.0]), np.array(E2)), 0.0)]
        assert check_ghom_bounds(sweep, C=1.0).passed

    def test_violation_fails(self):
        sweep = [fake_estimate("g_hom", (np.array([1.0]), np.array(E2)), 10.0)]
        assert not check_ghom_bounds(sweep, C=1.0).passed


class TestGhomSymmetry:
    def _sweep(self):
        return [fake_estimate("g_hom", (np.array([z]), np.array(E2)), 2 * z / (z + 2)) for z in (0.5, 1.0, 2.0)]

    def test_symmetric_pair_passes(self):
        e = fake_estimate("g_hom", (np.array([1.0]), np.array(E2)), 2.0 / 3.0)
        check = check_ghom_symmetry_and_lipschitz([(e, e)], self._sweep(), C=1.0, n=2)
        assert check.passed

    def test_injected_asymmetry_fails(self):
        e1 = fake_estimate("g_hom", (np.array([1.0]), np.array(E2)), 2.0 / 3.0)
        e2 = fake_estimate("g_hom", (np.array([-1.0]), -np.array(E2)), 1.0)
        check = check_ghom_symmetry_and_lipschitz([(e1, e2)], self._sweep(), C=1.0, n=2)
        assert not check.passed

    def test_steep_sweep_fails_lipschitz(self):
        sweep = [
            fake_estimate("g_hom", (np.array([0.0]), np.array(E2)), 0.0),
            fake_estimate("g_hom", (np.array([0.01]), np.array(E2)), 1.0),
            fake_estimate("g_hom", (np.array([0.02]), np.array(E2)), 2.0),
        ]
        check = check_ghom_symmetry_and_lipschitz([], sweep, C=1.0, n=2)
        assert not check.passed


class TestRecessionRoutes:
    def test_euclid_routes_agree(self):
        check = check_recession_routes(euclid(), np.array([[1.0, 0.0]]), Schedule((4.0, 8.0), 0.25))
        assert check.passed
        assert check.margin <= 0


class TestSubadditiveProcessCheck:
    def test_single_interval_split_is_equality(self):
        model = make_checkerboard(3, 1.0, 2.0)
        splits = [([(0.0, 1.0)], [[(0.0, 1.0)]])]
        # without slack the margin is exactly the split's relative excess,
        # 0, since the volume bound holds with room
        check = check_subadditive_process(model, [1.0], E2, splits, h=0.25, slack=0.0)
        assert check.passed
        assert check.margin == 0.0

    def test_halving_split_and_shift(self):
        model = make_checkerboard(3, 1.0, 2.0)
        splits = [([(0.0, 2.0)], [[(0.0, 1.0)], [(1.0, 2.0)]])]
        check = check_subadditive_process(model, [1.0], E2, splits, h=0.25, shifts=[(1,)])
        assert check.passed

    def test_unconverged_solve_is_reported(self, monkeypatch):
        # one sweep per smoothing level cannot meet the level's decrease test
        monkeypatch.setattr(cellhom.solvers, "AM_MAX_ITERS", 1)
        model = make_checkerboard(3, 1.0, 2.0)
        splits = [([(0.0, 1.0)], [[(0.0, 1.0)]])]
        check = check_subadditive_process(model, [1.0], E2, splits, h=0.25)
        assert not check.converged


class TestRankOneConvexity:
    def test_euclid_passes(self):
        check = check_fhom_rank_one_convexity(euclid(), Schedule((4.0,), 0.25), lines=2, seed=3)
        assert check.passed
