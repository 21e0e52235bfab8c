from dataclasses import replace

import numpy as np
import pytest

from cellhom.integrand import (
    InputDomainError,
    Integrand,
    area,
    euclid,
    laminate,
    make_checkerboard,
    resolve,
    shift,
    validate_admissibility,
)


def sqrt_kink():
    """f(x, xi) = |xi| + sqrt(|xi|); recession |xi|, approached at rate t^(-1/2)."""
    return Integrand(
        id="sqrt-kink",
        C=2.0,
        alpha=0.5,
        profile=lambda s: np.asarray(s, dtype=float) + np.sqrt(np.asarray(s, dtype=float)),
        profile_deriv=lambda s: 1.0 + 0.5 / np.sqrt(np.maximum(np.asarray(s, dtype=float), 1e-300)),
        profile_deriv2=lambda s: -0.25 * np.maximum(np.asarray(s, dtype=float), 1e-300) ** -1.5,
        recession_slope=1.0,
    )


class TestIntegrand:
    def test_profile_deriv_is_required(self):
        # the u-step reweights with profile_deriv, so the type demands it
        with pytest.raises(TypeError, match="profile_deriv"):
            Integrand(id="no-deriv", C=1.0, alpha=0.5, profile=lambda s: np.asarray(s, dtype=float))

    def test_recession_slope_is_required(self):
        # the recession is coeff(x) * slope * |xi|, so the slope is declared
        with pytest.raises(TypeError, match="recession_slope"):
            Integrand(
                id="no-slope",
                C=1.0,
                alpha=0.5,
                profile=lambda s: np.asarray(s, dtype=float),
                profile_deriv=lambda s: np.ones_like(np.asarray(s, dtype=float)),
            )


class TestEvalDensity:
    def test_euclid_norm(self):
        assert euclid().eval_cells([(0.0, 0.0)], [[[3.0, 4.0]]])[0] == pytest.approx(5.0)

    def test_area_zero_gradient(self):
        assert area().eval_cells([(0.3, -2.0)], [[[0.0, 0.0]]])[0] == pytest.approx(1.0)

    def test_laminate_piecewise_coefficient(self):
        g = laminate(1.0, 2.0)
        assert g.eval_cells([(1.5, 0.0)], [[[1.0, 0.0]]])[0] == pytest.approx(2.0)
        assert g.eval_cells([(0.5, 0.0)], [[[1.0, 0.0]]])[0] == pytest.approx(1.0)

    def test_purity_bit_identical(self):
        g = area()
        vals = {g.eval_cells([(0.1, 0.2)], [[[1.7, -0.3]]])[0] for _ in range(10)}
        assert len(vals) == 1

    def test_rejects_non_finite(self):
        with pytest.raises(InputDomainError):
            euclid().eval_cells([(0.0, np.nan)], [[[1.0, 0.0]]])[0]
        with pytest.raises(InputDomainError):
            euclid().eval_cells([(0.0, 0.0)], [[[np.inf, 0.0]]])[0]


class TestEvalRecession:
    def test_area_analytic_limit(self):
        assert area().recession_integrand().eval_cells([(0.0, 0.0)], [[[1.0, 0.0]]])[0] == pytest.approx(1.0)

    def test_euclid_already_homogeneous(self):
        assert euclid().recession_integrand().eval_cells([(0.0, 0.0)], [[[0.0, 2.0]]])[0] == pytest.approx(2.0)

    def test_zero_matrix(self):
        assert area().recession_integrand().eval_cells([(0.0, 0.0)], [[[0.0, 0.0]]])[0] == 0.0


class TestValidateAdmissibility:
    def test_euclid_passes_with_tight_growth(self):
        report = validate_admissibility(euclid())
        assert report.passed
        assert report.growth_margin == pytest.approx(0.0, abs=1e-12)

    def test_area_passes(self):
        assert validate_admissibility(area()).passed

    def test_laminate_and_sqrt_kink_pass(self):
        assert validate_admissibility(laminate(1.0, 2.0)).passed
        assert validate_admissibility(sqrt_kink()).passed

    def test_misdeclared_constant_fails_growth(self):
        bad = Integrand(
            id="euclid-misdeclared",
            C=0.5,
            alpha=0.5,
            profile=lambda s: np.asarray(s, dtype=float),
            profile_deriv=lambda s: np.ones_like(np.asarray(s, dtype=float)),
            profile_deriv2=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
            recession_slope=1.0,
        )
        report = validate_admissibility(bad)
        assert not report.passed
        assert report.growth_margin > 0

    def test_misdeclared_slope_fails_rate(self):
        # f(t xi)/t tends to |xi|, so a declared slope of 1.1 misses the
        # scaled values by 0.1 |xi|, beyond the (C, alpha) rate bound
        report = validate_admissibility(replace(sqrt_kink(), recession_slope=1.1))
        assert not report.passed
        assert max(report.recession_rate_margins.values()) > 0


class TestCheckerboard:
    def test_degenerate_interval_is_base(self, rng):
        model = make_checkerboard(7, 1.0, 1.0)
        for _ in range(20):
            x = rng.uniform(-5, 5, size=2)
            xi = rng.normal(size=(1, 2))
            assert model.realise().eval_cells([x], [xi])[0] == pytest.approx(np.linalg.norm(xi))

    def test_reproducible_coefficients(self):
        m1 = make_checkerboard(7, 1.0, 2.0)
        m2 = make_checkerboard(7, 1.0, 2.0)
        centres = np.array([(0, 0), (3, -1), (-10, 5)]) + 0.5
        np.testing.assert_array_equal(m1.coeff_field(centres), m2.coeff_field(centres))

    def test_distinct_seeds_differ(self):
        m1 = make_checkerboard(7, 1.0, 2.0)
        m2 = make_checkerboard(8, 1.0, 2.0)
        centres = np.array([(i, j) for i in range(10) for j in range(10)]) + 0.5
        diffs = np.sum(m1.coeff_field(centres) != m2.coeff_field(centres))
        assert diffs >= 1

    def test_coefficients_in_range(self, rng):
        model = make_checkerboard(3, 1.25, 1.75)
        pts = rng.uniform(-50, 50, size=(200, 2))
        coeffs = model.coeff_field(pts)
        assert np.all(coeffs >= 1.25) and np.all(coeffs <= 1.75)

    def test_invalid_bounds(self):
        with pytest.raises(InputDomainError):
            make_checkerboard(1, 0.0, 1.0)
        with pytest.raises(InputDomainError):
            make_checkerboard(1, 2.0, 1.0)

    def test_realise_declares_scaled_constant(self):
        model = make_checkerboard(1, 0.5, 2.0)
        assert model.realise().C == pytest.approx(model.base.C * 2.0)


class TestShift:
    def test_zero_shift_identity(self, rng):
        m = make_checkerboard(5, 1.0, 2.0)
        s, m = shift(m, (0, 0)).realise(), m.realise()
        for _ in range(50):
            x = rng.uniform(-10, 10, size=2)
            xi = rng.normal(size=(1, 2))
            assert s.eval_cells([x], [xi])[0] == m.eval_cells([x], [xi])[0]

    def test_group_inverse(self, rng):
        m = make_checkerboard(5, 1.0, 2.0)
        s, m = shift(shift(m, (3, -2)), (-3, 2)).realise(), m.realise()
        for _ in range(100):
            x = rng.uniform(-10, 10, size=2)
            xi = rng.normal(size=(1, 2))
            assert s.eval_cells([x], [xi])[0] == m.eval_cells([x], [xi])[0]

    def test_group_law(self, rng):
        m = make_checkerboard(5, 1.0, 2.0)
        lhs = shift(shift(m, (1, 4)), (2, -1)).realise()
        rhs = shift(m, (3, 3)).realise()
        for _ in range(100):
            x = rng.uniform(-10, 10, size=2)
            xi = rng.normal(size=(1, 2))
            assert lhs.eval_cells([x], [xi])[0] == rhs.eval_cells([x], [xi])[0]

    def test_stationarity_exact(self, rng):
        m = make_checkerboard(11, 1.0, 3.0)
        for _ in range(1000):
            x = rng.uniform(-20, 20, size=2)
            xi = rng.normal(size=(1, 2))
            z = rng.integers(-15, 15, size=2)
            assert shift(m, z).realise().eval_cells([x], [xi])[0] == m.realise().eval_cells([x + z], [xi])[0]

    def test_non_integer_rejected(self):
        with pytest.raises(InputDomainError):
            shift(make_checkerboard(1, 1.0, 2.0), (0.5, 0.0))


class TestResolve:
    def test_catalog_ids(self):
        assert resolve("euclid").id == "euclid"
        assert resolve("area").id == "area"
        g = resolve("laminate:1,2;seg=0.5;axis=1")
        assert g.eval_cells([(0.0, 0.25)], [[[1.0, 0.0]]])[0] == pytest.approx(1.0)
        assert g.eval_cells([(0.0, 0.75)], [[[1.0, 0.0]]])[0] == pytest.approx(2.0)
        model = resolve("checkerboard:7,1,2,euclid")
        assert model.master_seed == 7

    def test_unknown_id(self):
        with pytest.raises(InputDomainError):
            resolve("perimeter")
        with pytest.raises(InputDomainError):
            resolve("laminate:1,2;foo=1")


class TestGrowthOfCatalog:
    @pytest.mark.parametrize("factory", [euclid, area, lambda: laminate(1.0, 2.0)])
    def test_declared_constants_verified(self, factory):
        assert validate_admissibility(factory()).passed
