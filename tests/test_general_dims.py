"""Shapes beyond the scalar 2D default: elongated cells, vector targets, 3D."""

import numpy as np
import pytest

from cellhom.fields import PhaseField, affine_datum, bulk_energy, surface_energy
from cellhom.geometry import make_cell
from cellhom.homogenise import Schedule, estimate_f_hom
from cellhom.integrand import euclid, laminate
from cellhom.solvers import minimize_v_given_u, solve_bulk_cell, solve_surface_cell


class TestElongatedCells:
    def test_bulk_scale_invariance_with_k(self):
        for k in (1, 2, 3):
            est = estimate_f_hom(euclid(), [[1.0, 0.0]], Schedule((4.0, 8.0), 0.25, k=k))
            np.testing.assert_allclose(est.scaled_values, 1.0, atol=1e-3)

    def test_k_reported_in_volume(self):
        cell = make_cell((0.0, 0.0), 4.0, (0.0, 1.0), k=3, h=0.25)
        assert cell.volume == pytest.approx(3.0 * 16.0)


class TestVectorValued:
    def test_affine_exactness_N2(self):
        cell = make_cell((0.0, 0.0), 4.0, (0.0, 1.0), 1, 0.25)
        xi = np.array([[1.0, 0.5], [-0.25, 2.0]])
        res = solve_bulk_cell(cell, euclid(), xi)
        assert res.value / cell.volume == pytest.approx(np.linalg.norm(xi), abs=1e-3)

    def test_vector_jump_surface(self):
        cell = make_cell((0.0,), 8.0, (1.0,), 1, 0.1)
        zeta = np.array([1.2, -0.9])
        res = solve_surface_cell(cell, euclid(), zeta)
        s = np.linalg.norm(zeta)
        assert res.value == pytest.approx(2.0 * s / (s + 2.0), rel=0.05)

    def test_v_step_with_vector_field(self):
        cell = make_cell((0.0, 0.0), 4.0, (0.0, 1.0), 1, 0.5)
        u = affine_datum(cell, np.array([[0.2, 0.0], [0.0, 0.3]]))
        v = minimize_v_given_u(cell, euclid(), u)
        assert v.values.shape == cell.node_shape
        assert np.all(v.values <= 1.0) and np.all(v.values > 0.5)


class Test3D:
    def test_bulk_affine_exact(self):
        cell = make_cell((0.0, 0.0, 0.0), 4.0, (0.0, 0.0, 1.0), 1, 0.5)
        xi = np.array([[1.0, 0.0, 0.0]])
        res = solve_bulk_cell(cell, euclid(), xi)
        assert res.value / cell.volume == pytest.approx(1.0, abs=1e-3)

    def test_rotated_3d_energy(self):
        nu = np.array([2 / 3, 1 / 3, 2 / 3])
        cell = make_cell((0.0, 0.0, 0.0), 4.0, nu, 1, 0.5)
        u = affine_datum(cell, np.array([[0.3, -0.2, 0.1]]))
        v = PhaseField.ones(cell)
        energy = surface_energy(cell, euclid(), u, v)
        assert energy == pytest.approx(bulk_energy(cell, euclid(), u))
        assert energy > 0

    def test_layered_3d_bulk_between_bounds(self):
        cell = make_cell((0.0, 0.0, 0.0), 4.0, (0.0, 0.0, 1.0), 1, 0.5)
        g = laminate(1.0, 2.0)
        res = solve_bulk_cell(cell, g, np.array([[1.0, 0.0, 0.0]]))
        scaled = res.value / cell.volume
        assert 1.0 - 1e-9 <= scaled <= 2.0 + 1e-9
