import numpy as np
import pytest

from cellhom.fields import (
    PhaseField,
    VectorField,
    affine_datum,
    bulk_energy,
    cell_gradient,
    jump_datum,
    ramp,
    surface_energy,
)
from cellhom.geometry import make_box_cell, make_cell
from cellhom.integrand import area, euclid, laminate


@pytest.fixture
def square():
    return make_cell(center=(0.0, 0.0), side=4.0, nu=(0.0, 1.0), k=1, h=0.25)


@pytest.fixture
def line():
    return make_cell(center=(0.0,), side=16.0, nu=(1.0,), k=1, h=0.05)


class TestAffineDatum:
    def test_zero_matrix(self, square):
        u = affine_datum(square, [[0.0, 0.0]])
        assert np.all(u.values == 0.0)

    def test_linear_evaluation(self):
        cell = make_box_cell((0.0, 1.0), lo=(0.0, 0.0), hi=(4.0, 4.0), h=1.0)
        u = affine_datum(cell, [[1.0, 0.0]])
        assert u.values[2, 3, 0] == pytest.approx(2.0)

    def test_forward_differences_recover_gradient(self, square, rng):
        xi = rng.normal(size=(1, 2))
        u = affine_datum(square, xi)
        Du = cell_gradient(square, u.values)
        np.testing.assert_allclose(Du[..., 0, :], np.broadcast_to(xi[0], Du[..., 0, :].shape), atol=1e-12)


class TestJumpDatum:
    def test_far_sides_and_midpoint(self, square):
        u = jump_datum(square, zeta=[2.0], nu=(0.0, 1.0), eps_width=0.1)
        signed = (square.global_nodes - square.center) @ np.array([0.0, 1.0])
        vals = u.values[..., 0]
        assert np.all(vals[signed >= 0.05] == 2.0)
        assert np.all(vals[signed <= -0.05] == 0.0)
        assert vals[np.isclose(signed, 0.0)] == pytest.approx(1.0)

    def test_ramp_endpoints(self):
        assert ramp(-10.0) == 0.0
        assert ramp(10.0) == 1.0
        assert ramp(0.0) == pytest.approx(0.5)

    def test_ramp_peak_slope(self):
        t = np.linspace(-0.5, 0.5, 10001)
        slope = np.max(np.gradient(ramp(t), t))
        assert slope == pytest.approx(1.5, rel=1e-3)


class TestBulkEnergy:
    def test_constant_density_of_affine_field(self, square):
        u = affine_datum(square, [[3.0, 4.0]])
        assert bulk_energy(square, euclid(), u) == pytest.approx(5.0 * 16.0)

    def test_zero_field(self, square):
        u = VectorField(square, np.zeros(square.node_shape + (1,)))
        assert bulk_energy(square, euclid(), u) == 0.0

    def test_laminate_integral_oracle_1d(self):
        # integral of the coefficient over [-1, 1): a=2 on [-1,0), a=1 on [0,1)
        cell = make_box_cell((1.0,), lo=(-1.0,), hi=(1.0,), h=0.25)
        u = affine_datum(cell, [[1.0]])
        assert bulk_energy(cell, laminate(1.0, 2.0), u) == pytest.approx(3.0)

    def test_translation_invariance(self, square, rng):
        vals = rng.normal(size=square.node_shape + (1,))
        u1 = VectorField(square, vals)
        u2 = VectorField(square, vals + 7.3)
        assert bulk_energy(square, area(), u1) == bulk_energy(square, area(), u2)

    def test_midpoint_convexity_on_random_fields(self, square, rng):
        g = area()
        for _ in range(5):
            a = VectorField(square, rng.normal(size=square.node_shape + (1,)))
            b = VectorField(square, rng.normal(size=square.node_shape + (1,)))
            mid = VectorField(square, 0.5 * (a.values + b.values))
            lhs = bulk_energy(square, g, mid)
            rhs = 0.5 * (bulk_energy(square, g, a) + bulk_energy(square, g, b))
            assert lhs <= rhs + 1e-12


class TestSurfaceEnergy:
    def test_v_one_collapse(self, square, rng):
        u = affine_datum(square, rng.normal(size=(1, 2)))
        v = PhaseField.ones(square)
        assert surface_energy(square, euclid(), u, v) == pytest.approx(bulk_energy(square, euclid(), u))

    def test_v_zero_gives_volume(self, square, rng):
        u = affine_datum(square, rng.normal(size=(1, 2)))
        v = PhaseField(square, np.zeros(square.node_shape))
        assert surface_energy(square, euclid(), u, v) == pytest.approx(square.volume)

    def test_optimal_profile_energy_1d(self, line):
        # sharp ramp of height s = 2 across one cell, phase dipped to
        # t0 = 2/(s+2) = 0.5 with exponential recovery: the pair realises
        # the cohesive value 2s/(s+2) = 1 up to discretisation
        s = 2.0
        t0 = 2.0 / (s + 2.0)
        zn = line.local_nodes[..., -1]
        u = VectorField(line, np.where(zn > 1e-12, s, 0.0)[..., None])
        v = PhaseField(line, 1.0 - (1.0 - t0) * np.exp(-np.abs(zn)))
        total = surface_energy(line, euclid(), u, v)
        assert total == pytest.approx(2.0 * s / (s + 2.0), rel=0.05)

    def test_breakdown_total_consistency(self, square, rng):
        u = affine_datum(square, rng.normal(size=(1, 2)))
        v = PhaseField(square, rng.uniform(0.2, 1.0, size=square.node_shape))
        assert surface_energy(square, euclid(), u, v) >= 0.0


class TestFieldTypes:
    def test_phase_clamped(self, square):
        v = PhaseField(square, np.full(square.node_shape, 3.0))
        assert np.all(v.values == 1.0)

    def test_shape_mismatch(self, square):
        with pytest.raises(Exception):
            VectorField(square, np.zeros((3, 3, 1)))
