import itertools

import numpy as np
import pytest

from cellhom.geometry import (
    CellDomain,
    ResolutionError,
    make_box_cell,
    make_cell,
    rotation_for_normal,
)
from cellhom.integrand import InputDomainError

NORMALS_2D = [(0.0, 1.0), (0.0, -1.0), (1.0, 0.0), (-1.0, 0.0), (0.6, 0.8), (-0.6, -0.8)]
NORMALS_3D = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0), (2 / 3, 1 / 3, 2 / 3)]


class TestRotation:
    def test_identity_for_last_axis(self):
        R = rotation_for_normal((0.0, 1.0)).matrix
        np.testing.assert_allclose(R, np.eye(2))

    def test_antipodal_last_axis_is_flip(self):
        R = rotation_for_normal((0.0, -1.0)).matrix
        np.testing.assert_allclose(R, np.diag([1.0, -1.0]))
        np.testing.assert_allclose(R @ [0.0, 1.0], [0.0, -1.0], atol=1e-14)

    @pytest.mark.parametrize("nu", NORMALS_2D + NORMALS_3D)
    def test_defining_identities(self, nu):
        rot = rotation_for_normal(nu)
        R = rot.matrix
        n = len(nu)
        assert np.max(np.abs(R.T @ R - np.eye(n))) <= 1e-12
        e_n = np.zeros(n)
        e_n[-1] = 1.0
        assert np.linalg.norm(R @ e_n - np.asarray(nu)) <= 1e-12

    @pytest.mark.parametrize("nu", [(0.6, 0.8), (1.0, 0.0), (2 / 3, 1 / 3, 2 / 3)])
    def test_antipodal_cube_point_set(self, nu):
        # R(-nu) Q and R(nu) Q must coincide as point sets
        nu = np.asarray(nu)
        n = len(nu)
        Rp = rotation_for_normal(nu).matrix
        Rm = rotation_for_normal(-nu).matrix
        corners = np.array(list(itertools.product([-0.5, 0.5], repeat=n)))
        a = np.round(corners @ Rp.T, 12)
        b = np.round(corners @ Rm.T, 12)
        set_a = {tuple(row) for row in a}
        set_b = {tuple(row) for row in b}
        assert set_a == set_b

    def test_rational_normal_gives_rational_matrix(self):
        R = rotation_for_normal((0.6, 0.8)).matrix
        np.testing.assert_allclose(5 * R, np.round(5 * R), atol=1e-12)

    def test_rejects_non_unit(self):
        with pytest.raises(InputDomainError):
            rotation_for_normal((0.5, 0.5))
        with pytest.raises(InputDomainError):
            rotation_for_normal((0.0, 0.0))


class TestMakeCell:
    def test_unrotated_square(self):
        cell = make_cell(center=(0.0, 0.0), side=8.0, nu=(0.0, 1.0), k=1, h=1.0)
        assert cell.dims == (8, 8)
        assert cell.node_shape == (9, 9)
        np.testing.assert_allclose(cell.realised_sides, [8.0, 8.0])

    def test_elongated_extents(self):
        cell = make_cell(center=(0.0, 0.0), side=4.0, nu=(0.0, 1.0), k=3, h=0.5)
        np.testing.assert_allclose(cell.realised_sides, [12.0, 4.0])
        assert cell.node_shape == (25, 9)

    def test_volume_formula(self):
        cell = make_cell(center=(0.0, 0.0), side=4.0, nu=(0.0, 1.0), k=2, h=0.5)
        assert cell.volume == pytest.approx(2 ** (2 - 1) * 4.0**2)

    def test_resolution_error(self):
        with pytest.raises(ResolutionError):
            make_cell(center=(0.0, 0.0), side=1.0, nu=(0.0, 1.0), k=1, h=0.5)

    @pytest.mark.parametrize("h", [0.0, -0.25, np.nan, np.inf])
    def test_unusable_spacing(self, h):
        with pytest.raises(InputDomainError, match="spacing h must be finite and positive"):
            make_cell(center=(0.0, 0.0), side=4.0, nu=(0.0, 1.0), k=1, h=h)
        with pytest.raises(InputDomainError, match="spacing h must be finite and positive"):
            make_box_cell((0.0, 1.0), (0.0, 0.0), (1.0, 1.0), h)

    def test_rotated_cell_nodes_cover_rotated_box(self):
        cell = make_cell(center=(1.0, -2.0), side=4.0, nu=(0.6, 0.8), k=1, h=0.5)
        nodes = cell.global_nodes.reshape(-1, 2)
        back = (nodes - cell.center) @ cell.rotation.matrix
        assert np.max(np.abs(back)) <= 2.0 + 1e-12

    def test_frame_map_is_isometry(self, rng):
        cell = make_cell(center=(1.0, -2.0), side=4.0, nu=(0.6, 0.8), k=1, h=0.5)
        a, b = rng.normal(size=(2, 2))
        da = cell.frame_map(a) - cell.frame_map(b)
        assert np.linalg.norm(da) == pytest.approx(np.linalg.norm(a - b))
