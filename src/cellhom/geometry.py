"""Rotated cubes and boxes realised as axis-aligned grids in a local frame.

A cell domain is a box [lo, lo + dims*h) in local coordinates z together
with an orthogonal matrix R and a translation c; physical points are
y = R z + c.  The last local axis is distinguished: it is mapped onto the
prescribed unit normal nu (R e_n = nu), so jump data and interface seeds
depend on z_n alone.

The rotation is a Householder reflection composed with a fixed sign
convention: identity when nu = e_n, and for normals on the lower
hemisphere (negative last nonzero component) the rotation of -nu composed
with a flip of the last axis, which makes the rotated unit cube the same
point set for nu and -nu.  Householder matrices of rational normals are
rational, which the interval process in :mod:`cellhom.homogenise` relies
on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp

from .integrand import InputDomainError

__all__ = [
    "Rotation",
    "CellDomain",
    "ResolutionError",
    "rotation_for_normal",
    "make_cell",
    "make_box_cell",
]

ORTHO_TOL = 1e-12


class ResolutionError(ValueError):
    """Raised when the requested spacing cannot resolve the domain."""


@dataclass(frozen=True, eq=False)
class Rotation:
    """Orthogonal matrix R with R e_n = nu."""

    nu: np.ndarray
    matrix: np.ndarray

    def __post_init__(self):
        R = self.matrix
        n = R.shape[0]
        if np.max(np.abs(R.T @ R - np.eye(n))) > ORTHO_TOL:
            raise InputDomainError("rotation matrix is not orthogonal")
        if np.linalg.norm(R[:, -1] - self.nu) > 1e-10:
            raise InputDomainError("rotation does not map e_n to nu")


def _last_nonzero_sign(nu, tol=1e-12):
    for i in range(len(nu) - 1, -1, -1):
        if abs(nu[i]) > tol:
            return 1.0 if nu[i] > 0 else -1.0
    raise InputDomainError("normal vector is numerically zero")


def _householder_to_last_axis(nu):
    n = len(nu)
    e_n = np.zeros(n)
    e_n[-1] = 1.0
    if np.linalg.norm(nu - e_n) < 1e-14:
        return np.eye(n)
    w = e_n - nu
    return np.eye(n) - 2.0 * np.outer(w, w) / (w @ w)


def rotation_for_normal(nu) -> Rotation:
    """Deterministic orthogonal R with R e_n = nu.

    Identity for nu = e_n; for normals with negative last nonzero
    component, R(-nu) composed with the last-axis flip, so that
    R(nu) Q_1 and R(-nu) Q_1 coincide as point sets.
    """
    nu = np.asarray(nu, dtype=float).reshape(-1)
    if not abs(np.linalg.norm(nu) - 1.0) <= 1e-10:  # a NaN norm fails it too
        raise InputDomainError(f"normal must be a unit vector, |nu| = {np.linalg.norm(nu):.3g}")
    if _last_nonzero_sign(nu) > 0:
        R = _householder_to_last_axis(nu)
    else:
        R = _householder_to_last_axis(-nu)
        flip = np.eye(len(nu))
        flip[-1, -1] = -1.0
        R = R @ flip
    R = np.asarray(R)
    R.setflags(write=False)
    nu = nu.copy()
    nu.setflags(write=False)
    return Rotation(nu=nu, matrix=R)


@dataclass(frozen=True, eq=False)
class CellDomain:
    """Axis-aligned grid on a local box, mapped by z -> R z + center.

    ``lo`` is the local lower corner, ``dims`` the number of grid cells
    per axis, ``h`` the uniform spacing; the realised side along axis i
    is dims[i] * h.
    """

    center: np.ndarray
    rotation: Rotation
    h: float
    lo: np.ndarray
    dims: tuple

    @property
    def n(self):
        return len(self.dims)

    @property
    def node_shape(self):
        return tuple(d + 1 for d in self.dims)

    @cached_property
    def num_nodes(self):
        return int(np.prod(self.node_shape))

    @cached_property
    def num_cells(self):
        return int(np.prod(self.dims))

    @property
    def realised_sides(self):
        return np.asarray(self.dims, dtype=float) * self.h

    @property
    def volume(self):
        return float(np.prod(self.realised_sides))

    @property
    def cross_section(self):
        """Measure of the box section orthogonal to the last local axis."""
        return float(np.prod(self.realised_sides[:-1])) if self.n > 1 else 1.0

    def frame_map(self, z):
        """Physical coordinates of local points (..., n)."""
        z = np.asarray(z, dtype=float)
        return z @ self.rotation.matrix.T + self.center

    @cached_property
    def node_axes(self):
        return tuple(self.lo[i] + self.h * np.arange(self.dims[i] + 1) for i in range(self.n))

    @cached_property
    def local_nodes(self):
        grids = np.meshgrid(*self.node_axes, indexing="ij")
        return np.stack(grids, axis=-1)

    @cached_property
    def global_nodes(self):
        out = self.frame_map(self.local_nodes)
        out.setflags(write=False)
        return out

    @cached_property
    def cell_centers_local(self):
        """Flattened cell centres in the local frame, shape (num_cells, n)."""
        axes = tuple(self.lo[i] + self.h * (np.arange(self.dims[i]) + 0.5) for i in range(self.n))
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack(grids, axis=-1).reshape(-1, self.n)

    @cached_property
    def cell_centers_global(self):
        out = self.frame_map(self.cell_centers_local)
        out.setflags(write=False)
        return out

    @cached_property
    def boundary_mask(self):
        mask = np.zeros(self.node_shape, dtype=bool)
        for axis in range(self.n):
            sl = [slice(None)] * self.n
            sl[axis] = 0
            mask[tuple(sl)] = True
            sl[axis] = -1
            mask[tuple(sl)] = True
        mask.setflags(write=False)
        return mask

    @cached_property
    def node_index(self):
        idx = np.arange(self.num_nodes).reshape(self.node_shape)
        idx.setflags(write=False)
        return idx

    @cached_property
    def cell_corner_nodes(self):
        """Flat node ids of the 2^n corners of every cell, one array per corner.

        Corner ``bits`` is one node forward along every axis a whose bit
        is set: corner 0 is the cell's base node and corner ``1 << a``
        its forward neighbour along axis a.
        """
        sets = []
        for bits in range(2**self.n):
            sl = tuple(slice(1, None) if bits >> a & 1 else slice(0, -1) for a in range(self.n))
            ids = self.node_index[sl].reshape(-1)
            ids.setflags(write=False)
            sets.append(ids)
        return tuple(sets)

    @cached_property
    def free_operator(self):
        """Free-node layout of the Dirichlet problems on this grid.

        The layout depends on ``dims`` alone, so cells of equal dims share
        one operator (an ensemble of cells holds one, not one per cell).
        """
        return _free_operator(self.dims)


@lru_cache(maxsize=8)
def _free_operator(dims):
    # built on an unrotated grid of the same dims; the bound keeps the
    # layouts of an r-schedule and drops older ones
    n = len(dims)
    grid = CellDomain(
        center=np.zeros(n), rotation=rotation_for_normal(np.eye(n)[-1]), h=1.0, lo=np.zeros(n), dims=dims
    )
    return FreeNodeOperator(grid)


class FreeNodeOperator:
    """Free-node layout shared by the u-step and the v-step on one grid.

    Both steps minimise quadratic forms in the free nodal values x built
    from per-cell weights.  The element template of an axis pair (a, b)
    is (e_{q_a(c)} - e_{p(c)})(e_{q_b(c)} - e_{p(c)})^T, with p(c) the
    base corner of cell c and q_a(c) its forward neighbour along axis a.
    Two terms are built from them: the ``hessian``, which scales the
    template of (a, b) by its own weight row a*n + b (weights on the
    (a, a) rows alone give the Laplacian stencil
    sum_c w_c sum_a (x_{q_a(c)} - x_{p(c)})^2), and the corner ``mass``,
    sum_c m_c (sum of the 2^n corner values of c)^2.  Boundary nodes are
    fixed and both steps solve for free-node values only, so only the
    free-free block is built.  ``laplacian`` is the ``hessian`` band under
    weight 1 on every (a, a) row, assembled once, for the v-step to scale.

    Free nodes are numbered in the grid's C order, so the free-free block
    is a band whose half-width ``bw`` is the offset of a cell's diagonal
    corner pair, sum_a prod_{b > a} (dims[b] - 1): 1 in 1D, dims[-1] in
    2D.  Its storage is the LAPACK upper band of shape (bw + 1, nfree),
    flattened in column-major order, which LAPACK factorises in place;
    ``diag`` lists the diagonal's slots.  Each term is one
    ``scipy.sparse`` CSC matrix in ``scatter``, mapping the cell weights,
    flattened cell-major (column cell * rows + weight row), to the band
    slots; :meth:`assemble` is its product with the weights, which sums
    each slot over its cells in ascending order and, within a cell, its
    weight rows in ascending order.  An operator is shared by every cell
    of its dims, so nothing in it may be written to.
    """

    def __init__(self, cell: CellDomain):
        bflat = cell.boundary_mask.reshape(-1)
        self.free = np.flatnonzero(~bflat)
        nfree = self.nfree = self.free.size
        pos = np.full(cell.num_nodes, -1)
        pos[self.free] = np.arange(nfree)

        n, corners = cell.n, cell.cell_corner_nodes
        pbase = corners[0]

        def template(a, b, row):
            qa, qb = corners[1 << a], corners[1 << b]
            return [(qa, qb, 1.0, row), (qa, pbase, -1.0, row), (pbase, qb, -1.0, row), (pbase, pbase, 1.0, row)]

        # each term: row and column nodes of shape (pairs, cells), one sign
        # and one weight row per pair
        terms = {
            t: tuple(np.array(x) for x in zip(*entries))
            for t, entries in (
                ("hessian", [e for a in range(n) for b in range(n) for e in template(a, b, a * n + b)]),
                ("mass", [(p, q, 1.0, 0) for p in corners for q in corners]),
            )
        }

        # every template pair is also a corner pair, so the mass term's
        # free-free entries fix the band width
        i, j = pos[terms["mass"][0]], pos[terms["mass"][1]]
        inner = (i >= 0) & (j >= 0)
        self.bw = int(np.max(np.abs(i[inner] - j[inner]), initial=0))
        self.nslots = (self.bw + 1) * nfree
        self.diag = np.arange(nfree) * (self.bw + 1) + self.bw

        self.scatter = {}
        for t, (p, q, sign, row) in terms.items():
            # one column per (cell, weight row), cell-major; canonical CSC
            # sums duplicates and sorts each column, so a product sums every
            # slot over ascending cells, then ascending weight rows
            i, j = pos[p], pos[q]
            pair, c = np.nonzero((i >= 0) & (j >= 0) & (i <= j))
            i, j, rows = i[pair, c], j[pair, c], row.max() + 1
            entries = (sign[pair], (j * (self.bw + 1) + self.bw + i - j, c * rows + row[pair]))
            self.scatter[t] = sp.csc_matrix(entries, shape=(self.nslots, rows * cell.num_cells))
        self.laplacian = self.assemble("hessian", np.eye(n).reshape(-1, 1).repeat(cell.num_cells, axis=1))
        frozen = [self.free, self.diag, self.laplacian]
        for m in self.scatter.values():
            frozen += [m.data, m.indices, m.indptr]
        for arr in frozen:
            arr.setflags(write=False)

    def assemble(self, term, weights):
        """Band storage of a term's free-free block under cell weights.

        ``weights`` is (cells,) for ``mass`` and (n*n, cells) for
        ``hessian``, one row per axis pair (a, b).
        """
        return self.scatter[term] @ np.atleast_2d(weights).T.ravel()


def make_cell(center, side, nu, k=1, h=0.25) -> CellDomain:
    """Centred rotated cell with local extents (k*side, ..., k*side, side).

    Extents snap to the nearest whole number of cells at spacing h; the
    realised sides are recorded on the domain.  Requires h <= side/4 so
    every axis carries at least four cells.
    """
    h = _spacing(h)
    if side <= 0:
        raise InputDomainError("side must be positive")
    if k < 1 or int(k) != k:
        raise InputDomainError("elongation k must be a positive integer")
    if h > side / 4 + 1e-12:
        raise ResolutionError(f"spacing h={h} too coarse for side {side}; need h <= side/4")
    rot = rotation_for_normal(nu)
    extents = np.full(len(rot.nu), float(k) * side)
    extents[-1] = float(side)
    dims = np.array([max(4, int(round(e / h))) for e in extents], dtype=float)
    return _box_cell(rot, -0.5 * dims * h, 0.5 * dims * h, h, center)


def make_box_cell(nu, lo, hi, h, center=None) -> CellDomain:
    """Grid on the rotated box R([lo, hi)) + center; extents snap to h."""
    return _box_cell(rotation_for_normal(nu), lo, hi, _spacing(h), center)


def _spacing(h):
    h = float(h)
    if not (np.isfinite(h) and h > 0):
        raise InputDomainError(f"spacing h must be finite and positive, got {h!r}")
    return h


def _box_cell(rot, lo, hi, h, center):
    # both public builders end here rather than one calling the other, so
    # a wrapper of either name (cellbench/tracing.py) sees each cell once
    lo = np.asarray(lo, dtype=float).reshape(-1)
    hi = np.asarray(hi, dtype=float).reshape(-1)
    n = len(rot.nu)
    if lo.shape[0] != n or hi.shape[0] != n:
        raise InputDomainError("box corners must match the normal dimension")
    if np.any(hi <= lo):
        raise InputDomainError("box must have positive extents")
    dims = tuple(max(2, int(round((hi[i] - lo[i]) / h))) for i in range(n))
    center = np.zeros(n) if center is None else np.asarray(center, dtype=float).reshape(-1).copy()
    if center.shape[0] != n:
        raise InputDomainError("center dimension does not match normal")
    lo = lo.copy()
    lo.setflags(write=False)
    center.setflags(write=False)
    return CellDomain(center=center, rotation=rot, h=float(h), lo=lo, dims=dims)
