"""Discrete fields on a cell domain and the two grid energies.

Deformation fields store one R^N value per node, phase fields one scalar
per node clamped to [0, 1].  Energies use one-point quadrature per grid
cell: gradients are first-order forward differences anchored at the cell
base corner, the phase value is the average of the 2^n corner nodes, and
all sums run over cells with numpy's pairwise reduction so repeated
evaluation is bit-stable.

Two energies are provided, each returned as its total:

* ``bulk_energy``        sum_c  h^n f(y_c, Du_c)
* ``surface_energy``     sum_c  h^n ( vbar_c^2 f(y_c, Du_c) + (1 - vbar_c)^2 + |Dv_c|^2 )

with the spatial argument evaluated at physical cell centres; the
interface solver calls ``surface_energy`` with the recession f_inf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CellDomain
from .integrand import InputDomainError, Integrand

__all__ = [
    "VectorField",
    "PhaseField",
    "PreconditionError",
    "affine_datum",
    "jump_datum",
    "ramp",
    "cell_gradient",
    "cell_average",
    "bulk_energy",
    "surface_energy",
]


class PreconditionError(ValueError):
    """Raised when an energy is called outside its contract."""


@dataclass(eq=False)
class VectorField:
    """Nodal deformation values, shape node_shape + (N,)."""

    cell: CellDomain
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expected = self.cell.node_shape
        if self.values.shape[:-1] != expected:
            raise InputDomainError(
                f"field shape {self.values.shape} does not match node grid {expected}"
            )
        if not np.all(np.isfinite(self.values)):
            raise InputDomainError("vector field contains non-finite values")

    @property
    def N(self):
        return self.values.shape[-1]

    def copy(self):
        return VectorField(self.cell, self.values.copy())


@dataclass(eq=False)
class PhaseField:
    """Nodal phase values in [0, 1], shape node_shape."""

    cell: CellDomain
    values: np.ndarray

    def __post_init__(self):
        self.values = np.clip(np.asarray(self.values, dtype=float), 0.0, 1.0)
        if self.values.shape != self.cell.node_shape:
            raise InputDomainError(
                f"phase shape {self.values.shape} does not match node grid {self.cell.node_shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise InputDomainError("phase field contains non-finite values")

    def copy(self):
        return PhaseField(self.cell, self.values.copy())

    @staticmethod
    def ones(cell):
        return PhaseField(cell, np.ones(cell.node_shape))


def ramp(t):
    """Cubic smoothstep ramp: 0 on (-inf, -1/2], 1 on [1/2, inf)."""
    s = np.clip(np.asarray(t, dtype=float) + 0.5, 0.0, 1.0)
    return 3.0 * s**2 - 2.0 * s**3


def affine_datum(cell: CellDomain, xi) -> VectorField:
    """u(node) = xi . y(node) with y the physical node coordinate."""
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    values = cell.global_nodes @ xi.T
    return VectorField(cell, values)


def jump_datum(cell: CellDomain, zeta, nu, eps_width: float) -> VectorField:
    """Smoothed jump of amplitude zeta across the plane (y - x) . nu = 0.

    u(node) = zeta * ramp((y - x) . nu / eps_width): equal to 0 on the far
    negative side, zeta on the far positive side, zeta/2 on the plane.
    """
    if eps_width <= 0:
        raise InputDomainError("eps_width must be positive")
    zeta = np.asarray(zeta, dtype=float).reshape(-1)
    nu = np.asarray(nu, dtype=float).reshape(-1)
    signed = (cell.global_nodes - cell.center) @ nu
    values = ramp(signed / eps_width)[..., None] * zeta
    return VectorField(cell, values)


def cell_gradient(cell: CellDomain, values) -> np.ndarray:
    """Forward differences per cell.

    For nodal data of shape node_shape (+ trailing axes), returns an
    array of shape dims (+ trailing axes) + (n,), the derivative along
    each local axis anchored at the cell base corner.
    """
    n = cell.n
    base = tuple(slice(0, -1) for _ in range(n))
    out = np.empty(cell.dims + values.shape[n:] + (n,))
    for axis in range(n):
        sl = list(base)
        sl[axis] = slice(1, None)
        out[..., axis] = (values[tuple(sl)] - values[base]) / cell.h
    return out


def cell_average(cell: CellDomain, values) -> np.ndarray:
    """Average of the 2^n corner nodes per cell, shape dims."""
    n = cell.n
    out = np.zeros(cell.dims)
    for bits in range(2**n):
        sl = tuple(slice(1, None) if bits & (1 << a) else slice(0, -1) for a in range(n))
        out += values[sl]
    return out / 2**n


def bulk_energy(cell: CellDomain, g: Integrand, u: VectorField) -> float:
    """Integral of g over the cell at the forward-difference gradient of u."""
    if u.cell is not cell:
        raise PreconditionError("field does not live on the given cell")
    Du = cell_gradient(cell, u.values).reshape(cell.num_cells, u.N, cell.n)
    vals = g.eval_cells(cell.cell_centers_global, Du)
    return float(cell.h**cell.n * np.sum(vals))


def surface_energy(cell: CellDomain, g: Integrand, u: VectorField, v: PhaseField) -> float:
    """The interface energy with the density g it is given.

    The sum of the vbar^2-weighted integral of g, the (1 - vbar)^2
    fidelity and the |Dv|^2 penalty, all at unit coefficients; the
    interface solver passes the recession density.
    """
    if u.cell is not cell or v.cell is not cell:
        raise PreconditionError("fields do not live on the given cell")
    Du = cell_gradient(cell, u.values).reshape(cell.num_cells, u.N, cell.n)
    W = g.eval_cells(cell.cell_centers_global, Du)
    vbar = cell_average(cell, v.values).reshape(-1)
    Dv = cell_gradient(cell, v.values).reshape(cell.num_cells, cell.n)
    hn = cell.h**cell.n
    return float(hn * np.sum(vbar**2 * W) + hn * np.sum((1.0 - vbar) ** 2) + hn * np.sum(Dv**2))
