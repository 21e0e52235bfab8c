"""Energy densities with linear growth and their declared recession slopes.

A density f(x, xi) maps a spatial point x in R^n and a gradient matrix
xi in R^{N x n} to a nonnegative value, and is admissible for constants
(C, alpha) when

    C^-1 |xi| <= f(x, xi) <= C (|xi| + 1)

and the scaled values f(x, t*xi)/t approach the recession function
f_inf(x, xi) at rate C/t * (1 + f(x, t*xi)^(1-alpha)).  The recession
function is positively 1-homogeneous and satisfies
C^-1 |xi| <= f_inf(x, xi) <= C |xi|.

Every density factors through the gradient magnitude,
f(x, xi) = coeff(x) * profile(|xi|), the form the cell solvers'
Newton u-step needs, with the first and second derivatives of the
profile declared next to it.  Its recession function is then
coeff(x) * k * |xi|, where the author declares the slope
k = lim_{s->inf} profile(s)/s;
``validate_admissibility`` checks the declared slope against the
scaled values f(x, t*xi)/t.

Random stationary densities are realised as ``RandomIntegrandModel``:
a unit-lattice coefficient field drawn from a splittable 64-bit hash of
(master_seed, cell), so that lattice shifts act exactly on the model and
two models with the same seed are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

__all__ = [
    "Integrand",
    "RandomIntegrandModel",
    "ValidationReport",
    "InputDomainError",
    "validate_admissibility",
    "make_checkerboard",
    "shift",
    "euclid",
    "area",
    "laminate",
    "resolve",
]

class InputDomainError(ValueError):
    """Raised when an evaluation argument is outside the admissible domain."""


def _frob(xis):
    """Frobenius norms of a batch of (N, n) matrices, shape (M,)."""
    return np.sqrt(np.sum(np.asarray(xis, dtype=float) ** 2, axis=(-2, -1)))


def _linear(k):
    """The profile k * s with its two derivatives, as ``Integrand`` keywords."""
    return dict(
        profile=lambda s: k * np.asarray(s, dtype=float),
        profile_deriv=lambda s: np.full_like(np.asarray(s, dtype=float), k),
        profile_deriv2=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
    )


@dataclass(frozen=True)
class Integrand:
    """An energy density coeff(x) * profile(|xi|) with declared growth constants.

    Parameters
    ----------
    id : str
        Catalog identifier, e.g. ``"euclid"`` or ``"laminate:1,2"``.
    C : float
        Growth constant, C >= 1.
    alpha : float
        Recession-rate exponent in (0, 1).
    profile : callable
        Radial part; maps magnitudes (M,) to values (M,).
    profile_deriv : callable
        Derivative of ``profile`` on (0, inf), which gives the u-step's
        gradient.
    profile_deriv2 : callable
        Second derivative of ``profile`` on (0, inf), which enters the
        u-step's Hessian.
    recession_slope : float
        lim_{s->inf} profile(s)/s; the recession is then
        coeff(x) * recession_slope * |xi|.
    coeff : callable or None
        Spatial factor; maps points of shape (M, n) to values (M,).
        ``None`` means coeff == 1.
    """

    id: str
    C: float
    alpha: float
    profile: Callable
    profile_deriv: Callable
    profile_deriv2: Callable
    recession_slope: float
    coeff: Optional[Callable] = None

    def __post_init__(self):
        # C > 0 is structural; whether the declared C actually bounds the
        # density is the validator's job, so misdeclared constants can be
        # constructed and then failed by validate_admissibility.
        if not (self.C > 0.0):
            raise InputDomainError(f"growth constant C must be positive, got {self.C}")
        if not (0.0 < self.alpha < 1.0):
            raise InputDomainError(f"alpha must lie in (0,1), got {self.alpha}")

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def coeff_cells(self, points):
        if self.coeff is None:
            return np.ones(points.shape[0])
        return np.asarray(self.coeff(points), dtype=float)

    def eval_cells(self, points, xis):
        """Batch evaluation; points (M, n), xis (M, N, n) -> (M,); rejects non-finite input."""
        points, norms = np.asarray(points, dtype=float), _frob(xis)
        if not (np.all(np.isfinite(points)) and np.all(np.isfinite(norms))):
            raise InputDomainError("non-finite input to density evaluation")
        return self.coeff_cells(points) * np.asarray(self.profile(norms), dtype=float)

    # ------------------------------------------------------------------
    # derived integrands
    # ------------------------------------------------------------------

    def recession_integrand(self):
        """The recession density as a standalone 1-homogeneous integrand."""
        return replace(self, id=f"recession({self.id})", **_linear(self.recession_slope))


# ----------------------------------------------------------------------
# module-level operations
# ----------------------------------------------------------------------


# rounding slack of the admissibility margins
ADMISSIBILITY_SLACK = 1e-10


@dataclass
class ValidationReport:
    """Worst-case violation margins over a random sample; <= 0 passes."""

    integrand_id: str
    growth_margin: float
    recession_rate_margins: dict
    recession_bounds_margin: float
    num_samples: int
    passed: bool


def validate_admissibility(g: Integrand) -> ValidationReport:
    """Check the declared (C, alpha) bounds on a fixed random sample.

    The sample, drawn from seed 0, pairs 16 points of [-4, 4]^2 with 20
    scalar 2D gradients (16 uniform on [-4, 4]^2, 4 standard normal); the
    recession rate is read at t = 10, 100 and 1000.  Violation margins
    <= 0 (within ``ADMISSIBILITY_SLACK``) pass; violations are reported,
    never raised.
    """
    rng = np.random.default_rng(0)
    xs = rng.uniform(-4.0, 4.0, size=(16, 2))
    xis = rng.uniform(-4.0, 4.0, size=(16, 1, 2))
    xis = np.concatenate([xis, rng.normal(size=(4, 1, 2))], axis=0)

    C = g.C
    rate_margins = {}

    pts = np.repeat(xs, len(xis), axis=0)
    mats = np.tile(xis, (len(xs), 1, 1))
    norms = _frob(mats)
    f = g.eval_cells(pts, mats)
    growth = float(np.max(np.maximum(norms / C - f, f - C * (norms + 1.0))))

    # k * |xi| is 1-homogeneous by construction; the rate margins check
    # the declared slope k against the scaled values f(x, t*xi)/t
    finf = g.recession_integrand().eval_cells(pts, mats)
    rec_bounds = float(np.max(np.maximum(norms / C - finf, finf - C * norms)))

    for t in (10.0, 100.0, 1000.0):
        ft = g.eval_cells(pts, t * mats)
        lhs = np.abs(finf - ft / t)
        rhs = (C / t) * (1.0 + ft ** (1.0 - g.alpha))
        rate_margins[t] = float(np.max(lhs - rhs))

    passed = (
        growth <= ADMISSIBILITY_SLACK
        and all(v <= ADMISSIBILITY_SLACK for v in rate_margins.values())
        and rec_bounds <= ADMISSIBILITY_SLACK
    )
    return ValidationReport(
        integrand_id=g.id,
        growth_margin=growth,
        recession_rate_margins=rate_margins,
        recession_bounds_margin=rec_bounds,
        num_samples=len(pts),
        passed=passed,
    )


# ----------------------------------------------------------------------
# random stationary models
# ----------------------------------------------------------------------

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)


def _splitmix64(x):
    """SplitMix64 finaliser on uint64 arrays; wraps mod 2^64."""
    with np.errstate(over="ignore"):
        x = x + _GOLDEN
        x = (x ^ (x >> _U64(30))) * _MIX1
        x = (x ^ (x >> _U64(27))) * _MIX2
        return x ^ (x >> _U64(31))


def _hash_lattice(master_seed, cells):
    """Hash integer lattice points (M, n) to uniform floats in [0, 1)."""
    cells = np.asarray(cells, dtype=np.int64)
    h = _splitmix64(np.full(cells.shape[0], _U64(master_seed & 0xFFFFFFFFFFFFFFFF)))
    for j in range(cells.shape[1]):
        with np.errstate(over="ignore"):
            h = _splitmix64(h ^ cells[:, j].astype(_U64))
    return (h >> _U64(11)).astype(np.float64) / float(1 << 53)


@dataclass(frozen=True)
class RandomIntegrandModel:
    """Seed-addressed stationary family of densities on the unit lattice.

    The realised density is a(floor(x) + offset) * base(x, xi) with a
    drawn per-cell from a hash of (master_seed, cell); the ``offset``
    implements lattice shifts exactly, without re-hashing.
    """

    master_seed: int
    a_min: float
    a_max: float
    base: Integrand
    offset: tuple = ()

    def __post_init__(self):
        if self.a_min <= 0:
            raise InputDomainError("a_min must be positive")
        if self.a_min > self.a_max:
            raise InputDomainError("need a_min <= a_max")
        if self.base.coeff is not None:
            raise InputDomainError("checkerboard base must be spatially homogeneous")

    def coeff_field(self, points):
        """Coefficients at spatial points (M, n)."""
        points = np.asarray(points, dtype=float)
        cells = np.floor(points).astype(np.int64)
        if self.offset:
            off = np.asarray(self.offset, dtype=np.int64)
            if off.shape[0] != cells.shape[1]:
                raise InputDomainError(
                    f"model shifted in dimension {off.shape[0]}, evaluated in {cells.shape[1]}"
                )
            cells = cells + off[None, :]
        u = _hash_lattice(self.master_seed, cells)
        return self.a_min + (self.a_max - self.a_min) * u

    def realise(self) -> Integrand:
        """The density of this realisation as a plain Integrand."""
        tag = f"checkerboard:{self.master_seed},{self.a_min},{self.a_max},{self.base.id}"
        if self.offset:
            tag += f",offset={tuple(self.offset)}"
        return replace(
            self.base,
            id=tag,
            C=self.base.C * max(self.a_max, 1.0 / self.a_min),
            coeff=self.coeff_field,
        )


def make_checkerboard(seed, a_min, a_max, base: Integrand | None = None) -> RandomIntegrandModel:
    """Random checkerboard model with i.i.d.-style cell coefficients.

    Coefficients are uniform on [a_min, a_max] via splittable hashing of
    (seed, cell); the declared growth constant of the realisation is
    C_base * max(a_max, 1/a_min).
    """
    if base is None:
        base = euclid()
    return RandomIntegrandModel(master_seed=int(seed), a_min=float(a_min), a_max=float(a_max), base=base)


def shift(model: RandomIntegrandModel, z) -> RandomIntegrandModel:
    """Lattice shift: shift(m, z).coeff_field(x) == m.coeff_field(x + z) exactly."""
    z = np.asarray(z)
    if not np.all(z == np.round(z)):
        raise InputDomainError("shift requires an integer lattice point")
    z = z.astype(np.int64).reshape(-1)
    off = np.asarray(model.offset, dtype=np.int64) if model.offset else np.zeros(len(z), np.int64)
    if len(off) != len(z):
        raise InputDomainError("shift dimension does not match earlier shifts")
    return replace(model, offset=tuple(int(v) for v in off + z))


# ----------------------------------------------------------------------
# catalog
# ----------------------------------------------------------------------


def euclid() -> Integrand:
    """f(x, xi) = |xi|; the isotropic 1-homogeneous density."""
    return Integrand(
        id="euclid",
        C=1.0,
        alpha=0.5,
        recession_slope=1.0,
        **_linear(1.0),
    )


def area() -> Integrand:
    """f(x, xi) = sqrt(1 + |xi|^2); smooth, recession |xi|."""
    return Integrand(
        id="area",
        C=1.0,
        alpha=0.5,
        profile=lambda s: np.sqrt(1.0 + np.asarray(s, dtype=float) ** 2),
        profile_deriv=lambda s: np.asarray(s, dtype=float) / np.sqrt(1.0 + np.asarray(s, dtype=float) ** 2),
        profile_deriv2=lambda s: (1.0 + np.asarray(s, dtype=float) ** 2) ** -1.5,
        recession_slope=1.0,
    )


def laminate(a_soft=1.0, a_hard=2.0, segment=1.0, axis=0) -> Integrand:
    """Piecewise-constant coefficient times |xi|.

    The coefficient equals ``a_soft`` on [0, segment) + 2*segment*Z along
    the chosen axis and ``a_hard`` on the complementary segments.
    """
    if a_soft <= 0 or a_hard <= 0:
        raise InputDomainError("laminate coefficients must be positive")
    period = 2.0 * segment

    def coeff(points):
        t = np.mod(points[:, axis], period)
        return np.where(t < segment, a_soft, a_hard)

    C = max(a_hard, 1.0 / a_soft, 1.0)
    return Integrand(
        id=f"laminate:{a_soft},{a_hard};seg={segment};axis={axis}",
        C=C,
        alpha=0.5,
        coeff=coeff,
        recession_slope=1.0,
        **_linear(1.0),
    )


def resolve(spec: str):
    """Resolve a catalog id string to an Integrand or RandomIntegrandModel.

    Grammar: ``euclid`` | ``area`` | ``laminate:a1,a2[;seg=S][;axis=I]``
    | ``checkerboard:seed,a_min,a_max[,base_id]``.
    """
    spec = spec.strip()
    if spec == "euclid":
        return euclid()
    if spec == "area":
        return area()
    if spec.startswith("laminate:"):
        body = spec[len("laminate:") :]
        parts = body.split(";")
        a1, a2 = (float(v) for v in parts[0].split(","))
        kwargs = {}
        for p in parts[1:]:
            key, val = p.split("=")
            if key == "seg":
                kwargs["segment"] = float(val)
            elif key == "axis":
                kwargs["axis"] = int(val)
            else:
                raise InputDomainError(f"unknown laminate option {key!r}")
        return laminate(a1, a2, **kwargs)
    if spec.startswith("checkerboard:"):
        body = spec[len("checkerboard:") :]
        parts = [p.strip() for p in body.split(",")]
        if len(parts) < 3:
            raise InputDomainError("checkerboard needs seed,a_min,a_max[,base]")
        seed, a_min, a_max = int(parts[0]), float(parts[1]), float(parts[2])
        base = resolve(parts[3]) if len(parts) > 3 else euclid()
        if isinstance(base, RandomIntegrandModel):
            raise InputDomainError("checkerboard base must be a plain integrand")
        return make_checkerboard(seed, a_min, a_max, base)
    raise InputDomainError(f"unknown integrand id {spec!r}")
