"""Power-law nonlinearity and the convective term, with dealiasing.

The velocity enters the convection through J_m(u) = |u|^(m-1) u, the
Euclidean-magnitude power law acting pointwise on vectors.  For
non-integer m this is not a polynomial, so products are evaluated on a
refined physical grid (factor 2 to 4) and truncated back to the coarse
lattice; the refinement removes aliasing exactly for quadratic products
and bounds it otherwise.  m = 1 short-circuits to the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError
from .spectral_core import (
    SpectralField,
    _check_same_grid,
    field_from_fine_physical,
    refine_physical,
)

POINTWISE_TOL = 1e-12


@dataclass(frozen=True)
class PowerLaw:
    """Exponent m > 0 and the dealiasing refinement factor."""

    m: float
    dealias_factor: int = 2

    def __post_init__(self):
        if not self.m > 0.0 or not math.isfinite(self.m):
            raise ParameterError(f"m must be positive and finite, got {self.m}")
        if self.dealias_factor not in (2, 3, 4):
            raise ParameterError(
                f"dealias_factor must be 2, 3 or 4, got {self.dealias_factor}"
            )


def power_values(values: np.ndarray, m: float) -> np.ndarray:
    """|u|^(m-1) u applied pointwise; component axis first; 0 maps to 0."""
    values = np.asarray(values, dtype=float)
    if m == 1.0:
        return values.copy()
    mag = np.sqrt(np.sum(values**2, axis=0))
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(mag > 0.0, mag ** (m - 1.0), 0.0)
    return factor[None] * values


def _require_real(u: SpectralField) -> None:
    # the scale is >= 1, so a defect below 1e-10 passes without it
    defect = u.hermitian_defect()
    if defect > 1e-10 and defect > 1e-10 * (1.0 + float(np.max(np.abs(u.coeffs)))):
        raise ParameterError("field is not real-valued in physical space")


def apply_power(u: SpectralField, power: PowerLaw) -> SpectralField:
    """J_m(u) evaluated on the refined grid and truncated back."""
    _require_real(u)
    if power.m == 1.0:
        return u.copy()
    fine = refine_physical(u, power.dealias_factor)
    return field_from_fine_physical(u.grid, power_values(fine, power.m), power.dealias_factor)


def convective_term(u: SpectralField, v: SpectralField, power: PowerLaw) -> SpectralField:
    """Convection of v by J_m(u): component i is sum_j (J_m u)_j d_j v_i.

    All products are formed on the refined grid, then truncated.  Neither
    field needs to be divergence-free.
    """
    _check_same_grid(u, v)
    if not u.is_vector:
        raise ShapeError("convecting field u must have n components")
    _require_real(u)
    if v is not u:
        _require_real(v)
    grid = u.grid
    factor = power.dealias_factor
    advect = power_values(refine_physical(u, factor), power.m)  # (n, fine)
    derivs = [1j * grid.k_derivative(axis) for axis in range(grid.n)]
    out = np.empty((v.ncomp,) + (factor * grid.N,) * grid.n)
    for i in range(v.ncomp):
        partials = np.stack([v.coeffs[i] * d for d in derivs])
        grad_fine = refine_physical(SpectralField(grid, partials), factor)
        out[i] = np.sum(advect * grad_fine, axis=0)
    return field_from_fine_physical(grid, out, factor)


def pointwise_difference_bound(a, b, m) -> tuple:
    """Pointwise increment bound for J_m.

    Returns (lhs, rhs, ok) where lhs = |J_m(a) - J_m(b)|, and
    rhs = m (|a|^(m-1) + |b|^(m-1)) |a - b|  for m > 1,
    rhs = 6 |a - b|^m                        for 0 < m <= 1.
    Inputs are arrays of vectors with the last axis the vector components;
    scalars are treated as 1-vectors.  m is a number or an array with one
    exponent per vector.  ok allows a 1e-12 slack.
    """
    if not np.all(np.asarray(m) > 0.0):
        raise ParameterError(f"m must be positive, got {m}")
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape != b.shape:
        raise ShapeError(f"shapes differ: {a.shape} vs {b.shape}")
    mag_a = np.sqrt(np.sum(a**2, axis=-1))
    mag_b = np.sqrt(np.sum(b**2, axis=-1))
    # both branches are evaluated; the one not selected may divide by zero
    with np.errstate(divide="ignore", invalid="ignore"):
        ja = np.where(mag_a > 0.0, mag_a ** (m - 1.0), 0.0)[..., None] * a
        jb = np.where(mag_b > 0.0, mag_b ** (m - 1.0), 0.0)[..., None] * b
        lhs = np.sqrt(np.sum((ja - jb) ** 2, axis=-1))
        diff = np.sqrt(np.sum((a - b) ** 2, axis=-1))
        rhs = np.where(
            m > 1.0,
            m * (mag_a ** (m - 1.0) + mag_b ** (m - 1.0)) * diff,
            6.0 * diff**m,
        )
    ok = lhs <= rhs + POINTWISE_TOL
    if lhs.ndim == 0:
        return float(lhs), float(rhs), bool(ok)
    return lhs, rhs, ok
