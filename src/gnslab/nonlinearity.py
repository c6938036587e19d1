"""Power-law nonlinearity and the convective term, with dealiasing.

The velocity enters the convection through J_m(u) = |u|^(m-1) u, the
Euclidean-magnitude power law acting pointwise on vectors.  Products are
evaluated on a refined physical grid and truncated back to the coarse
lattice.  For m = 1, J_1 is the identity and the convection is bilinear,
so the grid is the 3/2-rule size, which removes aliasing exactly.  For
non-integer m, J_m is not a polynomial, and the grid is dealias_factor
(2 to 4) times finer, which bounds the aliasing.

Every dealiased product of the package is formed here: the convection
of one field (convective_term), of sampled step trajectories
(step_convection), and the scalar product (dealiased_product).  Both
convections share one advective loop, _advect, which streams the
product through the fine grid: besides the advecting field it holds one
refined partial and one accumulator, both scalar, and truncates each
component as soon as it is formed.

The solver's convection is solenoidal_convection.  For m = 1 it is
divergence_convection, the divergence form div(u (x) u) on the 3/2-rule
grid: n refinements and n(n+1)/2 products, where the advective form
needs n + n^2 refinements.  It equals (u . grad) u only for solenoidal
u, which every Picard iterate is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError
from .spectral_core import (
    Grid,
    SpectralField,
    _check_same_grid,
    _check_real,
    _mix,
    field_from_fine_physical,
    gradient,
    quadratic_size,
    refine_physical,
    truncate_fine_physical,
)

POINTWISE_TOL = 1e-12


@dataclass(frozen=True)
class PowerLaw:
    """Exponent m > 0 and the dealiasing refinement factor for m != 1."""

    m: float
    dealias_factor: int = 2

    def __post_init__(self):
        if not self.m > 0.0 or not math.isfinite(self.m):
            raise ParameterError(f"m must be positive and finite, got {self.m}")
        factor = self.dealias_factor
        # True == 1 is not in the tuple, so booleans are rejected as well
        if not isinstance(factor, int) or factor not in (2, 3, 4):
            raise ParameterError(f"dealias_factor must be the integer 2, 3 or 4, got {factor!r}")

    def fine_points(self, N: int) -> int:
        """Points per axis of the grid the products are formed on: the 3/2-rule
        size for m = 1, where J_1 is the identity and u.grad v is bilinear,
        and dealias_factor N otherwise."""
        return quadratic_size(N) if self.m == 1.0 else self.dealias_factor * N


def power_values(values: np.ndarray, m: float) -> np.ndarray:
    """|u|^(m-1) u applied pointwise; component axis first; 0 maps to 0.

    For m != 1 the values are scaled in place and returned, so pass an
    array the caller no longer needs; the squares are summed one
    component at a time, in np.sum's order.  For m = 1 a copy is returned.
    """
    values = np.asarray(values, dtype=float)
    if m == 1.0:
        return values.copy()
    mag = np.square(values[0])
    for comp in values[1:]:
        mag += np.square(comp)
    np.sqrt(mag, out=mag)
    if m > 1.0:  # 0^(m-1) = 0, so zero needs no guard
        if m != 2.0:
            np.power(mag, m - 1.0, out=mag)
        values *= mag
        return values
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(mag > 0.0, mag ** (m - 1.0), 0.0)
    values *= factor
    return values


def _require_real(u: SpectralField) -> None:
    _check_real(u.hermitian_defect(), u.coeffs, "field")


def apply_power(u: SpectralField, power: PowerLaw) -> SpectralField:
    """J_m(u) evaluated on the refined grid and truncated back."""
    _require_real(u)
    if power.m == 1.0:
        return u.copy()
    M = power.fine_points(u.grid.N)
    return field_from_fine_physical(u.grid, power_values(refine_physical(u, M), power.m), M)


def _advect(grid: Grid, adv: np.ndarray, partial, ncomp: int, M: int) -> SpectralField:
    """Component i is sum_k adv_k d_k v_i, formed on the fine grid of M
    points per axis and truncated as soon as it is formed.

    adv is the (n, fine) advecting field and partial(i, k) returns the
    refined d_k v_i as a fresh fine scalar, which the loop scales in
    place.  Each partial is dropped before the next is refined, so one
    partial and one accumulator are the only fine scalars the loop
    holds; the sum runs in np.sum's order.
    """
    out = np.empty((ncomp,) + grid.half_shape, dtype=np.complex128)
    for i in range(ncomp):
        acc = partial(i, 0)
        acc *= adv[0]
        for k in range(1, grid.n):
            d = partial(i, k)
            d *= adv[k]
            acc += d
            del d
        out[i] = field_from_fine_physical(grid, acc, M).coeffs[0]
        del acc
    return SpectralField(grid, out)


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
    M = power.fine_points(grid.N)
    advect = power_values(refine_physical(u, M), power.m)  # (n, fine)

    def partial(i, k):
        d_k = SpectralField(grid, v.coeffs[i : i + 1] * (1j * grid.k_derivative(k)))
        return refine_physical(d_k, M)[0]

    return _advect(grid, advect, partial, v.ncomp, M)


def step_convection(grid: Grid, power: PowerLaw, u, v, u2=None):
    """Per-node mean-free coefficients of J_m(u) . grad v, or with u2 of
    (J_m(u) - J_m(u2)) . grad v, for step trajectories given as (weights, basis).

    Every basis field is checked to be real and refined once: u's fields,
    and the n partials of each component of v's.  Node j's advecting field
    is J_m of the weighted sum of u's refined fields, taken pointwise, and
    the product is formed as convective_term forms it.
    """
    M = power.fine_points(grid.N)

    def refined(basis):
        for coeffs in basis:
            _require_real(SpectralField(grid, coeffs))
        return np.stack([refine_physical(SpectralField(grid, coeffs), M) for coeffs in basis])

    u_weights, u_fields = u[0], refined(u[1])  # (R, n, fine)
    if u2 is not None:
        u2_weights, u2_fields = u2[0], refined(u2[1])
    v_weights, v_basis = v
    grads = np.empty((v_basis.shape[1], len(v_basis), grid.n) + (M,) * grid.n)  # (c, R, n, fine)
    for r, coeffs in enumerate(v_basis):
        _require_real(SpectralField(grid, coeffs))
        for i, ci in enumerate(coeffs):
            grads[i, r] = refine_physical(gradient(SpectralField(grid, ci[None])), M)
    for j, w in enumerate(v_weights):
        adv = power_values(_mix(u_weights[j], u_fields), power.m)
        if u2 is not None:
            adv -= power_values(_mix(u2_weights[j], u2_fields), power.m)
        # node j's partials of v_i, mixed from the refined basis partials
        term = _advect(grid, adv, lambda i, k: _mix(w, grads[i, :, k]), len(grads), M)
        yield term.with_zero_mean().coeffs


def divergence_convection(u: SpectralField) -> SpectralField:
    """The m = 1 convection of a solenoidal u, in divergence form: component
    i is sum_j d_j (u_i u_j).

    u must be divergence-free: the result differs from
    convective_term(u, u, PowerLaw(1.0)) by u div u.  u is refined once
    on the 3/2-rule grid, and the n(n+1)/2 products u_i u_j are truncated
    in one pruned transform, so the result is exactly dealiased.
    """
    if not u.is_vector:
        raise ShapeError("convecting field u must have n components")
    _require_real(u)
    grid = u.grid
    n = grid.n
    M = quadratic_size(grid.N)
    fine = refine_physical(u, M)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    products = np.empty((len(pairs),) + (M,) * n)
    for p, (i, j) in enumerate(pairs):
        np.multiply(fine[i], fine[j], out=products[p])
    spectra = truncate_fine_physical(grid, products, M)
    derivs = [1j * grid.k_derivative(axis) for axis in range(n)]
    out = np.zeros((n,) + grid.half_shape, dtype=np.complex128)
    for p, (i, j) in enumerate(pairs):
        out[i] += derivs[j] * spectra[p]
        if i != j:
            out[j] += derivs[i] * spectra[p]
    return SpectralField(grid, out)


def solenoidal_convection(u: SpectralField, power: PowerLaw) -> SpectralField:
    """J_m(u) . grad u of a divergence-free u: for m = 1 in divergence form."""
    if power.m == 1.0:
        return divergence_convection(u)
    return convective_term(u, u, power)


def dealiased_product(f: SpectralField, g: SpectralField) -> SpectralField:
    """Pointwise product of two scalar fields, dealiased on the 3/2-rule grid."""
    M = quadratic_size(f.grid.N)
    return field_from_fine_physical(f.grid, refine_physical(f, M) * refine_physical(g, M), M)


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
