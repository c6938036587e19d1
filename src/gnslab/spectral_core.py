"""Periodic pseudo-spectral fields and Fourier multiplier operators.

The computational domain is the periodic box [0, L)^n with n in {2, 3}
and N grid points per axis, used as a proxy for the whole space.  A
field is stored by the amplitudes of its Fourier modes: the coefficient
at integer lattice index z is the amplitude of exp(i k0 z.x), where
k0 = 2*pi/L is the fundamental wavenumber.  Fields are real, so
c(-z) = conj(c(z)), and only the half spectrum is stored: last-axis
modes 0..N/2, as rfftn lays them out (binary files keep the full
lattice).  The zero mode is forced to vanish on every field that feeds
the homogeneous norms (constants are quotiented out, matching the
convention that the data live in the space of distributions vanishing
at infinity).

Discrete L^p norms use the quadrature weight (L/N)^n; p = inf is the
grid supremum.  All operators are pure: they return new fields.
"""

from __future__ import annotations

import math
import os
import struct
from functools import cached_property, lru_cache

import numpy as np

from .errors import EvaluationError, ParameterError, RangeError, ShapeError, check_kind

GNSF_MAGIC = b"GNSF"
GNSF_VERSION = 1
SUPPORT_REL_TOL = 1e-13


def _read_only(arrays) -> tuple:
    for array in arrays:
        array.flags.writeable = False
    return tuple(arrays)


class Grid:
    """Uniform periodic grid: n axes, N points per axis, box side L."""

    def __init__(self, n: int, N: int, L: float = 2.0 * math.pi):
        check_kind("n", n, "integer")
        check_kind("N", N, "integer")
        check_kind("L", L, "real")
        if n not in (2, 3):
            raise ParameterError(f"n must be 2 or 3, got {n}")
        if N < 8 or (N & (N - 1)) != 0:
            raise ParameterError(f"N must be a power of two >= 8, got {N}")
        if not (L > 0.0) or not math.isfinite(L):
            raise ParameterError(f"L must be positive and finite, got {L}")
        self.n = int(n)
        self.N = int(N)
        self.L = float(L)

    @property
    def k0(self) -> float:
        """Fundamental wavenumber 2*pi/L."""
        return 2.0 * math.pi / self.L

    @property
    def spacing(self) -> float:
        return self.L / self.N

    @property
    def nyquist(self) -> float:
        return self.k0 * self.N / 2.0

    @property
    def shape(self) -> tuple:
        """The physical grid, N points per axis."""
        return (self.N,) * self.n

    @property
    def half_shape(self) -> tuple:
        """The stored lattice: N modes per axis, N/2 + 1 on the last."""
        return (self.N,) * (self.n - 1) + (self.N // 2 + 1,)

    def _check_axis(self, axis: int) -> None:
        if not 0 <= axis < self.n:
            raise ParameterError(f"axis must be in [0, {self.n}), got {axis}")

    # The per-axis rows and the Leray denominator depend on the grid alone:
    # each is built once, on first use, and is read-only, since every
    # operator on the grid shares it.

    @cached_property
    def _index_rows(self) -> tuple:
        fft_order = np.fft.fftfreq(self.N, d=1.0 / self.N).astype(np.int64)
        return _read_only([fft_order] * (self.n - 1) + [np.arange(self.N // 2 + 1)])

    @cached_property
    def _k_rows(self) -> tuple:
        rows = []
        for axis, index in enumerate(self._index_rows):
            shape = [1] * self.n
            shape[axis] = index.size
            rows.append((self.k0 * index).reshape(shape))
        return _read_only(rows)

    @cached_property
    def _k_derivative_rows(self) -> tuple:
        rows = []
        for axis, k in enumerate(self._k_rows):
            k = k.copy()
            k[(0,) * axis + (self.N // 2,)] = 0.0
            rows.append(k)
        return _read_only(rows)

    def axis_indices(self, axis: int) -> np.ndarray:
        """Integer mode indices stored along an axis: FFT order, or 0..N/2 on
        the last; a read-only row, built once per grid."""
        self._check_axis(axis)
        return self._index_rows[axis]

    @cached_property
    def k_abs(self) -> np.ndarray:
        """|k| on the half lattice; read-only, since every operator on the grid shares it."""
        k = np.sqrt(sum(self.k_component(axis) ** 2 for axis in range(self.n)))
        k.flags.writeable = False
        return k

    @cached_property
    def leray_denominator(self) -> np.ndarray:
        """|k'|^2 = sum of k_derivative(axis)^2 over the axes on the half
        lattice, with 1 where it vanishes; read-only, built once per grid."""
        ksq = np.zeros(self.half_shape)
        for k in self._k_derivative_rows:
            ksq += k**2
        safe = np.where(ksq > 0.0, ksq, 1.0)
        safe.flags.writeable = False
        return safe

    def power_symbol(self, gamma: float) -> np.ndarray:
        """|k|^(2 gamma), the symbol of (-Laplace)^gamma; the zero mode is sent to 0."""
        k = self.k_abs
        with np.errstate(divide="ignore"):
            return np.where(k > 0.0, k ** (2.0 * gamma), 0.0)

    def k_component(self, axis: int) -> np.ndarray:
        """Wavevector component k_axis as a row broadcastable over the half
        lattice (shape 1, ..., N, ..., 1, or N/2 + 1 long on the last axis).
        One of the per-grid tables built once: read-only, the same array on
        every call."""
        self._check_axis(axis)
        return self._k_rows[axis]

    def k_derivative(self, axis: int) -> np.ndarray:
        """The wavenumber of d/dx_axis: k_component(axis) with its Nyquist entry
        set to 0.  That mode's derivative is a sine, zero on the grid, and
        1j * k there would make the derivative of a real field non-real.
        One of the per-grid tables built once: read-only, the same array on
        every call."""
        self._check_axis(axis)
        return self._k_derivative_rows[axis]

    def wavevector_at(self, index: tuple) -> np.ndarray:
        """k at a half-lattice index, one entry per axis."""
        if len(index) != self.n:
            raise ShapeError(
                f"index {tuple(index)} has {len(index)} entries, the grid has {self.n} axes"
            )
        return self.k0 * np.array([self.axis_indices(a)[i] for a, i in enumerate(index)], float)

    def axis_coordinates(self) -> np.ndarray:
        return self.spacing * np.arange(self.N)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Grid)
            and (self.n, self.N) == (other.n, other.N)
            and math.isclose(self.L, other.L, rel_tol=1e-14)
        )

    def __hash__(self):
        # L is left out: equality admits a relative tolerance on L, and
        # grids that compare equal must hash equal
        return hash((self.n, self.N))

    def __repr__(self):
        return f"Grid(n={self.n}, N={self.N}, L={self.L!r})"


@lru_cache(maxsize=32)
def _negation_index(N: int) -> np.ndarray:
    """-z modulo N for z = 0..N-1, read-only; built once per N."""
    index = -np.arange(N) % N
    index.flags.writeable = False
    return index


def _plane_mirror(planes: np.ndarray, n: int) -> np.ndarray:
    """conj(c(-z)) within each plane of a (..., N, ..., N, P) stack whose n
    trailing axes are the lattice: the index is negated modulo N on the
    n - 1 axes before the last, which numbers the planes.  On the
    last-axis planes 0 and N/2, a real field's c(z) equals it."""
    negated = _negation_index(planes.shape[-2])
    out = planes
    for axis in range(planes.ndim - n, planes.ndim - 1):
        out = out.take(negated, axis=axis)
    return np.conjugate(out, out=out)


def _real_part(coeffs: np.ndarray, n: int) -> np.ndarray:
    """The coefficients with the last-axis planes 0 and N/2 replaced by their
    Hermitian part (c(z) + conj(c(-z))) / 2: the spectrum of the real field
    that irfftn makes of them, so Plancherel and the transform agree."""
    out = coeffs.copy()
    planes = coeffs[..., [0, -1]]
    out[..., [0, -1]] = 0.5 * (planes + _plane_mirror(planes, n))
    return out


def _check_real(defect: float, coeffs: np.ndarray, what: str) -> None:
    """Raise ParameterError when a Hermitian defect exceeds 1e-10, both
    absolutely and relative to the largest coefficient."""
    # the scale is >= 1, so a defect below 1e-10 passes without it
    if defect > 1e-10 and defect > 1e-10 * (1.0 + float(np.max(np.abs(coeffs)))):
        raise ParameterError(f"{what} is not real-valued in physical space")


class SpectralField:
    """Half-spectrum mode amplitudes of a real scalar (1 component) or vector
    (n component) field, shape (c, N, ..., N, N/2 + 1)."""

    __slots__ = ("grid", "coeffs")

    def __init__(self, grid: Grid, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.ndim != grid.n + 1:
            raise ShapeError(
                f"coefficients must have shape (c, {'N, ' * (grid.n - 1)}N/2+1), got {coeffs.shape}"
            )
        if coeffs.shape[1:] != grid.half_shape:
            raise ShapeError(f"lattice shape {coeffs.shape[1:]}, expected {grid.half_shape}")
        if coeffs.shape[0] not in (1, grid.n):
            raise ShapeError(
                f"component count must be 1 or {grid.n}, got {coeffs.shape[0]}"
            )
        self.grid = grid
        self.coeffs = coeffs

    # -- constructors ------------------------------------------------

    @classmethod
    def zeros(cls, grid: Grid, ncomp: int = 1) -> "SpectralField":
        return cls(grid, np.zeros((ncomp,) + grid.half_shape, dtype=np.complex128))

    @classmethod
    def from_physical(cls, grid: Grid, values: np.ndarray) -> "SpectralField":
        values = np.asarray(values, dtype=float)
        if values.ndim == grid.n:
            values = values[None]
        if values.shape[1:] != grid.shape:
            raise ShapeError(f"physical values shape {values.shape} does not match grid")
        return cls(grid, np.fft.rfftn(values, axes=tuple(range(1, grid.n + 1)), norm="forward"))

    @classmethod
    def from_modes(cls, grid: Grid, modes: dict, ncomp: int = 1) -> "SpectralField":
        """Build a real field from mode amplitudes.

        modes maps an integer index tuple z to a complex amplitude (scalar
        fields) or a length-ncomp sequence.  For every entry the conjugate
        amplitude is placed at -z, so the physical field is
        sum_z 2 Re(a_z exp(i k0 z.x)); of z and -z, each is stored where
        its last index is in 0..N/2.
        """
        field = cls.zeros(grid, ncomp)
        half = grid.N // 2
        for z, amp in modes.items():
            if len(z) != grid.n:
                raise ShapeError(f"mode index {z} has wrong dimension")
            if any(abs(c) > half for c in z):
                raise RangeError(f"mode index {z} exceeds the grid's Nyquist index {half}")
            amp = np.atleast_1d(np.asarray(amp, dtype=np.complex128))
            if amp.shape != (ncomp,):
                raise ShapeError(f"amplitude for mode {z} must have {ncomp} components")
            for index, value in ((z, amp), (tuple(-c for c in z), np.conj(amp))):
                index = tuple(c % grid.N for c in index)
                if index[-1] <= half:
                    field.coeffs[(slice(None),) + index] += value
        return field

    # -- basic queries -----------------------------------------------

    @property
    def ncomp(self) -> int:
        return self.coeffs.shape[0]

    @property
    def is_vector(self) -> bool:
        return self.ncomp == self.grid.n

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy())

    def to_physical(self) -> np.ndarray:
        axes = tuple(range(1, self.grid.n + 1))
        return np.fft.irfftn(self.coeffs, s=self.grid.shape, axes=axes, norm="forward")

    def zero_mode(self) -> np.ndarray:
        return self.coeffs[(slice(None),) + (0,) * self.grid.n]

    def with_zero_mean(self) -> "SpectralField":
        out = self.copy()
        out.coeffs[(slice(None),) + (0,) * self.grid.n] = 0.0
        return out

    def hermitian_defect(self) -> float:
        """Max deviation from conjugate symmetry on the last-axis planes 0 and
        N/2, the only ones that hold both z and -z (0 for real fields)."""
        planes = self.coeffs[..., [0, -1]]
        return float(np.max(np.abs(planes - _plane_mirror(planes, self.grid.n))))

    def max_index(self) -> int:
        """Largest |z_i| over the numerically supported coefficients.

        Support means magnitude above SUPPORT_REL_TOL times the largest one, so
        transform rounding dust does not register as content.
        """
        top = float(np.max(np.abs(self.coeffs)))
        if top == 0.0:
            return 0
        mask = np.abs(self.coeffs) > SUPPORT_REL_TOL * top
        worst = 0
        for axis in range(self.grid.n):
            axes = tuple(i for i in range(self.grid.n + 1) if i != axis + 1)
            active = mask.any(axis=axes)
            if active.any():
                worst = max(worst, int(np.max(np.abs(self.grid.axis_indices(axis)[active]))))
        return worst

    def magnitude(self) -> np.ndarray:
        """Pointwise Euclidean magnitude on the physical grid."""
        phys = self.to_physical()
        if self.ncomp == 1:
            return np.abs(phys[0])
        return np.sqrt(np.sum(phys**2, axis=0))

    def lp_norm(self, p: float) -> float:
        """Discrete L^p norm of the pointwise magnitude, weight (L/N)^n."""
        if not (p >= 1.0):
            raise ParameterError(f"p must be >= 1, got {p}")
        mag = self.magnitude()
        if math.isinf(p):
            return float(np.max(mag))
        weight = (self.grid.L / self.grid.N) ** self.grid.n
        return float((np.sum(mag**p) * weight) ** (1.0 / p))

    def l2_norm(self) -> float:
        return self.lp_norm(2.0)

    # -- linear arithmetic --------------------------------------------

    def __add__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        if self.ncomp != other.ncomp:
            raise ShapeError("component counts differ")
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        if self.ncomp != other.ncomp:
            raise ShapeError("component counts differ")
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.grid, -self.coeffs)

    def __repr__(self):
        return f"SpectralField(ncomp={self.ncomp}, grid={self.grid!r})"


def _check_same_grid(a: SpectralField, b: SpectralField) -> None:
    if a.grid != b.grid:
        raise ShapeError(f"fields live on different grids: {a.grid!r} vs {b.grid!r}")


def apply_multiplier(field: SpectralField, values) -> SpectralField:
    """Multiply every coefficient by the multiplier value at its wavevector."""
    vals = np.asarray(values)
    if vals.shape != field.grid.half_shape:
        raise ShapeError("multiplier values have the wrong lattice shape")
    bad = ~np.isfinite(vals)
    if bad.any():
        index = tuple(int(i) for i in np.argwhere(bad)[0])
        k = field.grid.wavevector_at(index)
        raise EvaluationError(f"multiplier symbol is not finite at wavevector {k.tolist()}")
    return SpectralField(field.grid, field.coeffs * vals[None])


# -- differential and projection operators -----------------------------


def fractional_laplacian(field: SpectralField, alpha) -> SpectralField:
    """(-Laplace)^alpha via the multiplier |k|^(2 alpha); zero mode -> 0."""
    if isinstance(alpha, complex) or not isinstance(alpha, (int, float)):
        raise ParameterError("alpha must be a real number")
    alpha = float(alpha)
    if not alpha > -field.grid.n / 2.0:
        raise ParameterError(f"alpha must exceed -n/2 = {-field.grid.n / 2}, got {alpha}")
    if not math.isfinite(alpha):
        raise ParameterError(f"alpha must be finite, got {alpha}")
    return apply_multiplier(field, field.grid.power_symbol(alpha))


def gradient(field: SpectralField) -> SpectralField:
    if field.ncomp != 1:
        raise ShapeError("gradient expects a scalar field")
    grid = field.grid
    comps = [field.coeffs[0] * (1j * grid.k_derivative(axis)) for axis in range(grid.n)]
    return SpectralField(grid, np.stack(comps))


def divergence(field: SpectralField) -> SpectralField:
    if not field.is_vector:
        raise ShapeError("divergence expects a vector field")
    grid = field.grid
    out = np.zeros(grid.half_shape, dtype=np.complex128)
    for axis in range(grid.n):
        out += 1j * grid.k_derivative(axis) * field.coeffs[axis]
    return SpectralField(grid, out[None])


def leray_project(field: SpectralField) -> SpectralField:
    """Project onto divergence-free fields: u - k (k.u)/|k|^2 with k the derivative
    wavenumber, and u where k = 0 (the zero mode, modes with every index 0 or N/2)."""
    if not field.is_vector:
        raise ShapeError("leray_project expects a vector field")
    grid = field.grid
    dot = np.zeros(grid.half_shape, dtype=np.complex128)
    for axis in range(grid.n):
        dot += grid.k_derivative(axis) * field.coeffs[axis]
    dot /= grid.leray_denominator
    out = field.coeffs.copy()
    for axis in range(grid.n):
        out[axis] -= grid.k_derivative(axis) * dot
    return SpectralField(grid, out)


def semigroup_apply(field: SpectralField, t: float, alpha: float) -> SpectralField:
    """Apply the dissipative semigroup exp(-t (-Laplace)^alpha); the zero mode is kept."""
    if not (math.isfinite(t) and t >= 0.0):
        raise ParameterError(f"t must be finite and >= 0, got {t}")
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ParameterError(f"alpha must be finite and > 0, got {alpha}")
    return apply_multiplier(field, np.exp(-t * field.grid.power_symbol(alpha)))


def _mix(w: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """sum_r w[r] basis[r], summed in the order of r (no BLAS call, so no
    thread-count dependence)."""
    return np.einsum("r,r...->...", w, basis)


def duhamel_nodes(times, forcing, symbol, initial=None):
    """Node values of u' + A u = g, u(0) = initial, under step-held forcing,
    yielded one node at a time.

    A is diagonal in frequency with values symbol.  The forced part starts
    from zero: on (t_{j-1}, t_j], t_{-1} = 0, the forcing is held at the
    j-th array that forcing yields (any iterable of len(times) arrays,
    read once in order; another hold rule is the caller's, written into
    what it yields), and each hold is propagated by the closed-form
    weight (1 - e^(-dt A)) / A, formed with expm1 so that it does not
    cancel when dt A is small, and dt where A = 0.  The free part
    e^(-t_j A) initial is formed exactly at each node and added to node
    j's forced value as soon as step j is done; with forcing None it is
    the whole result.  Node j is a new array, yielded once step j has
    read hold j and before hold j + 1 is read, and no stack of nodes is
    kept; with initial None it is also the state step j + 1 starts from,
    so it is read, not written.  A wrong hold count raises ValueError
    once the nodes are drained.
    """
    if forcing is None:
        for t in times:
            yield np.exp(-t * symbol) * initial
        return
    state = prev_t = 0.0
    for t, hold in zip(times, forcing, strict=True):
        dt = t - prev_t
        decay = np.exp(-dt * symbol)
        with np.errstate(divide="ignore", invalid="ignore"):
            weight = np.where(symbol > 0.0, -np.expm1(-dt * symbol) / symbol, dt)
        state = decay * state + weight * hold
        yield state if initial is None else state + np.exp(-t * symbol) * initial
        prev_t = t


def dilate(field: SpectralField, j: int) -> SpectralField:
    """Dilation x -> lambda x with lambda = 2^j.

    Realized by shrinking the box: the output lives on a grid with side
    L / lambda and carries the same coefficient array, so mode k moves to
    lambda k and the quadrature measure scales like lambda^(-n), exactly as
    on the whole space.  The dilate must stay inside the original grid's
    frequency budget: for j > 0 the support may not cross index N / 2^(j+1).
    """
    if not isinstance(j, (int, np.integer)):
        raise ParameterError("dilation exponent j must be an integer")
    j = int(j)
    lam = 2.0**j
    if j > 0:
        limit = field.grid.N // 2
        top = field.max_index() * (2**j)
        if top > limit:
            raise RangeError(
                f"dilate unresolved: support index {field.max_index()} times lambda={2**j} "
                f"exceeds the Nyquist index {limit}"
            )
    new_grid = Grid(field.grid.n, field.grid.N, field.grid.L / lam)
    return SpectralField(new_grid, field.coeffs.copy())


# -- grid refinement (shared by the dealiased nonlinearity) -------------


def quadratic_size(N: int) -> int:
    """The smallest 5-smooth M > 3N/2: a product of two fields of the N-lattice,
    formed on M points per axis, truncates back to the lattice with no aliasing
    (the 3/2 rule).  At M = 3N/2 the product mode +-N lands on the Nyquist line."""
    M = 3 * N // 2 + 1
    while True:
        rest = M
        for prime in (2, 3, 5):
            while rest % prime == 0:
                rest //= prime
        if rest == 1:
            return M
        M += 1


def _check_fine_points(grid: Grid, M) -> None:
    if not isinstance(M, int) or M <= 3 * grid.N // 2:
        raise ParameterError(
            f"fine point count must be an integer above 3N/2 = {3 * grid.N // 2}, got {M!r}"
        )


@lru_cache(maxsize=32)
def _fine_indices(N: int, M: int) -> tuple:
    """The read-only index rows between N coarse and M fine lines per axis,
    built once per (N, M): the fine lines the coarse lattice reads
    (0..N/2 and M - N/2..M - 1), the coarse lines padded onto them (the
    Nyquist line twice), the coarse Nyquist line's two fine places, and
    the N lines a truncation keeps of the N + 1 it read (line h + 1, the
    fine line M - N/2, is folded onto line h)."""
    h = N // 2
    return _read_only([
        np.r_[0 : h + 1, M - h : M],
        np.r_[0 : h + 1, h:N],
        np.array([h, M - h]),
        np.r_[0 : h + 1, h + 2 : N + 1],
    ])


def refine_physical(field: SpectralField, M: int) -> np.ndarray:
    """Evaluate the trigonometric polynomial on M > 3N/2 points per axis.

    A pruned irfftn, one axis at a time and in its order: each axis but
    the last is padded from the N coarse lines to M (the coarse Nyquist
    line is halved and copied to its twin at M - N/2) and
    inverse-transformed, while the axes not yet reached keep their N
    lines, so no transform runs on a line that holds only zeros.  The
    last axis keeps modes 0..N/2, its Nyquist plane halved, and irfft
    supplies the conjugate half, so the field is assumed real.
    """
    grid = field.grid
    _check_fine_points(grid, M)
    N, n = grid.N, grid.n
    h = N // 2
    fine_at, coarse_at, nyquist_twins, _ = _fine_indices(N, M)
    values = field.coeffs.copy()
    values[..., h] *= 0.5
    for axis in range(1, n):
        lines = (slice(None),) * axis
        shape = values.shape[:axis] + (M,) + values.shape[axis + 1 :]
        padded = np.zeros(shape, dtype=np.complex128)
        padded[lines + (fine_at,)] = values[lines + (coarse_at,)]
        padded[lines + (nyquist_twins,)] *= 0.5
        values = np.fft.ifft(padded, axis=axis, norm="forward")
    return np.fft.irfft(values, n=M, axis=n, norm="forward")


def field_from_fine_physical(grid: Grid, values: np.ndarray, M: int) -> SpectralField:
    """Transform physical values on M > 3N/2 points per axis and truncate to
    the coarse lattice (see truncate_fine_physical)."""
    values = np.asarray(values, dtype=float)
    if values.ndim == grid.n:
        values = values[None]
    return SpectralField(grid, truncate_fine_physical(grid, values, M))


def truncate_fine_physical(grid: Grid, values: np.ndarray, M: int) -> np.ndarray:
    """The half-spectrum coefficients on the coarse lattice of a (c, M, ..., M)
    stack of physical values, any number c of them.

    A pruned rfftn, in its order: rfft on the last axis keeps modes
    0..N/2, then each other axis, from the last to the first, is
    transformed and cut to the N + 1 lines the coarse lattice reads
    (0..N/2 and M - N/2..M - 1), so the next axis transforms only those.
    Every axis but the last is then folded onto N points (the coarse
    Nyquist plane takes both fine Nyquist planes), and the last-axis
    Nyquist plane takes its in-plane mirror, the twin of the fine mode at
    -N/2 that rfft does not return.
    """
    _check_fine_points(grid, M)
    N, n = grid.N, grid.n
    h = N // 2
    if values.shape[1:] != (M,) * n:
        raise ShapeError(f"fine values shape {values.shape} does not match {M} points per axis")
    occupied, _, _, keep = _fine_indices(N, M)
    half = np.fft.rfft(values, axis=n, norm="forward")[..., : h + 1]
    for axis in range(n - 1, 0, -1):
        half = np.fft.fft(half, axis=axis, norm="forward").take(occupied, axis=axis)
    # line h + 1 is the fine line M - N/2; folding after every transform,
    # first axis first, sums the Nyquist corners in rfftn's order
    for axis in range(1, n):
        folded = np.take(half, keep, axis=axis)
        folded[(slice(None),) * axis + (h,)] += half[(slice(None),) * axis + (h + 1,)]
        half = folded
    half[..., h:] += _plane_mirror(half[..., h:], n)
    return half


# -- binary field format ------------------------------------------------

_HEADER = struct.Struct("<4sIIIId")


def _negative_modes(half: np.ndarray, n: int) -> np.ndarray:
    """Last-axis modes N/2+1..N-1 of the full lattice: conj(c(-z)) of modes N/2-1..1."""
    return _plane_mirror(half[..., -2:0:-1], n)


def write_field(field: SpectralField, path) -> None:
    """Write a field in the GNSF binary format (little-endian): the header,
    then the coefficients on the full lattice, the negative last-axis modes
    expanded from the half spectrum."""
    grid = field.grid
    header = _HEADER.pack(GNSF_MAGIC, GNSF_VERSION, grid.n, grid.N, field.ncomp, grid.L)
    full = np.concatenate([field.coeffs, _negative_modes(field.coeffs, grid.n)], axis=-1)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(full.astype("<c16", copy=False).tobytes())


def read_field(path) -> SpectralField:
    """Read a GNSF file and keep its half spectrum.  The file must hold the
    spectrum of a real field: its Hermitian defect may not exceed 1e-10 both
    absolutely and relative to its largest coefficient."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise ParameterError(f"{path}: truncated header")
        magic, version, n, N, ncomp, L = _HEADER.unpack(raw)
        if magic != GNSF_MAGIC:
            raise ParameterError(f"{path}: bad magic {magic!r}")
        if version != GNSF_VERSION:
            raise ParameterError(f"{path}: unsupported version {version}")
        try:
            grid = Grid(n, N, L)
        except ParameterError as exc:
            raise ParameterError(f"{path}: {exc}") from exc
        if ncomp not in (1, n):
            raise ParameterError(f"{path}: component count must be 1 or {n}, got {ncomp}")
        size = ncomp * N**n * 16
        found = os.fstat(fh.fileno()).st_size - _HEADER.size
        if found != size:
            raise ParameterError(f"{path}: payload of {found} bytes, the header implies {size}")
        full = np.frombuffer(fh.read(size), dtype="<c16").reshape((ncomp,) + grid.shape)
    h = N // 2
    field = SpectralField(grid, full[..., : h + 1].astype(np.complex128))
    tail = np.abs(full[..., h + 1 :] - _negative_modes(field.coeffs, n))
    _check_real(max(field.hermitian_defect(), float(np.max(tail))), full, f"{path}: the field")
    return field
