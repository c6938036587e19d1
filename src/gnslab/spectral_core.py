"""Periodic pseudo-spectral fields and Fourier multiplier operators.

The computational domain is the periodic box [0, L)^n with n in {2, 3}
and N grid points per axis, used as a proxy for the whole space.  A
field is stored by the amplitudes of its Fourier modes: the coefficient
at integer lattice index z is the amplitude of exp(i k0 z.x), where
k0 = 2*pi/L is the fundamental wavenumber.  Real fields therefore carry
Hermitian-symmetric coefficient arrays, and the zero mode is forced to
vanish on every field that feeds the homogeneous norms (constants are
quotiented out, matching the convention that the data live in the space
of distributions vanishing at infinity).

Discrete L^p norms use the quadrature weight (L/N)^n; p = inf is the
grid supremum.  All operators are pure: they return new fields.
"""

from __future__ import annotations

import math
import struct
from functools import cached_property

import numpy as np

from .errors import EvaluationError, ParameterError, RangeError, ShapeError, check_kind

GNSF_MAGIC = b"GNSF"
GNSF_VERSION = 1
SUPPORT_REL_TOL = 1e-13


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
        return (self.N,) * self.n

    @cached_property
    def index_1d(self) -> np.ndarray:
        """Integer mode indices along one axis in FFT order."""
        return np.fft.fftfreq(self.N, d=1.0 / self.N).astype(np.int64)

    @cached_property
    def k_abs(self) -> np.ndarray:
        """|k| on the full lattice; read-only, since every operator on the grid shares it."""
        sq = np.zeros(self.shape)
        for axis in range(self.n):
            sq = sq + self.k_component(axis) ** 2
        k = np.sqrt(sq)
        k.flags.writeable = False
        return k

    def power_symbol(self, gamma: float) -> np.ndarray:
        """|k|^(2 gamma), the symbol of (-Laplace)^gamma; the zero mode is sent to 0."""
        k = self.k_abs
        with np.errstate(divide="ignore"):
            return np.where(k > 0.0, k ** (2.0 * gamma), 0.0)

    def k_component(self, axis: int) -> np.ndarray:
        """Wavevector component k_axis broadcast over the lattice."""
        if not 0 <= axis < self.n:
            raise ParameterError(f"axis must be in [0, {self.n}), got {axis}")
        shape = [1] * self.n
        shape[axis] = self.N
        return (self.k0 * self.index_1d).reshape(shape) * np.ones(self.shape)

    def k_derivative(self, axis: int) -> np.ndarray:
        """The wavenumber of d/dx_axis as a row broadcastable over the lattice
        (shape 1, ..., N, ..., 1), with its Nyquist entry set to 0: that mode's
        derivative is a sine, zero on the grid, and 1j * k there would make the
        derivative of a real field non-real."""
        if not 0 <= axis < self.n:
            raise ParameterError(f"axis must be in [0, {self.n}), got {axis}")
        shape = [1] * self.n
        shape[axis] = self.N
        k = self.k0 * self.index_1d
        k[self.N // 2] = 0.0
        return k.reshape(shape)

    def wavevector_at(self, index: tuple) -> np.ndarray:
        return self.k0 * np.array([self.index_1d[i] for i in index], dtype=float)

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


def _half_mirror(coeffs: np.ndarray, grid: Grid) -> np.ndarray:
    """conj(c(-z)) on last-axis modes 0..N/2, where a real field's c(z) equals it."""
    half = grid.N // 2 + 1
    axes = tuple(range(coeffs.ndim - grid.n, coeffs.ndim - 1))  # lattice axes but the last
    # last-axis modes -0, -1, ..., -N/2 sit at indices 0, N-1, ..., N/2
    out = np.concatenate([coeffs[..., :1], coeffs[..., : half - 2 : -1]], axis=-1)
    out = np.roll(np.flip(out, axis=axes), 1, axis=axes)
    np.conjugate(out, out=out)
    return out


class SpectralField:
    """Mode amplitudes of a scalar (1 component) or vector (n component) field."""

    __slots__ = ("grid", "coeffs")

    def __init__(self, grid: Grid, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.ndim != grid.n + 1:
            raise ShapeError(
                f"coefficients must have shape (c, {'N, ' * (grid.n - 1)}N), got {coeffs.shape}"
            )
        if coeffs.shape[1:] != grid.shape:
            raise ShapeError(f"lattice shape {coeffs.shape[1:]} does not match grid {grid.shape}")
        if coeffs.shape[0] not in (1, grid.n):
            raise ShapeError(
                f"component count must be 1 or {grid.n}, got {coeffs.shape[0]}"
            )
        self.grid = grid
        self.coeffs = coeffs

    # -- constructors ------------------------------------------------

    @classmethod
    def zeros(cls, grid: Grid, ncomp: int = 1) -> "SpectralField":
        return cls(grid, np.zeros((ncomp,) + grid.shape, dtype=np.complex128))

    @classmethod
    def from_physical(cls, grid: Grid, values: np.ndarray) -> "SpectralField":
        values = np.asarray(values, dtype=float)
        if values.ndim == grid.n:
            values = values[None]
        if values.shape[1:] != grid.shape:
            raise ShapeError(f"physical values shape {values.shape} does not match grid")
        axes = tuple(range(1, grid.n + 1))
        coeffs = np.fft.fftn(values, axes=axes) / grid.N**grid.n
        return cls(grid, coeffs)

    @classmethod
    def from_modes(cls, grid: Grid, modes: dict, ncomp: int = 1) -> "SpectralField":
        """Build a real field from mode amplitudes.

        modes maps an integer index tuple z to a complex amplitude (scalar
        fields) or a length-ncomp sequence.  For every entry the conjugate
        amplitude is placed at -z, so the physical field is
        sum_z 2 Re(a_z exp(i k0 z.x)).
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
            pos = tuple(c % grid.N for c in z)
            neg = tuple((-c) % grid.N for c in z)
            field.coeffs[(slice(None),) + pos] += amp
            field.coeffs[(slice(None),) + neg] += np.conj(amp)
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
        values = np.fft.ifftn(self.coeffs, axes=axes) * self.grid.N**self.grid.n
        return np.real(values)

    def zero_mode(self) -> np.ndarray:
        return self.coeffs[(slice(None),) + (0,) * self.grid.n]

    def with_zero_mean(self) -> "SpectralField":
        out = self.copy()
        out.coeffs[(slice(None),) + (0,) * self.grid.n] = 0.0
        return out

    def hermitian_defect(self) -> float:
        """Max deviation from conjugate symmetry (0 for real fields), read on
        last-axis modes 0..N/2: the defect at -z is that at z."""
        mirror = _half_mirror(self.coeffs, self.grid)
        return float(np.max(np.abs(self.coeffs[..., : self.grid.N // 2 + 1] - mirror)))

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
        idx = self.grid.index_1d
        for axis in range(self.grid.n):
            axes = tuple(i for i in range(self.grid.n + 1) if i != axis + 1)
            active = mask.any(axis=axes)
            if active.any():
                worst = max(worst, int(np.max(np.abs(idx[active]))))
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
    if vals.shape != field.grid.shape:
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
    out = np.zeros(grid.shape, dtype=np.complex128)
    for axis in range(grid.n):
        out += 1j * grid.k_derivative(axis) * field.coeffs[axis]
    return SpectralField(grid, out[None])


def leray_project(field: SpectralField) -> SpectralField:
    """Project onto divergence-free fields: u - k (k.u)/|k|^2 with k the derivative
    wavenumber, and u where k = 0 (the zero mode, modes with every index 0 or N/2)."""
    if not field.is_vector:
        raise ShapeError("leray_project expects a vector field")
    grid = field.grid
    ksq = np.zeros(grid.shape)
    for axis in range(grid.n):
        ksq += grid.k_derivative(axis) ** 2
    safe = np.where(ksq > 0.0, ksq, 1.0)
    dot = np.zeros(grid.shape, dtype=np.complex128)
    for axis in range(grid.n):
        dot += grid.k_derivative(axis) * field.coeffs[axis]
    dot /= safe
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


def duhamel_nodes(times, forcing, symbol, initial=None, left_hold: bool = False) -> np.ndarray:
    """Exact node values of u' + A u = g under step-held forcing.

    A is diagonal in frequency with values symbol.  On (t_{j-1}, t_j] the
    forcing is held at node j, or with left_hold at node j - 1 (the first
    subinterval, which has no left node, uses the first node); each hold
    is propagated by the closed-form weight (1 - e^(-dt A)) / A, which is
    dt where A = 0.  The state starts from initial (zero by default) at
    t = 0.  Returns an array shaped like forcing.
    """
    out = np.empty_like(forcing)
    state = np.zeros_like(forcing[0]) if initial is None else initial.astype(np.complex128)
    prev_t = 0.0
    for j in range(len(times)):
        dt = times[j] - prev_t
        decay = np.exp(-dt * symbol)
        with np.errstate(divide="ignore", invalid="ignore"):
            weight = np.where(symbol > 0.0, (1.0 - decay) / symbol, dt)
        hold = forcing[max(j - 1, 0)] if left_hold else forcing[j]
        state = decay * state + weight * hold
        out[j] = state
        prev_t = times[j]
    return out


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
    fine_at = np.r_[0 : h + 1, M - h : M]
    coarse_at = np.r_[0 : h + 1, h:N]
    values = field.coeffs[..., : h + 1].copy()
    values[..., h] *= 0.5
    for axis in range(1, n):
        lines = (slice(None),) * axis
        shape = values.shape[:axis] + (M,) + values.shape[axis + 1 :]
        padded = np.zeros(shape, dtype=np.complex128)
        padded[lines + (fine_at,)] = values[lines + (coarse_at,)]
        padded[lines + ([h, M - h],)] *= 0.5
        values = np.fft.ifft(padded, axis=axis, norm="forward")
    return np.fft.irfft(values, n=M, axis=n, norm="forward")


def field_from_fine_physical(grid: Grid, values: np.ndarray, M: int) -> SpectralField:
    """Transform physical values on M > 3N/2 points per axis and truncate to
    the coarse lattice.

    A pruned rfftn, in its order: rfft on the last axis keeps modes
    0..N/2, then each other axis, from the last to the first, is
    transformed and cut to the N + 1 lines the coarse lattice reads
    (0..N/2 and M - N/2..M - 1), so the next axis transforms only those.
    Every axis but the last is then folded onto N points (the coarse
    Nyquist plane takes both fine Nyquist planes), and the negative
    last-axis modes are the conjugates of the index-negated positive ones.
    """
    _check_fine_points(grid, M)
    values = np.asarray(values, dtype=float)
    if values.ndim == grid.n:
        values = values[None]
    N, n = grid.N, grid.n
    h = N // 2
    if values.shape[1:] != (M,) * n:
        raise ShapeError(f"fine values shape {values.shape} does not match {M} points per axis")
    half = np.fft.rfft(values, axis=n, norm="forward")[..., : h + 1]
    occupied = np.r_[0 : h + 1, M - h : M]
    for axis in range(n - 1, 0, -1):
        half = np.fft.fft(half, axis=axis, norm="forward").take(occupied, axis=axis)
    # line h + 1 is the fine line M - N/2; folding after every transform,
    # first axis first, sums the Nyquist corners in rfftn's order
    keep = np.r_[0 : h + 1, h + 2 : N + 1]
    negated = -np.arange(N) % N
    for axis in range(1, n):
        folded = np.take(half, keep, axis=axis)
        folded[(slice(None),) * axis + (h,)] += half[(slice(None),) * axis + (h + 1,)]
        half = folded
    mirror = np.conj(half)
    for axis in range(1, n):
        mirror = np.take(mirror, negated, axis=axis)
    coarse = np.concatenate(
        [half[..., :h], half[..., h:] + mirror[..., h:], mirror[..., h - 1 : 0 : -1]], axis=-1
    )
    return SpectralField(grid, coarse)


# -- binary field format ------------------------------------------------

_HEADER = struct.Struct("<4sIIIId")


def write_field(field: SpectralField, path) -> None:
    """Write a field in the GNSF binary format (little-endian)."""
    grid = field.grid
    header = _HEADER.pack(GNSF_MAGIC, GNSF_VERSION, grid.n, grid.N, field.ncomp, grid.L)
    data = np.ascontiguousarray(field.coeffs, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.tobytes())


def read_field(path) -> SpectralField:
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise ParameterError(f"{path}: truncated header")
        magic, version, n, N, ncomp, L = _HEADER.unpack(raw)
        if magic != GNSF_MAGIC:
            raise ParameterError(f"{path}: bad magic {magic!r}")
        if version != GNSF_VERSION:
            raise ParameterError(f"{path}: unsupported version {version}")
        grid = Grid(n, N, L)
        count = ncomp * N**n
        payload = fh.read(count * 16)
        if len(payload) != count * 16:
            raise ParameterError(f"{path}: truncated payload")
        data = np.frombuffer(payload, dtype="<c16")
        coeffs = data.reshape((ncomp,) + grid.shape).astype(np.complex128)
    return SpectralField(grid, coeffs)
