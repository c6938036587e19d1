"""Dyadic frequency decomposition and homogeneous Besov norms.

A smooth radial profile phi supported in the annulus (3/4, 8/3) is built
from a fixed smooth step chi (1 below 3/4, 0 above 4/3) by the telescoping
difference phi(r) = chi(r/2) - chi(r), so that sum_q phi(2^-q r) = 1 holds
exactly for every r > 0: the sum collapses to chi(2^-Q r) - chi(2^Q r) for
large Q.  On a grid only the blocks whose annuli fit between the
fundamental wavenumber and the Nyquist wavenumber are resolved; norms sum
over that range, and callers that need exact reconstruction keep their
spectra inside the band where every contributing block is resolved.

The norm of f in B^s_{p,r} is the l^r norm over resolved blocks q of
2^(q s) times the discrete L^p norm of the block field.  A trajectory's
norm in L^{rho,r} of B^s_{p,q} (a LorentzBesov class) is the Lorentz norm
in time of its per-node Besov norms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ParameterError, ShapeError
from .lorentz_time import LorentzIndex, TimeSamples, lorentz_norm
from .spectral_core import Grid, SpectralField, _mix, _real_part

SUPPORT_LO = 0.75
SUPPORT_HI = 8.0 / 3.0
_CHI_HI = 4.0 / 3.0  # chi falls from 1 to 0 on (3/4, 4/3); then 2*_CHI_HI = SUPPORT_HI
MIN_BLOCKS = 3  # fewest resolved dyadic blocks a grid must carry


def _bump(s: np.ndarray) -> np.ndarray:
    out = np.zeros_like(s)
    pos = s > 0.0
    out[pos] = np.exp(-1.0 / s[pos])
    return out


def smooth_step(s) -> np.ndarray:
    """C-infinity step: 0 for s <= 0, 1 for s >= 1, strictly monotone between."""
    s = np.asarray(s, dtype=float)
    a = _bump(s)
    b = _bump(1.0 - s)
    return a / (a + b + (a + b == 0.0))


def chi(r) -> np.ndarray:
    """Radial cut: 1 on [0, 3/4], 0 on [4/3, inf), smooth decrease between."""
    r = np.asarray(r, dtype=float)
    return 1.0 - smooth_step((r - SUPPORT_LO) / (_CHI_HI - SUPPORT_LO))


def phi_profile(r) -> np.ndarray:
    """Annulus profile phi(r) = chi(r/2) - chi(r), supported in (3/4, 8/3)."""
    r = np.asarray(r, dtype=float)
    return chi(r / 2.0) - chi(r)


def partition_sum(r) -> np.ndarray:
    """sum_q phi(2^-q r) over all q that can contribute (equals 1 for r > 0)."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    out = np.zeros_like(r)
    pos = r > 0.0
    if pos.any():
        q_lo = np.floor(np.log2(r[pos] / SUPPORT_HI)).astype(int) - 1
        q_hi = np.ceil(np.log2(r[pos] / SUPPORT_LO)).astype(int) + 1
        acc = np.zeros(pos.sum())
        for offset in range(int(np.max(q_hi - q_lo)) + 1):
            q = q_lo + offset
            live = q <= q_hi
            acc[live] += phi_profile(r[pos][live] / 2.0 ** q[live])
        out[pos] = acc
    return out


@dataclass(frozen=True)
class BesovIndex:
    """Regularity s, integrability p, summation index r (p, r may be inf)."""

    s: float
    p: float
    r: float

    def __post_init__(self):
        if not math.isfinite(self.s):
            raise ParameterError(f"s must be finite, got {self.s}")
        if not self.p >= 1.0:
            raise ParameterError(f"p must be >= 1, got {self.p}")
        if not self.r >= 1.0:
            raise ParameterError(f"r must be >= 1, got {self.r}")


@dataclass(frozen=True)
class LorentzBesov:
    """The class L^{rho,r} in time of B^s_{p,q} in space."""

    space: BesovIndex
    time: LorentzIndex


class DyadicCutoff:
    """The resolved block range of a grid and its annulus multipliers.

    Two read-only tables are built on first use and kept: the multiplier
    stack on the half lattice, and the Plancherel weights that give every
    block's L^2 norm from the half-spectrum coefficients with no transform.
    """

    def __init__(self, grid: Grid, q_min: int, q_max: int):
        self.grid = grid
        self.q_min = int(q_min)
        self.q_max = int(q_max)
        self._multipliers = None
        self._parseval_weights = None

    @property
    def resolved_range(self) -> range:
        return range(self.q_min, self.q_max + 1)

    @property
    def block_count(self) -> int:
        return self.q_max - self.q_min + 1

    def safe_band(self) -> tuple:
        """|k| band whose every contributing block is resolved."""
        return (2.0**self.q_min * 4.0 / 3.0, 2.0**self.q_max * 1.5)

    def block_multipliers(self) -> np.ndarray:
        """phi(2^-q |k|) stacked over the resolved range, shape (Q, N, ..., N/2+1).

        Built on the first call; later calls return the same read-only stack.
        """
        if self._multipliers is None:
            k = self.grid.k_abs
            mults = np.stack([phi_profile(k / 2.0**q) for q in self.resolved_range])
            mults.flags.writeable = False
            self._multipliers = mults
        return self._multipliers

    def parseval_weights(self) -> np.ndarray:
        """L^n phi_q^2 times the mode count, shape (half lattice size, Q).

        The mode count is 1 on last-axis modes 0 and N/2, which are their own
        mirror images, and 2 on every other last-axis mode, which stands in
        for its conjugate at -k as well.
        """
        if self._parseval_weights is None:
            grid = self.grid
            count = np.full(grid.N // 2 + 1, 2.0)
            count[[0, -1]] = 1.0
            weights = grid.L**grid.n * self.block_multipliers() ** 2 * count
            weights = np.ascontiguousarray(weights.reshape(self.block_count, -1).T)
            weights.flags.writeable = False
            self._parseval_weights = weights
        return self._parseval_weights

    def __repr__(self):
        return f"DyadicCutoff(q_min={self.q_min}, q_max={self.q_max}, grid={self.grid!r})"


def build_cutoff(grid: Grid) -> DyadicCutoff:
    """Resolve the dyadic block range of a grid.

    q_min is the smallest q whose annulus sits at or above the fundamental
    wavenumber; q_max the largest whose annulus stays at or below Nyquist,
    so every multiplier vanishes on the Nyquist planes.  Cutoffs are
    memoised per (n, N, L), L bit for bit: grids that compare equal but
    whose L differs in its last bits get their own cutoff, since their
    tables differ in those bits.  Every norm here looks its grid's cutoff
    up through this, so a too-coarse grid fails at its first norm.
    """
    return _cutoff((grid.n, grid.N, grid.L), grid)


@functools.lru_cache(maxsize=8)
def _cutoff(key: tuple, grid: Grid) -> DyadicCutoff:
    # key tells apart the grids that grid equality admits as equal
    k0 = grid.k0
    q_min = math.ceil(math.log2(k0 / SUPPORT_LO) - 1e-12)
    q_max = math.floor(math.log2(grid.nyquist / SUPPORT_HI) + 1e-12)
    if q_max - q_min + 1 < MIN_BLOCKS:
        raise ConfigurationError(
            f"grid {grid!r} resolves only {max(0, q_max - q_min + 1)} dyadic blocks; "
            f"at least {MIN_BLOCKS} required"
        )
    return DyadicCutoff(grid, q_min, q_max)


def _require_zero_mean(field: SpectralField) -> None:
    # the scale is >= 1, so a zero mode below 1e-10 passes without it
    dc = np.max(np.abs(field.zero_mode()))
    if dc > 1e-10 and dc > 1e-10 * (1.0 + float(np.max(np.abs(field.coeffs)))):
        raise ParameterError(
            f"field must have zero mean for homogeneous norms (zero mode {dc:g}); "
            "project it out first"
        )


def _block_fields(half_stack: np.ndarray, grid: Grid) -> np.ndarray:
    """Real fields (..., c, lattice) of the half spectra stacked as (..., c, half lattice)."""
    axes = tuple(range(half_stack.ndim - grid.n, half_stack.ndim))
    return np.fft.irfftn(half_stack, s=grid.shape, axes=axes, norm="forward")


def _squared_magnitudes(phys: np.ndarray) -> np.ndarray:
    """Squared pointwise magnitudes, shape (B, points), of real fields stacked
    as (B, c, lattice); phys is overwritten, its squares summed in place one
    component at a time."""
    np.square(phys, out=phys)
    sq = phys[:, 0]
    for comp in range(1, phys.shape[1]):
        sq += phys[:, comp]
    return sq.reshape(len(sq), -1)


def _lp_norms(sq: np.ndarray, grid: Grid, p: float) -> np.ndarray:
    """L^p norms from the squared magnitudes sq, shape (B, points).

    |v|^p is taken as sq^(p/2): sq sqrt(sq) for p = 3, and sqrt(max sq)
    for p = inf, which is max |v| bit for bit.  sq is left as it is.
    """
    if math.isinf(p):
        return np.sqrt(np.max(sq, axis=1))
    if p == 3.0:
        power = np.sqrt(sq)
        power *= sq
    else:
        power = sq ** (p / 2.0)
    weight = (grid.L / grid.N) ** grid.n
    return (np.sum(power, axis=1) * weight) ** (1.0 / p)


def _parseval_norms(half: np.ndarray, cutoff: DyadicCutoff) -> np.ndarray:
    """Block L^2 norms of the real field whose half spectrum is half, (c, half lattice)."""
    power = np.sum(half.real**2 + half.imag**2, axis=0)
    return np.sqrt(power.ravel() @ cutoff.parseval_weights())


def block_lp_norms(field: SpectralField, p: float) -> np.ndarray:
    """L^p norms of every resolved block of the field's real part.

    The real part differs from the field only where the last-axis planes 0
    and N/2 are not Hermitian; those planes are replaced by their Hermitian
    part.  For p = 2 no transform runs: by Plancherel,
    ||Delta_q f||_2^2 = L^n sum_k phi_q(k)^2 |c_k|^2, summed over the half
    spectrum with the cutoff's parseval_weights().  Any other p takes one
    inverse real FFT of the (Q, c, half lattice) block stack.
    """
    grid = field.grid
    cutoff = build_cutoff(grid)
    half = _real_part(field.coeffs, grid.n)
    if p == 2.0:
        return _parseval_norms(half, cutoff)
    stack = cutoff.block_multipliers()[:, None] * half[None]  # (Q, c, half lattice)
    return _lp_norms(_squared_magnitudes(_block_fields(stack, grid)), grid, p)


def besov_norms(grid: Grid, stack, indices, weights=None) -> np.ndarray:
    """Homogeneous Besov norms of every node of a trajectory, shape (J, len(indices)).

    stack is a (J, c, lattice) coefficient array or any iterable of J
    per-node coefficient arrays (a generator keeps one node in memory at a
    time).  Each node's block L^p norms are computed once per distinct p
    and shared by every index with that p.

    With weights, shape (J, R), the trajectory is factored: stack is the
    (R, c, lattice) basis and node j is sum_r weights[j, r] stack[r].  Every
    basis field must have zero mean; its blocks are formed once, and each
    node's blocks are the weighted sum of them (in physical space for p != 2,
    on the half spectrum for p = 2).
    """
    cutoff = build_cutoff(grid)
    indices = tuple(indices)
    qs = np.arange(cutoff.q_min, cutoff.q_max + 1, dtype=float)
    scales = [2.0 ** (qs * index.s) for index in indices]
    ps = list(dict.fromkeys(index.p for index in indices))
    if weights is None:
        nodes = _streamed_blocks(grid, stack, ps)
    else:
        nodes = _factored_blocks(grid, stack, weights, cutoff, ps)
    rows = []
    for blocks in nodes:
        row = []
        for index, scale in zip(indices, scales):
            weighted = scale * blocks[index.p]
            if math.isinf(index.r):
                # build_cutoff refuses a grid of fewer than MIN_BLOCKS blocks
                row.append(np.max(weighted))
            else:
                row.append(np.sum(weighted**index.r) ** (1.0 / index.r))
        rows.append(row)
    return np.array(rows, dtype=float).reshape(len(rows), len(indices))


def _node_blocks(field: SpectralField, ps) -> dict:
    _require_zero_mean(field)
    return {p: block_lp_norms(field, p) for p in ps}


def _streamed_blocks(grid: Grid, stack, ps):
    """Per-node {p: block L^p norms}; each node is let go before the next
    is read, so a generator's node is not held while it forms the next."""
    for coeffs in stack:
        blocks = _node_blocks(SpectralField(grid, coeffs), ps)
        del coeffs
        yield blocks


def _factored_blocks(grid: Grid, basis, weights, cutoff: DyadicCutoff, ps):
    """Per-node {p: block L^p norms} of the trajectory weights @ basis."""
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2 or weights.shape[1] != len(basis):
        raise ShapeError(f"weights of shape {weights.shape} do not mix {len(basis)} basis fields")
    for coeffs in basis:
        _require_zero_mean(SpectralField(grid, coeffs))
    half = _real_part(np.asarray(basis, dtype=np.complex128), grid.n)  # (R, c, half lattice)
    transformed = [p for p in ps if p != 2.0]
    if transformed:
        # (R, Q, c, lattice): every block of every basis field, from one transform
        fields = _block_fields(cutoff.block_multipliers()[None, :, None] * half[:, None], grid)
    for w in weights:
        blocks = {}
        if 2.0 in ps:
            blocks[2.0] = _parseval_norms(_mix(w, half), cutoff)
        if transformed:
            sq = _squared_magnitudes(_mix(w, fields))  # (Q, points), shared by every p
            blocks.update((p, _lp_norms(sq, grid, p)) for p in transformed)
        yield blocks


def besov_norm(field: SpectralField, index: BesovIndex) -> float:
    """Homogeneous Besov norm over the resolved block range."""
    return float(besov_norms(field.grid, field.coeffs[None], (index,))[0, 0])


def trajectory_norm(grid: Grid, times, stack, cls: LorentzBesov, weights=None) -> float:
    """Norm of a trajectory in the class cls: the Lorentz norm in time of
    its per-node Besov norms.  stack and weights are as in besov_norms."""
    vals = besov_norms(grid, stack, (cls.space,), weights)[:, 0]
    return lorentz_norm(TimeSamples(times, vals), cls.time)


def reconstruct(field: SpectralField) -> SpectralField:
    """Sum of all resolved blocks (equals the field inside the safe band)."""
    total = np.sum(build_cutoff(field.grid).block_multipliers(), axis=0)
    return SpectralField(field.grid, field.coeffs * total[None])
