"""The full coefficient lattice of a stored half spectrum, for the tests'
reference implementations, which work on the full lattice."""

import numpy as np


def full_lattice(coeffs, n):
    """(..., N, ..., N) coefficients of the half spectrum (..., N, ..., N/2+1)
    whose n trailing axes are the lattice: last-axis modes N/2+1..N-1 are
    filled from c(-z) = conj(c(z))."""
    N = coeffs.shape[-n]
    h = N // 2
    pad = np.zeros(coeffs.shape[:-1] + (N - h - 1,), dtype=np.complex128)
    full = np.concatenate([coeffs, pad], axis=-1)
    mirror = np.conj(full)
    negated = -np.arange(N) % N
    for axis in range(full.ndim - n, full.ndim):
        mirror = np.take(mirror, negated, axis=axis)
    full[..., h + 1 :] = mirror[..., h + 1 :]
    return full


def full_k(grid, axis):
    """k_axis on the full lattice (FFT order on every axis), broadcastable."""
    shape = [1] * grid.n
    shape[axis] = grid.N
    return (grid.k0 * np.fft.fftfreq(grid.N, d=1.0 / grid.N)).reshape(shape)
