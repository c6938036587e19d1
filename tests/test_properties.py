"""Property tests of the spectral operators, dyadic norms and time-weighted
norms the mild formulation rests on."""

import math
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gnslab import (
    BesovIndex,
    Grid,
    LorentzIndex,
    SpectralField,
    TimeSamples,
    besov_norm,
    build_cutoff,
    dilate,
    divergence,
    fractional_laplacian,
    gradient,
    leray_project,
    lorentz_norm,
    partition_sum,
    power_identity_check,
    read_field,
    semigroup_apply,
    write_field,
)
from gnslab.spectral_core import field_from_fine_physical, refine_physical

PROPERTY = settings(max_examples=50, deadline=None)

grids = st.builds(
    Grid,
    n=st.sampled_from([2, 3]),
    N=st.sampled_from([8, 16]),
    L=st.floats(0.5, 50.0),
)
seeds = st.integers(0, 2**32 - 1)


def _real_field(grid, seed, ncomp=1):
    rng = np.random.default_rng(seed)
    return SpectralField.from_physical(grid, rng.standard_normal((ncomp,) + grid.shape))


def _scale(field):
    return 1.0 + float(np.max(np.abs(field.coeffs)))


@PROPERTY
@given(grid=grids, seed=seeds, frac=st.floats(-0.95, 0.95))
def test_fractional_laplacian_inverse_pair_is_mean_free_identity(grid, seed, frac):
    a = frac * grid.n / 2.0
    f = _real_field(grid, seed)
    back = fractional_laplacian(fractional_laplacian(f, a), -a)
    assert np.all(back.zero_mode() == 0.0)
    want = f.with_zero_mean()
    assert np.max(np.abs(back.coeffs - want.coeffs)) <= 1e-12 * _scale(f)


@PROPERTY
@given(
    grid=grids,
    seed=seeds,
    s=st.floats(0.0, 2.0),
    t=st.floats(0.0, 2.0),
    alpha=st.floats(0.1, 2.0),
)
def test_semigroup_composes(grid, seed, s, t, alpha):
    f = _real_field(grid, seed)
    two_steps = semigroup_apply(semigroup_apply(f, s, alpha), t, alpha)
    one_step = semigroup_apply(f, s + t, alpha)
    assert np.max(np.abs(two_steps.coeffs - one_step.coeffs)) <= 1e-13 * _scale(f)


@PROPERTY
@given(grid=grids, seed=seeds, t=st.floats(0.0, 2.0), a=st.floats(-0.9, 1.5))
def test_operators_preserve_hermitian_symmetry(grid, seed, t, a):
    f = _real_field(grid, seed)
    assert f.hermitian_defect() <= 1e-14 * _scale(f)
    heat = semigroup_apply(f, t, 1.0)
    assert heat.hermitian_defect() <= 1e-13 * _scale(heat)
    power = fractional_laplacian(f, a)
    assert power.hermitian_defect() <= 1e-13 * _scale(power)
    v = _real_field(grid, seed + 1, ncomp=grid.n)
    for out in (gradient(f), divergence(v), leray_project(v)):
        assert out.hermitian_defect() <= 1e-13 * _scale(out)


@PROPERTY
@given(grid=grids, seed=seeds, vector=st.booleans())
def test_hermitian_defect_reads_the_full_lattice(grid, seed, vector):
    # guard: the half-spectrum defect is the full-lattice max|c(z) - conj(c(-z))|, bit for bit
    rng = np.random.default_rng(seed)
    shape = (grid.n if vector else 1,) + grid.shape
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    negated = (slice(None),) + np.ix_(*[-np.arange(grid.N) % grid.N] * grid.n)
    for c in (coeffs, _real_field(grid, seed, ncomp=shape[0]).coeffs):
        want = np.max(np.abs(c - np.conj(c[negated])))
        assert SpectralField(grid, c).hermitian_defect() == want


@PROPERTY
@given(grid=grids, seed=seeds)
def test_leray_projection(grid, seed):
    f = _real_field(grid, seed, ncomp=grid.n)
    once = leray_project(f)
    twice = leray_project(once)
    assert np.max(np.abs(twice.coeffs - once.coeffs)) <= 1e-13 * _scale(f)
    div = divergence(once)
    assert np.max(np.abs(div.coeffs)) <= 1e-13 * grid.nyquist * _scale(f)
    grad = gradient(_real_field(grid, seed + 1))
    killed = leray_project(grad)
    assert np.max(np.abs(killed.coeffs)) <= 1e-13 * _scale(grad)


@PROPERTY
@given(grid=grids, seed=seeds, extra=st.integers(1, 40), vector=st.booleans())
def test_refine_truncate_pair_preserves_hermitian_symmetry(grid, seed, extra, vector):
    # fine sizes above 3N/2, odd and not 5-smooth ones included
    M = 3 * grid.N // 2 + extra
    f = _real_field(grid, seed, ncomp=grid.n if vector else 1)
    fine = refine_physical(f, M)
    out = field_from_fine_physical(grid, fine * np.abs(fine), M)
    assert out.hermitian_defect() <= 1e-13 * _scale(out)


@PROPERTY
@given(r=st.lists(st.floats(1e-8, 1e8), min_size=1, max_size=32))
def test_partition_of_unity(r):
    assert np.max(np.abs(partition_sum(r) - 1.0)) <= 1e-12


@PROPERTY
@given(grid=grids, seed=seeds, vector=st.booleans())
def test_field_file_round_trip_is_bit_exact(grid, seed, vector):
    rng = np.random.default_rng(seed)
    shape = (grid.n if vector else 1,) + grid.shape
    f = SpectralField(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "field.gnsf")
        write_field(f, path)
        back = read_field(path)
    assert (back.grid.n, back.grid.N, back.grid.L) == (grid.n, grid.N, grid.L)
    assert np.array_equal(back.coeffs, f.coeffs)


steps = st.integers(2, 24).flatmap(
    lambda J: st.tuples(
        st.lists(st.floats(1e-3, 1e3), min_size=J, max_size=J),
        st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), min_size=J, max_size=J),
    )
)


@PROPERTY
@given(step=steps, rho=st.floats(1.1, 8.0))
def test_lorentz_norm_on_the_diagonal_is_the_lebesgue_norm(step, rho):
    lengths, values = (np.array(x) for x in step)
    ts = TimeSamples(np.cumsum(lengths), values)
    want = float(np.sum(values**rho * ts.lengths()) ** (1.0 / rho))
    assert math.isclose(lorentz_norm(ts, LorentzIndex(rho, rho)), want, rel_tol=1e-12)


@PROPERTY
@given(
    step=steps,
    m=st.floats(1.0, 4.0),
    rho=st.floats(1.1, 8.0),
    r=st.one_of(st.floats(1.0, 8.0), st.just(math.inf)),
)
def test_power_identity_holds(step, m, rho, r):
    lengths, values = (np.array(x) for x in step)
    lhs, rhs = power_identity_check(TimeSamples(np.cumsum(lengths), values), m, LorentzIndex(rho, r))
    assert math.isclose(lhs, rhs, rel_tol=1e-12)


# log2(k0 / (3/4)) just below an integer: the fundamental block is nearly
# full, so N = 32 already resolves the 3 blocks build_cutoff asks for
resolving_grids = st.builds(
    lambda shape, octave, frac: Grid(*shape, L=2.0 * math.pi / (0.75 * 2.0 ** (octave + frac))),
    shape=st.sampled_from([(2, 32), (2, 64), (3, 32)]),
    octave=st.integers(-3, 3),
    frac=st.floats(0.84, 0.99),
)


@PROPERTY
@given(
    grid=resolving_grids,
    seed=seeds,
    vector=st.booleans(),
    j=st.sampled_from([-1, 1]),
    s=st.floats(-2.0, 2.0),
    p=st.sampled_from([2.0, 3.0, math.inf]),
    r=st.sampled_from([1.0, 2.0, math.inf]),
)
def test_dilation_carries_the_scaling_exponent(grid, seed, vector, j, s, p, r):
    n, N = grid.n, grid.N
    f = _real_field(grid, seed, ncomp=n if vector else 1)
    idx = np.abs(grid.index_1d)
    outside = np.zeros(grid.shape, dtype=bool)
    for axis in range(n):
        shape = [1] * n
        shape[axis] = N
        outside |= (idx > N // 8).reshape(shape)
    f = SpectralField(grid, np.where(outside, 0.0, f.coeffs)).with_zero_mean()
    index = BesovIndex(s, p, r)
    moved = dilate(f, j)
    got = besov_norm(moved, index, build_cutoff(moved.grid))
    want = 2.0 ** (j * (s - n / p)) * besov_norm(f, index, build_cutoff(grid))
    assert want > 0.0 and math.isclose(got, want, rel_tol=1e-12)


# Every block multiplier is exactly 0 on the Nyquist planes, so the half
# spectrum keeps all a block norm reads.  N = 16 resolves at most 2 blocks
# for any L, so build_cutoff rejects it; N = 32 needs the fundamental block
# nearly full, N = 64 resolves 3 or more blocks for every L.
def _grid_of_octave(n, N):
    return lambda octave, frac: Grid(n, N, L=2.0 * math.pi / (0.75 * 2.0 ** (octave + frac)))


nyquist_grids = st.sampled_from([2, 3]).flatmap(
    lambda n: st.builds(_grid_of_octave(n, 32), st.integers(-3, 3), st.floats(0.84, 0.99))
    | st.builds(_grid_of_octave(n, 64), st.integers(-3, 3), st.floats(0.0, 1.0))
)


@PROPERTY
@given(grid=nyquist_grids)
def test_block_multipliers_vanish_on_nyquist_planes(grid):
    mults = build_cutoff(grid).block_multipliers()
    for axis in range(grid.n):
        assert np.all(np.take(mults, grid.N // 2, axis=axis + 1) == 0.0)
