"""Property tests of the spectral operators the mild formulation rests on."""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gnslab import (
    Grid,
    SpectralField,
    divergence,
    fractional_laplacian,
    gradient,
    leray_project,
    partition_sum,
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
@given(grid=grids, seed=seeds, factor=st.sampled_from([2, 3, 4]), vector=st.booleans())
def test_refine_truncate_pair_preserves_hermitian_symmetry(grid, seed, factor, vector):
    f = _real_field(grid, seed, ncomp=grid.n if vector else 1)
    fine = refine_physical(f, factor)
    out = field_from_fine_physical(grid, fine * np.abs(fine), factor)
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
