"""Property tests of the spectral operators, the time-evolution kernel, dyadic
norms and time-weighted norms the mild formulation rests on, and of what the
exponent sets and the smallness gate imply: the compatibility window and the
contraction factor's bound."""

import math
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gnslab import (
    BesovIndex,
    Grid,
    HypothesisError,
    LorentzIndex,
    ParameterError,
    SolverConfig,
    SolverConstants,
    SpectralField,
    TimeSamples,
    besov_norm,
    besov_norms,
    block_lp_norms,
    build_cutoff,
    check_hypotheses,
    dilate,
    divergence,
    fractional_laplacian,
    gradient,
    leray_project,
    log_nodes,
    lorentz_norm,
    partition_sum,
    power_identity_check,
    read_field,
    semigroup_apply,
    smallness_gate,
    trajectory_norm,
    window_margins,
    write_field,
)
from gnslab.besov_analysis import _lp_norms, _squared_magnitudes
from gnslab.spectral_core import (
    GNSF_MAGIC,
    GNSF_VERSION,
    _plane_mirror,
    duhamel_nodes,
    field_from_fine_physical,
    refine_physical,
)

from full_lattice import full_lattice

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


def _random_half(grid, seed, ncomp):
    """Random complex half-spectrum coefficients: any array the constructor accepts."""
    rng = np.random.default_rng(seed)
    shape = (ncomp,) + grid.half_shape
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _plane_defect(coeffs, grid):
    """max |c(z) - conj(c(-z))| over z on the last-axis planes 0 and N/2,
    spelled out one index at a time."""
    N, n = grid.N, grid.n
    worst = 0.0
    for plane in (0, N // 2):
        for index in np.ndindex(*(N,) * (n - 1)):
            at = coeffs[(slice(None),) + index + (plane,)]
            mirror = coeffs[(slice(None),) + tuple(-i % N for i in index) + (plane,)]
            worst = max(worst, float(np.max(np.abs(at - np.conj(mirror)))))
    return worst


def _hermitian_planes(coeffs, grid):
    """coeffs with the planes 0 and N/2 replaced by their Hermitian part."""
    N = grid.N
    full = full_lattice(coeffs, grid.n)
    negated = (slice(None),) + np.ix_(*[-np.arange(N) % N] * grid.n)
    mirror = np.conj(full[negated])[..., : N // 2 + 1]
    out = coeffs.copy()
    for plane in (0, N // 2):
        out[..., plane] = 0.5 * (coeffs[..., plane] + mirror[..., plane])
    return out


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


kernel_cases = st.integers(1, 6).flatmap(
    lambda J: st.tuples(
        # increasing node times from positive steps
        st.lists(st.floats(1e-6, 2.0), min_size=J, max_size=J),
        # a 2 x 3 symbol, >= 0, zeros included
        st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e4)), min_size=6, max_size=6),
    )
)


@PROPERTY
@given(case=kernel_cases, seed=seeds)
def test_duhamel_kernel_adds_the_exact_free_evolution(case, seed):
    steps, values = case
    times = np.cumsum(steps)
    symbol = np.array(values).reshape(2, 3)
    rng = np.random.default_rng(seed)
    shape = (times.size, 2, 2, 3)  # nodes, components, symbol lattice
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    a = rng.standard_normal(shape[1:]) + 1j * rng.standard_normal(shape[1:])
    got = list(duhamel_nodes(times, g, symbol, initial=a))
    forced = list(duhamel_nodes(times, g, symbol))
    for j, t in enumerate(times):
        assert np.array_equal(got[j], forced[j] + np.exp(-t * symbol) * a)


@PROPERTY
@given(case=kernel_cases, seed=seeds, free=st.booleans())
def test_duhamel_kernel_reads_streamed_holds_like_a_stack(case, seed, free):
    # holds drawn one at a time from a generator give the stack's bytes
    steps, values = case
    times = np.cumsum(steps)
    symbol = np.array(values).reshape(2, 3)
    rng = np.random.default_rng(seed)
    shape = (times.size, 2, 2, 3)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    a = rng.standard_normal(shape[1:]) + 1j * rng.standard_normal(shape[1:]) if free else None
    want = np.array(list(duhamel_nodes(times, g, symbol, a)))
    got = np.array(list(duhamel_nodes(times, (gj.copy() for gj in g), symbol, a)))
    assert got.tobytes() == want.tobytes()


@PROPERTY
@given(
    grid=grids,
    seed=seeds,
    alpha=st.floats(0.1, 2.0),
    steps=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=6),
)
def test_duhamel_kernel_free_evolution_is_the_semigroup(grid, seed, alpha, steps):
    a = _real_field(grid, seed, grid.n)
    times = np.cumsum(steps)
    free = list(duhamel_nodes(times, None, grid.power_symbol(alpha), initial=a.coeffs))
    assert len(free) == times.size
    for j, t in enumerate(times):
        assert np.array_equal(free[j], semigroup_apply(a, t, alpha).coeffs)


@PROPERTY
@given(grid=grids, seed=seeds, t=st.floats(0.0, 2.0), a=st.floats(-0.9, 1.5))
def test_operators_preserve_hermitian_symmetry(grid, seed, t, a):
    # off the last-axis planes 0 and N/2 a half spectrum is real by
    # construction; hermitian_defect reads those two planes
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
def test_hermitian_defect_reads_the_self_conjugate_planes(grid, seed, vector):
    ncomp = grid.n if vector else 1
    for c in (_random_half(grid, seed, ncomp), _real_field(grid, seed, ncomp).coeffs):
        assert SpectralField(grid, c).hermitian_defect() == _plane_defect(c, grid)
    # a defect off the two planes is not representable: its mirror is not stored
    c = _real_field(grid, seed, ncomp).coeffs
    c[..., 1] += 1.0
    assert SpectralField(grid, c).hermitian_defect() == _plane_defect(c, grid) <= 1e-13


@PROPERTY
@given(n=st.sampled_from([2, 3]), N=st.sampled_from([8, 16]), nodes=st.integers(1, 3),
       vector=st.booleans(), planes=st.integers(1, 5), strided=st.booleans(), seed=seeds)
def test_gathered_mirror_is_flip_then_roll(n, N, nodes, vector, planes, strided, seed):
    # (node, component, N, ..., N, planes) stacks, signed zeros, infinities
    # and NaNs among the values, and a reversed view of the planes as the
    # full-lattice writer reads them
    rng = np.random.default_rng(seed)
    shape = (nodes, n if vector else 1) + (N,) * (n - 1) + (planes,)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    parts = rng.standard_normal((2,) + shape)
    mask = rng.random(parts.shape) < 0.2
    parts[mask] = rng.choice(special, size=int(mask.sum()))
    x = np.empty(shape, dtype=np.complex128)
    x.real, x.imag = parts
    if strided:
        x = x[..., ::-1]
    axes = tuple(range(x.ndim - n, x.ndim - 1))
    want = np.conjugate(np.roll(np.flip(x, axis=axes), 1, axis=axes))
    got = _plane_mirror(x, n)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


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
    # the file holds the full-lattice expansion, header plus ncomp N^n 16 bytes
    ncomp = grid.n if vector else 1
    for coeffs in (_hermitian_planes(_random_half(grid, seed, ncomp), grid),
                   _real_field(grid, seed, ncomp).coeffs):
        f = SpectralField(grid, coeffs)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "field.gnsf")
            write_field(f, path)
            back = read_field(path)
            with open(path, "rb") as fh:
                raw = fh.read()
        assert (back.grid.n, back.grid.N, back.grid.L) == (grid.n, grid.N, grid.L)
        assert np.array_equal(back.coeffs, f.coeffs)
        header = len(raw) - ncomp * grid.N**grid.n * 16
        assert header == 28
        assert raw[header:] == full_lattice(f.coeffs, grid.n).astype("<c16").tobytes()


@PROPERTY
@given(grid=grids, seed=seeds, vector=st.booleans())
def test_non_real_field_file_rejected(grid, seed, vector):
    ncomp = grid.n if vector else 1
    rng = np.random.default_rng(seed)
    shape = (ncomp,) + grid.shape
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    header = struct.pack("<4sIIIId", GNSF_MAGIC, GNSF_VERSION, grid.n, grid.N, ncomp, grid.L)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "field.gnsf")
        with open(path, "wb") as fh:
            fh.write(header + coeffs.astype("<c16").tobytes())
        with pytest.raises(ParameterError, match="not real-valued"):
            read_field(path)


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
    outside = np.zeros(grid.half_shape, dtype=bool)
    for axis in range(n):
        idx = np.abs(grid.axis_indices(axis))
        shape = [1] * n
        shape[axis] = idx.size
        outside |= (idx > N // 8).reshape(shape)
    f = SpectralField(grid, np.where(outside, 0.0, f.coeffs)).with_zero_mean()
    index = BesovIndex(s, p, r)
    moved = dilate(f, j)
    got = besov_norm(moved, index)
    want = 2.0 ** (j * (s - n / p)) * besov_norm(f, index)
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


@PROPERTY
@given(grid=nyquist_grids, seed=seeds, vector=st.booleans())
def test_parseval_block_norms_equal_the_transformed_ones(grid, seed, vector):
    # any half spectrum: irfftn reads the Hermitian part of the planes 0 and
    # N/2, and so must the p = 2 norms that run no transform
    cutoff = build_cutoff(grid)
    coeffs = _random_half(grid, seed, grid.n if vector else 1)
    coeffs[(slice(None),) + (0,) * grid.n] = 0.0
    f = SpectralField(grid, coeffs)
    stack = cutoff.block_multipliers()[:, None] * coeffs[None]
    axes = tuple(range(2, grid.n + 2))
    phys = np.fft.irfftn(stack, s=grid.shape, axes=axes, norm="forward")
    want = np.sqrt(np.sum(phys**2, axis=tuple(range(1, grid.n + 2))) * (grid.L / grid.N) ** grid.n)
    assert np.max(np.abs(block_lp_norms(f, 2.0) - want) / want) <= 1e-12


@st.composite
def block_stacks(draw):
    """(grid, stack): a (B, c, lattice) stack of real block fields, one of them zero."""
    grid = draw(grids)
    blocks, ncomp = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(seeds))
    stack = draw(st.floats(1e-3, 1e3)) * rng.standard_normal((blocks, ncomp) + grid.shape)
    stack[draw(st.integers(0, blocks - 1))] = 0.0
    return grid, stack


@PROPERTY
@given(case=block_stacks(), p=st.sampled_from([1.8, 3.0, 4.5, 6.0, math.inf]))
def test_lp_norms_match_their_definition(case, p):
    # (sum |v|^p h^n)^(1/p), |v| the Euclidean norm over the components
    grid, stack = case
    mag = np.linalg.norm(stack, axis=1).reshape(len(stack), -1)
    if math.isinf(p):
        want = np.max(mag, axis=1)
    else:
        want = (np.sum(mag**p, axis=1) * (grid.L / grid.N) ** grid.n) ** (1.0 / p)
    got = _lp_norms(_squared_magnitudes(stack.copy()), grid, p)
    assert np.all(np.abs(got - want) <= 1e-13 * want)


@PROPERTY
@given(case=block_stacks())
def test_lp_inf_norms_are_the_largest_magnitude_bit_for_bit(case):
    # sqrt(max s) against max sqrt(s), the magnitude taken first
    grid, stack = case
    mag = np.sqrt(np.sum(stack**2, axis=1)) if stack.shape[1] > 1 else np.abs(stack[:, 0])
    want = np.max(mag.reshape(len(stack), -1), axis=1)
    assert np.array_equal(_lp_norms(_squared_magnitudes(stack.copy()), grid, math.inf), want)


# the grids of the estimate suite's 2-D default and of the 3-D benchmark solve
trajectory_grids = st.sampled_from([Grid(2, 64, 2.0 * math.pi), Grid(3, 32, 8.0 * math.pi / 3.0)])
# and the exponent sets of the 2-D and 3-D benchmark solves
TRAJECTORY_SETS = {
    2: dict(m=1.0, n=2, p=2.0, rho=3.0, alpha=1.0),
    3: dict(m=2.0, n=3, p=3.0, rho=6.0, alpha=1.0),
}


@settings(max_examples=30, deadline=None)
@given(
    grid=trajectory_grids,
    seed=seeds,
    rank=st.sampled_from([2, 4]),
    nodes=st.integers(1, 5),
    s=st.floats(-1.0, 1.0),
    data=st.data(),
)
def test_factored_besov_norms_match_the_node_stack(grid, seed, rank, nodes, s, data):
    # a rank-2 trajectory has positive weights, like the sampler's; rank 4 is
    # a difference of two of them, so half its weights are negative
    sign = np.array([1.0, 1.0, -1.0, -1.0][:rank])
    raw = data.draw(st.lists(st.floats(0.1, 3.0), min_size=nodes * rank, max_size=nodes * rank))
    weights = np.array(raw).reshape(nodes, rank) * sign
    basis = np.stack([_real_field(grid, seed + r, grid.n).with_zero_mean().coeffs for r in range(rank)])
    indices = [BesovIndex(s, p, r) for p in (2.0, 3.0, math.inf) for r in (1.0, 2.0, math.inf)]
    nodes_stack = np.einsum("jr,r...->j...", weights, basis)
    want = besov_norms(grid, nodes_stack, indices)
    got = besov_norms(grid, basis, indices, weights)
    assert got.shape == want.shape == (nodes, len(indices))
    assert np.max(np.abs(got - want) / want) <= 1e-13
    if nodes >= 2:
        h = check_hypotheses(**TRAJECTORY_SETS[grid.n])
        times = log_nodes(1.0, nodes)
        for cls in (h.solution_class, h.weak_class):
            want_t = trajectory_norm(grid, times, nodes_stack, cls)
            got_t = trajectory_norm(grid, times, basis, cls, weights)
            assert abs(got_t - want_t) <= 1e-13 * want_t


@st.composite
def exponent_sets(draw):
    """(m, n, p, rho, alpha) drawn inside the inequalities of a family, m
    and alpha up to 1e8; rounding may still put a set on an edge."""
    def within(lo, hi):
        x = lo + draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)) * (hi - lo)
        assume(lo < x < hi)
        return x

    n = draw(st.sampled_from([2, 3]))
    family = draw(st.sampled_from(["H0", "H1", "H2"]))
    if family == "H0":
        m = 1.0
        p = within(1.0, 100.0)
        alpha = within(0.5, 1.0 + n / (2.0 * p))
        t_lo, t_hi = 2.0 * alpha - 1.0 - n / (2.0 * p), 2.0 * alpha - 1.0
    elif family == "H1":
        m = within(1.0, 2.0)
        p = within(max((m - 1.0) * n / (3.0 - m), (4.0 - m) / (3.0 - m)), min(n / (m - 1.0), 1e3))
        alpha = within(0.5 + m * (2.0 - m) * n / (2.0 * (3.0 - m) * p), (m + 1.0) / 2.0 + m * n / (2.0 * p))
        t_lo = (2.0 * alpha - 1.0) / m - n / ((m + 1.0) * p)
        t_hi = (2.0 * alpha - 1.0) / m - (2.0 - m) * n / ((3.0 - m) * p)
    else:
        m = draw(st.floats(2.0, 1e8))
        p = within(float(n), 2.0 * n)
        alpha = within(0.5, 0.5 + m * n / p)
        t_lo = (2.0 * alpha - 1.0) / m + (1.0 - 2.0 * n / p) / (m + 1.0)
        t_hi = (2.0 * alpha - 1.0) / m
    # t = 2 alpha / rho, with rho > m + 1 and p0 = n / (n/p + t) > 1
    t = within(max(t_lo, 0.0), min(t_hi, 2.0 * alpha / (m + 1.0), n - n / p))
    return m, n, p, 2.0 * alpha / t, alpha


# _derive's indices give y0 = s0 - n/p0 = -(2 alpha - 1)/m for every p0 and
# y = s - n/p = y0 - 2 alpha + 2 alpha/rho, so the window y0 - 2 alpha < y < y0
# holds with margins 2 alpha/rho and 2 alpha - 2 alpha/rho whenever rho > 1,
# and its equality y - 2 alpha/rho = y0 - 2 alpha is exact up to rounding.
# The example's alpha is large enough that the rounding reaches 1.8e-12.
@PROPERTY
@example(case=(7369.482130277304, 3, 4.400781283646433, 7370.482965173391, 4097.486026241296))
@given(case=exponent_sets())
def test_the_compatibility_window_is_an_identity(case):
    m, n, p, rho, alpha = case
    try:
        h = check_hypotheses(m=m, n=n, p=p, rho=rho, alpha=alpha)
    except (HypothesisError, ParameterError):
        return
    # relative to the terms the window's ends are formed from
    tol = 1e-12 * (2.0 * alpha + n / p)
    w = window_margins(h)
    assert abs(w["lower"] - 2.0 * alpha / rho) <= tol
    assert abs(w["upper"] - (2.0 * alpha - 2.0 * alpha / rho)) <= tol
    assert w["equality_defect"] <= tol


GATE_SET = dict(m=2.0, n=2, p=3.0, rho=4.5, alpha=1.0)


# K0 <= eta = 1/(16 k2) gives 4 k2 K0 <= 1/4, so the contraction factor
# 4 k2 lambda1 = 2 (1 - sqrt(1 - 4 k2 K0)) is at most 2 - sqrt(3)
@PROPERTY
@given(seed=seeds, k0=st.floats(1.0, 1e6), k2=st.floats(1.0, 1e12), share=st.floats(0.0, 1.0))
def test_a_passing_gate_bounds_the_contraction_factor(seed, k0, k2, share):
    h = check_hypotheses(**GATE_SET)
    grid = Grid(2, 32, 8.0 * math.pi / 3.0)
    cfg = SolverConfig(h, grid, 1e-5, 8)
    unit = _real_field(grid, seed, ncomp=2).with_zero_mean()
    amplitude = share / (16.0 * k2 * k0 * besov_norm(unit, h.data_space))
    diag = smallness_gate(unit * amplitude, None, cfg, SolverConstants(k0, 1.0, k2))
    assume(diag.K0 <= diag.eta)  # share = 1 may land an ulp above eta
    assert diag.gate and diag.gate_reason == ""
    assert 4.0 * k2 * diag.lambda1 <= 2.0 - math.sqrt(3.0) + 1e-15
