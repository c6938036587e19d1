"""Grid and transform layer: round trips, exact symbols, dilation bookkeeping."""

import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from gnslab import (
    EvaluationError,
    Grid,
    ParameterError,
    PowerLaw,
    RangeError,
    ShapeError,
    SpectralField,
    apply_multiplier,
    convective_term,
    derive_exponents,
    dilate,
    divergence,
    fractional_laplacian,
    gradient,
    leray_project,
    power_values,
    read_field,
    semigroup_apply,
    write_field,
)
from gnslab import nonlinearity, spectral_core
from gnslab.nonlinearity import dealiased_product
from gnslab.spectral_core import field_from_fine_physical, quadratic_size, refine_physical

from full_lattice import full_k, full_lattice

TWO_PI = 2.0 * math.pi


def _grid(n=2, N=32, L=TWO_PI):
    return Grid(n, N, L)


def _cos_mode(grid, wavenumber=3, axis=0):
    """Scalar field cos(wavenumber * x_axis), band-limited by construction."""
    x = grid.axis_coordinates()
    shape = [1] * grid.n
    shape[axis] = grid.N
    profile = np.cos(wavenumber * x).reshape(shape)
    return SpectralField.from_physical(grid, np.broadcast_to(profile, grid.shape))


class TestGrid:
    def test_rejects_bad_dimension(self):
        with pytest.raises(ParameterError):
            Grid(4, 32, TWO_PI)
        with pytest.raises(ParameterError):
            Grid(1, 32, TWO_PI)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ParameterError):
            Grid(2, 48, TWO_PI)

    @pytest.mark.parametrize("args, name", [
        ((2.0, 64, TWO_PI), "n"), ((2, 64.0, TWO_PI), "N"), ((2, "64", TWO_PI), "N"),
        ((2, True, TWO_PI), "N"), ((2, 64, "6.28"), "L"), ((2, 64, None), "L"),
    ])
    def test_rejects_non_numbers(self, args, name):
        with pytest.raises(ParameterError, match=f"^{name} must be"):
            Grid(*args)

    def test_rejects_bad_length(self):
        with pytest.raises(ParameterError):
            Grid(2, 32, 0.0)
        with pytest.raises(ParameterError):
            Grid(2, 32, math.inf)

    def test_fundamental_wavenumber(self):
        assert _grid(L=TWO_PI).k0 == pytest.approx(1.0)
        assert _grid(L=2.0 * TWO_PI).k0 == pytest.approx(0.5)

    def test_spacing_times_points_is_box(self):
        g = _grid(N=64, L=5.0)
        assert g.spacing * g.N == pytest.approx(5.0)

    def test_wavevector_lookup_matches_components(self):
        g = _grid()
        k = g.wavevector_at((3, 5))
        assert k[0] == pytest.approx(np.broadcast_to(g.k_component(0), g.half_shape)[3, 5])
        assert k[1] == pytest.approx(np.broadcast_to(g.k_component(1), g.half_shape)[3, 5])

    def test_last_axis_reads_modes_zero_to_nyquist(self):
        g = _grid(N=16)
        assert g.half_shape == (16, 9)
        assert g.wavevector_at((8, 8)).tolist() == [-8.0, 8.0]
        assert g.k_component(1).ravel().tolist() == list(range(9))

    @pytest.mark.parametrize("axis", [-1, 2, 5])
    def test_axis_outside_the_grid_rejected(self, axis):
        # axis -1 once read the FFT-order row [0..3, -4..-1], not the last
        # axis's 0..4, and axes past the grid read a row as well
        g = Grid(2, 8)
        for row in (g.axis_indices, g.k_component, g.k_derivative):
            with pytest.raises(ParameterError, match=r"axis must be in \[0, 2\)"):
                row(axis)

    @pytest.mark.parametrize("index", [(1, 2, 3), (1,), ()])
    def test_wavevector_index_needs_one_entry_per_axis(self, index):
        # (1, 2, 3) once returned [1, 2, 3] on a 2-D grid
        with pytest.raises(ShapeError, match="the grid has 2 axes"):
            Grid(2, 8).wavevector_at(index)

    def test_equal_grids_hash_equal(self):
        # the box sides differ by one ulp-scale step across a rounding
        # boundary of L: equality admits it, so the hashes must agree
        a = Grid(2, 64, 1.0000000000004999)
        b = Grid(2, 64, 1.0000000000005001)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


class TestSpectralField:
    def test_physical_round_trip(self):
        g = _grid()
        rng = np.random.default_rng(5)
        vals = rng.standard_normal((2,) + g.shape)
        f = SpectralField.from_physical(g, vals)
        assert np.max(np.abs(f.to_physical() - vals)) < 1e-12

    def test_shape_mismatch_rejected(self):
        g = _grid()
        with pytest.raises(ShapeError):
            SpectralField.from_physical(g, np.zeros((g.N, g.N + 1)))

    def test_l2_norm_of_single_mode(self):
        # integral of cos^2(3x) over the 2-torus is (2 pi) * pi = 2 pi^2
        f = _cos_mode(_grid())
        assert f.l2_norm() == pytest.approx(math.pi * math.sqrt(2.0), rel=1e-13)

    def test_lp_norm_monotone_in_mass(self):
        f = _cos_mode(_grid())
        assert (2.0 * f).lp_norm(4.0) == pytest.approx(2.0 * f.lp_norm(4.0), rel=1e-13)

    def test_hermitian_defect_zero_for_real_data(self):
        f = _cos_mode(_grid())
        assert f.hermitian_defect() < 1e-14

    def test_zero_mode_reads_the_mean(self):
        g = _grid()
        vals = np.full(g.shape, 2.5)
        f = SpectralField.from_physical(g, vals)
        assert np.abs(f.zero_mode() - 2.5) < 1e-13
        assert np.abs(f.with_zero_mean().zero_mode()) < 1e-13

    def test_from_modes_round_trip(self):
        # each entry contributes 2 Re(a exp(i k.x))
        g = _grid()
        f = SpectralField.from_modes(g, {(3, 0): [1.0], (0, 2): [0.5]})
        x = g.axis_coordinates()
        want = 2.0 * np.cos(3 * x)[:, None] + np.cos(2 * x)[None, :]
        assert np.max(np.abs(f.to_physical()[0] - want)) < 1e-12

    def test_from_modes_rejects_beyond_nyquist(self):
        g = _grid(N=16)
        with pytest.raises(RangeError):
            SpectralField.from_modes(g, {(9, 0): [1.0]})

    def test_max_index_sees_through_transform_dust(self):
        # from_physical leaves O(1e-17) rounding in far modes; the support
        # report must not count it
        f = _cos_mode(_grid(N=64), wavenumber=3)
        assert f.max_index() == 3

    def test_max_index_zero_field(self):
        g = _grid()
        assert SpectralField.zeros(g).max_index() == 0


class TestOperators:
    def test_fractional_laplacian_single_mode(self):
        # symbol on |k| = 3 is 9^alpha; alpha = 0.75 gives 3 sqrt(3)
        f = _cos_mode(_grid())
        out = fractional_laplacian(f, 0.75)
        ratio = out.coeffs[np.abs(f.coeffs) > 1e-8] / f.coeffs[np.abs(f.coeffs) > 1e-8]
        assert np.allclose(ratio, 3.0 * math.sqrt(3.0), rtol=1e-13)

    def test_fractional_laplacian_inverse_pair(self):
        g = _grid()
        f = _cos_mode(g).with_zero_mean()
        back = fractional_laplacian(fractional_laplacian(f, 0.6), -0.6)
        assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-12

    def test_semigroup_single_mode_decay(self):
        f = _cos_mode(_grid())
        out = semigroup_apply(f, 0.1, 1.0)
        mask = np.abs(f.coeffs) > 1e-8
        assert np.allclose(out.coeffs[mask] / f.coeffs[mask], math.exp(-0.9), rtol=1e-13)

    def test_semigroup_rejects_negative_time(self):
        with pytest.raises(ParameterError):
            semigroup_apply(_cos_mode(_grid()), -0.1, 1.0)

    def test_gradient_divergence_compose_to_laplacian(self):
        g = _grid()
        rng = np.random.default_rng(11)
        f = SpectralField.from_physical(g, rng.standard_normal(g.shape))
        lap = divergence(gradient(f)).coeffs[0]
        # -|k|^2 off the Nyquist planes; on them each axis's derivative
        # wavenumber is 0 at its own Nyquist index, so the symbol is -|k'|^2
        nyquist = np.zeros(g.half_shape, dtype=bool)
        nyquist[g.N // 2, :] = nyquist[:, g.N // 2] = True
        want = fractional_laplacian(f, 1.0).coeffs[0]
        tol = 1e-10 * (1 + np.max(np.abs(want)))
        assert np.max(np.abs(lap + want)[~nyquist]) < tol
        kprime_sq = sum(g.k_derivative(axis) ** 2 for axis in range(g.n))
        assert np.max(np.abs(lap + kprime_sq * f.coeffs[0])[nyquist]) < tol

    def test_gradient_wants_scalar(self):
        g = _grid()
        with pytest.raises(ShapeError):
            gradient(SpectralField.zeros(g, ncomp=2))

    def test_divergence_wants_vector(self):
        g = _grid()
        with pytest.raises(ShapeError):
            divergence(SpectralField.zeros(g, ncomp=1))

    def test_leray_kills_gradients(self):
        g = _grid()
        rng = np.random.default_rng(3)
        scalar = SpectralField.from_physical(g, rng.standard_normal(g.shape))
        grad = gradient(scalar)
        proj = leray_project(grad)
        assert np.max(np.abs(proj.coeffs)) < 1e-12 * (1 + np.max(np.abs(grad.coeffs)))

    def test_leray_idempotent_and_divergence_free(self):
        g = _grid()
        rng = np.random.default_rng(4)
        f = SpectralField.from_physical(g, rng.standard_normal((2,) + g.shape))
        once = leray_project(f)
        twice = leray_project(once)
        assert np.max(np.abs(twice.coeffs - once.coeffs)) < 1e-13
        div = divergence(once)
        assert np.max(np.abs(div.coeffs)) < 1e-10

    def test_apply_multiplier_shape_guard(self):
        g = _grid()
        f = SpectralField.zeros(g)
        with pytest.raises(ShapeError):
            apply_multiplier(f, np.ones((3, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_apply_multiplier_names_the_non_finite_wavevector(self, bad):
        # half-lattice index (30, 5) of N = 32 is the mode (-2, 5)
        g = _grid()
        values = np.ones(g.half_shape)
        values[30, 5] = bad
        with pytest.raises(EvaluationError, match=r"not finite at wavevector \[-2\.0, 5\.0\]"):
            apply_multiplier(_cos_mode(g), values)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_semigroup_rejects_non_finite_time(self, t):
        with pytest.raises(ParameterError, match="t must be finite"):
            semigroup_apply(_cos_mode(_grid()), t, 1.0)

    @pytest.mark.parametrize("t", [0.0, 1.0])
    @pytest.mark.parametrize("alpha", [math.inf, math.nan, 0.0])
    def test_semigroup_rejects_bad_exponent(self, t, alpha):
        # at t = 0 an infinite alpha would put 0 * inf into the exponent
        with pytest.raises(ParameterError, match="alpha"):
            semigroup_apply(_cos_mode(_grid()), t, alpha)

    def test_fractional_laplacian_rejects_infinite_exponent(self):
        with pytest.raises(ParameterError):
            fractional_laplacian(_cos_mode(_grid()), math.inf)


class TestDerivativeWavenumber:
    @pytest.mark.parametrize("n", [2, 3])
    def test_is_k_component_with_its_nyquist_index_zeroed(self, n):
        g = Grid(n, 16, 3.0)
        for axis in range(n):
            row, k = g.k_derivative(axis), g.k_component(axis)
            assert row.shape == tuple(g.half_shape[a] if a == axis else 1 for a in range(n))
            got = np.broadcast_to(row, g.half_shape).copy()
            nyquist = (slice(None),) * axis + (g.N // 2,)
            assert np.all(got[nyquist] == 0.0)
            got[nyquist] = np.broadcast_to(k, g.half_shape)[nyquist]
            assert np.array_equal(got, np.broadcast_to(k, g.half_shape))

    @pytest.mark.parametrize("n", [2, 3])
    def test_is_odd_under_index_negation(self, n):
        # k'(-z) = -k'(z), so 1j * k' keeps the last-axis planes 0 and N/2,
        # the ones that hold both z and -z, Hermitian
        g = Grid(n, 8, 3.0)
        negated = -np.arange(g.N) % g.N
        for axis in range(n - 1):
            row = g.k_derivative(axis).ravel()
            assert np.array_equal(row[negated], -row)
        last = g.k_derivative(n - 1).ravel()
        assert last[0] == last[-1] == 0.0


class TestPowerSymbol:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("a", [-0.5, 0.75, 1.0])
    def test_equals_the_former_symbol_expressions(self, n, a):
        g = Grid(n, 16, 2.0 * TWO_PI)
        k = g.k_abs
        got = g.power_symbol(a)
        with np.errstate(divide="ignore"):
            assert np.array_equal(got, np.where(k > 0.0, k ** (2.0 * a), 0.0))
        if a > 0.0:
            assert np.array_equal(got, k ** (2.0 * a))

    def test_k_abs_is_read_only(self):
        g = _grid()
        with pytest.raises(ValueError):
            g.k_abs[0, 1] = 0.0
        assert g.k_abs[0, 1] == 1.0


def _per_call_k_derivative(grid, axis):
    """k_derivative as every call once formed it: fftfreq (or 0..N/2 on the
    last axis), scaled by k0, shaped into a row, its Nyquist entry zeroed."""
    if axis == grid.n - 1:
        index = np.arange(grid.N // 2 + 1)
    else:
        index = np.fft.fftfreq(grid.N, d=1.0 / grid.N).astype(np.int64)
    shape = [1] * grid.n
    shape[axis] = index.size
    k = (grid.k0 * index).reshape(shape)
    k[(0,) * axis + (grid.N // 2,)] = 0.0
    return k


def _per_call_leray(grid, coeffs):
    """leray_project with its denominator and rows formed on every call."""
    ksq = np.zeros(grid.half_shape)
    for axis in range(grid.n):
        ksq += _per_call_k_derivative(grid, axis) ** 2
    safe = np.where(ksq > 0.0, ksq, 1.0)
    dot = np.zeros(grid.half_shape, dtype=np.complex128)
    for axis in range(grid.n):
        dot += _per_call_k_derivative(grid, axis) * coeffs[axis]
    dot /= safe
    out = coeffs.copy()
    for axis in range(grid.n):
        out[axis] -= _per_call_k_derivative(grid, axis) * dot
    return safe, out


class TestGridTables:
    @pytest.mark.parametrize("n", [2, 3])
    def test_tables_are_read_only_and_built_once(self, n):
        g = Grid(n, 16, 3.0)
        for table in (g.axis_indices, g.k_component, g.k_derivative):
            for axis in range(n):
                row = table(axis)
                assert row is table(axis)
                with pytest.raises(ValueError):
                    row[(0,) * row.ndim] = 1
        assert g.leray_denominator is g.leray_denominator
        with pytest.raises(ValueError):
            g.leray_denominator[(0,) * n] = 0.0

    @pytest.mark.parametrize("n", [2, 3])
    def test_tables_equal_the_per_call_formulas_bit_for_bit(self, n):
        g = Grid(n, 16, 3.0)
        for axis in range(n):
            want = _per_call_k_derivative(g, axis)
            assert g.k_derivative(axis).shape == want.shape
            assert g.k_derivative(axis).tobytes() == want.tobytes()
        f = _white_noise(g, n, 21)
        safe, projected = _per_call_leray(g, f.coeffs)
        assert g.leray_denominator.tobytes() == safe.tobytes()
        assert leray_project(f).coeffs.tobytes() == projected.tobytes()

    def test_tables_built_by_racing_threads_match_sequential_ones(self):
        # more threads than cores, a short switch interval and a fresh grid
        # and empty index caches each round: every thread must see whole
        # tables, whichever thread builds them
        L, N = 3.0, 16
        coeffs = _white_noise(Grid(3, N, L), 3, 8).coeffs
        M = quadratic_size(N)

        def outputs(grid):
            f = SpectralField(grid, coeffs)
            fine = refine_physical(f, M)
            return [leray_project(f).coeffs.tobytes(), divergence(f).coeffs.tobytes(),
                    fine.tobytes(), field_from_fine_physical(grid, fine, M).coeffs.tobytes(),
                    f.hermitian_defect()]

        want = outputs(Grid(3, N, L))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                spectral_core._fine_indices.cache_clear()
                spectral_core._negation_index.cache_clear()
                grid = Grid(3, N, L)
                start = threading.Barrier(8)

                def work():
                    start.wait(timeout=30)
                    return outputs(grid)

                with ThreadPoolExecutor(max_workers=8) as pool:
                    futures = [pool.submit(work) for _ in range(8)]
                    assert all(f.result(timeout=60) == want for f in futures)
        finally:
            sys.setswitchinterval(interval)


def _reference_refine(field, M, coeffs=None):
    """The full-spectrum pad: fftshift, centre the coarse block, split each Nyquist plane.
    coeffs replaces the field's expanded full-lattice coefficients."""
    N, n = field.grid.N, field.grid.n
    offset = M // 2 - N // 2
    axes = tuple(range(1, n + 1))
    if coeffs is None:
        coeffs = full_lattice(field.coeffs, n)
    fine = np.zeros((coeffs.shape[0],) + (M,) * n, dtype=np.complex128)
    fine[(slice(None),) + (slice(offset, offset + N),) * n] = np.fft.fftshift(coeffs, axes=axes)
    for axis in axes:
        lo = (slice(None),) * axis + (offset,)
        fine[lo] *= 0.5
        fine[(slice(None),) * axis + (offset + N,)] = fine[lo]
    return np.real(np.fft.ifftn(np.fft.ifftshift(fine, axes=axes), axes=axes) * M**n)


def _reference_truncate(grid, values, M):
    """The full-spectrum truncation: fftshift, fold each Nyquist plane, cut the coarse block."""
    N, n = grid.N, grid.n
    offset = M // 2 - N // 2
    axes = tuple(range(1, n + 1))
    fine = np.fft.fftshift(np.fft.fftn(values, axes=axes) / M**n, axes=axes)
    for axis in axes:
        fine[(slice(None),) * axis + (offset,)] += fine[(slice(None),) * axis + (offset + N,)]
    return np.fft.ifftshift(fine[(slice(None),) + (slice(offset, offset + N),) * n], axes=axes)


def _half_spectrum_refine(field, M):
    """The pad as one irfftn over the whole fine half spectrum."""
    N, n = field.grid.N, field.grid.n
    h = N // 2
    half = np.zeros((field.ncomp,) + (M,) * (n - 1) + (M // 2 + 1,), dtype=np.complex128)
    fine_at = np.r_[0 : h + 1, M - h : M]
    coarse_at = np.r_[0 : h + 1, h:N]
    last = np.arange(h + 1)
    half[(slice(None),) + np.ix_(*[fine_at] * (n - 1), last)] = field.coeffs[
        (slice(None),) + np.ix_(*[coarse_at] * (n - 1), last)
    ]
    for axis in range(1, n + 1):
        for pos in (h, M - h) if axis < n else (h,):
            half[(slice(None),) * axis + (pos,)] *= 0.5
    return np.fft.irfftn(half, s=(M,) * n, axes=tuple(range(1, n + 1))) * M**n


def _half_spectrum_truncate(grid, values, M):
    """The truncation as one rfftn over the whole fine lattice, then the folds."""
    N, n = grid.N, grid.n
    h = N // 2
    half = np.fft.rfftn(values, axes=tuple(range(1, n + 1)))[..., : h + 1] / M**n
    keep = np.r_[0 : h + 1, M - h + 1 : M]
    negated = -np.arange(N) % N
    for axis in range(1, n):
        folded = np.take(half, keep, axis=axis)
        folded[(slice(None),) * axis + (h,)] += half[(slice(None),) * axis + (M - h,)]
        half = folded
    mirror = np.conj(half)
    for axis in range(1, n):
        mirror = np.take(mirror, negated, axis=axis)
    half[..., h] += mirror[..., h]
    return half


def _relative(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def _white_noise(grid, ncomp, seed):
    """A real white-noise field: every Nyquist plane carries content."""
    rng = np.random.default_rng(seed)
    f = SpectralField.from_physical(grid, rng.standard_normal((ncomp,) + grid.shape))
    h = grid.N // 2
    for axis in range(1, grid.n + 1):
        assert np.min(np.abs(f.coeffs[(slice(None),) * axis + (h,)])) > 0.0
    return f


class TestRefinePair:
    @pytest.fixture(params=[(2, 16), (3, 8)], ids=["2d", "3d"])
    def grid(self, request):
        return Grid(*request.param, L=3.0)

    @pytest.fixture(params=["scalar", "vector"])
    def field(self, request, grid):
        ncomp = 1 if request.param == "scalar" else grid.n
        return _white_noise(grid, ncomp, grid.n * 10 + ncomp)

    @pytest.mark.parametrize("factor", [2, 3, 4])
    def test_refine_matches_full_spectrum_reference(self, field, factor):
        M = factor * field.grid.N
        got = refine_physical(field, M)
        assert got.shape == (field.ncomp,) + (M,) * field.grid.n
        assert _relative(got, _reference_refine(field, M)) <= 1e-14

    @pytest.mark.parametrize("factor", [2, 3, 4])
    def test_truncate_matches_full_spectrum_reference(self, field, factor):
        grid = field.grid
        M = factor * grid.N
        rng = np.random.default_rng(factor)
        values = rng.standard_normal((field.ncomp,) + (M,) * grid.n)
        got = field_from_fine_physical(grid, values, M)
        assert got.grid == grid and got.coeffs.shape == field.coeffs.shape
        assert _relative(full_lattice(got.coeffs, grid.n), _reference_truncate(grid, values, M)) <= 1e-14

    @pytest.mark.parametrize("factor", [2, 4])
    def test_pruned_pair_is_bit_equal_to_whole_half_spectrum_transforms(self, field, factor):
        grid = field.grid
        M = factor * grid.N
        assert np.array_equal(refine_physical(field, M), _half_spectrum_refine(field, M))
        values = np.random.default_rng(factor).standard_normal((field.ncomp,) + (M,) * grid.n)
        got = field_from_fine_physical(grid, values, M).coeffs
        assert np.array_equal(got, _half_spectrum_truncate(grid, values, M))

    def test_pruned_pair_at_factor_three_rounds_like_whole_transforms(self, field):
        grid = field.grid
        M = 3 * grid.N
        got = refine_physical(field, M)
        assert _relative(got, _half_spectrum_refine(field, M)) <= 1e-15
        values = np.random.default_rng(3).standard_normal((field.ncomp,) + (M,) * grid.n)
        got = field_from_fine_physical(grid, values, M).coeffs
        assert _relative(got, _half_spectrum_truncate(grid, values, M)) <= 1e-15

    @pytest.mark.parametrize("factor", [2, 3, 4])
    def test_round_trip_returns_the_field(self, field, factor):
        M = factor * field.grid.N
        back = field_from_fine_physical(field.grid, refine_physical(field, M), M)
        assert _relative(back.coeffs, field.coeffs) <= 1e-14

    def test_three_halves_size_rejected_and_the_next_accepted(self, field):
        # at M = 3N/2 the product mode +-N would alias onto the kept Nyquist line
        grid = field.grid
        M = 3 * grid.N // 2
        with pytest.raises(ParameterError, match="3N/2"):
            refine_physical(field, M)
        with pytest.raises(ParameterError, match="3N/2"):
            field_from_fine_physical(grid, np.zeros((1,) + (M,) * grid.n), M)
        fine = refine_physical(field, M + 1)
        assert field_from_fine_physical(grid, fine, M + 1).coeffs.shape == field.coeffs.shape

    @pytest.mark.parametrize("size", ["one", "float", "bool"])
    def test_wrong_fine_size_rejected(self, field, size):
        M = {"one": 1, "float": 2.0 * field.grid.N, "bool": True}[size]
        with pytest.raises(ParameterError):
            refine_physical(field, M)
        with pytest.raises(ParameterError):
            field_from_fine_physical(field.grid, np.zeros((1,) + field.grid.shape), M)

    def test_wrongly_shaped_fine_values_rejected(self, grid):
        M = 2 * grid.N
        for shape in ((M,) * (grid.n - 1) + (M + 1,), (1,) + (grid.N,) * grid.n):
            with pytest.raises(ShapeError):
                field_from_fine_physical(grid, np.zeros(shape), M)


class TestRefinePairOnThreeHalvesSizes:
    """The pair on fine sizes just above 3N/2 and not multiples of N, odd ones included."""

    @pytest.fixture(
        params=[((2, 16), 25), ((2, 16), 50), ((3, 8), 15), ((3, 8), 25), ((3, 8), 50)],
        ids=lambda case: f"{case[0][0]}d-N{case[0][1]}-M{case[1]}",
    )
    def case(self, request):
        (n, N), M = request.param
        return Grid(n, N, L=3.0), M

    @pytest.fixture(params=[1, 0], ids=["scalar", "vector"])
    def field(self, request, case):
        grid, _ = case
        ncomp = request.param or grid.n
        return _white_noise(grid, ncomp, grid.n * 10 + ncomp)

    def test_refine_matches_full_spectrum_reference(self, case, field):
        _, M = case
        got = refine_physical(field, M)
        assert got.shape == (field.ncomp,) + (M,) * field.grid.n
        assert _relative(got, _reference_refine(field, M)) <= 1e-14

    def test_truncate_matches_full_spectrum_reference(self, case, field):
        grid, M = case
        values = np.random.default_rng(M).standard_normal((field.ncomp,) + (M,) * grid.n)
        got = full_lattice(field_from_fine_physical(grid, values, M).coeffs, grid.n)
        assert _relative(got, _reference_truncate(grid, values, M)) <= 1e-14

    def test_round_trip_returns_the_field(self, case, field):
        grid, M = case
        back = field_from_fine_physical(grid, refine_physical(field, M), M)
        assert _relative(back.coeffs, field.coeffs) <= 1e-14


def _reference_convection(u, v, m, factor):
    """The convective term formed on the full-spectrum pair, derivatives by 1j * k."""
    grid = u.grid
    M = factor * grid.N
    advect = power_values(_reference_refine(u, M), m)
    out = []
    v_full = full_lattice(v.coeffs, grid.n)
    for i in range(v.ncomp):
        partials = np.stack([v_full[i] * (1j * full_k(grid, a)) for a in range(grid.n)])
        grad = _reference_refine(v, M, partials)
        out.append(np.sum(advect * grad, axis=0))
    return _reference_truncate(grid, np.stack(out), M)


def _permute_axes(field, perm):
    """The field in coordinates y_a = x_perm[a]: axes and vector components both permuted."""
    full = full_lattice(field.coeffs, field.grid.n)
    permuted = np.stack([np.transpose(full[p], perm) for p in perm])
    return SpectralField(field.grid, permuted[..., : field.grid.N // 2 + 1])


class TestConvectionOnPair:
    """convective_term against the full-spectrum pair, on fields with Nyquist content."""

    @pytest.fixture(params=[(2, 16), (3, 8)], ids=["2d", "3d"])
    def pair(self, request):
        grid = Grid(*request.param, L=3.0)
        rng = np.random.default_rng(grid.n)
        u, v = (
            SpectralField.from_physical(grid, rng.standard_normal((grid.n,) + grid.shape))
            for _ in range(2)
        )
        h = grid.N // 2
        for f in (u, v):
            for axis in range(1, grid.n + 1):
                assert np.min(np.abs(f.coeffs[(slice(None),) * axis + (h,)])) > 0.0
        return u, v

    @pytest.mark.parametrize("factor", [2, 3, 4])
    @pytest.mark.parametrize("m", [1.0, 1.5, 2.0])
    def test_matches_full_spectrum_reference(self, pair, m, factor):
        u, v = pair
        got = convective_term(u, v, PowerLaw(m, factor))
        want = _reference_convection(u, v, m, factor)
        assert _relative(full_lattice(got.coeffs, u.grid.n), want) <= 1e-14

    def test_commutes_with_axis_permutations(self, pair):
        u, v = pair
        power = PowerLaw(1.5)
        base = convective_term(u, v, power)
        n = u.grid.n
        for perm in ((1, 0),) if n == 2 else ((1, 0, 2), (0, 2, 1), (1, 2, 0)):
            got = convective_term(_permute_axes(u, perm), _permute_axes(v, perm), power)
            assert _relative(got.coeffs, _permute_axes(base, perm).coeffs) <= 1e-14


class TestQuadraticProducts:
    """m = 1 convection and the PROD product run on the 3/2-rule grid, and stay exact."""

    @staticmethod
    def _spy(monkeypatch, module):
        sizes = []
        refine, truncate = module.refine_physical, module.field_from_fine_physical

        def spy_refine(field, M):
            sizes.append(M)
            return refine(field, M)

        def spy_truncate(grid, values, M):
            sizes.append(M)
            return truncate(grid, values, M)

        monkeypatch.setattr(module, "refine_physical", spy_refine)
        monkeypatch.setattr(module, "field_from_fine_physical", spy_truncate)
        return sizes

    @pytest.mark.parametrize("m, M", [(1.0, 25), (1.5, 32)])
    def test_convection_fine_size(self, monkeypatch, m, M):
        grid = Grid(2, 16, 3.0)
        sizes = self._spy(monkeypatch, nonlinearity)
        u = _white_noise(grid, 2, 5)
        convective_term(u, u, PowerLaw(m, dealias_factor=2))
        assert sizes and set(sizes) == {M}

    def test_product_fine_size(self, monkeypatch):
        grid = Grid(2, 16, 3.0)
        sizes = self._spy(monkeypatch, nonlinearity)
        dealiased_product(_white_noise(grid, 1, 5), _white_noise(grid, 1, 6))
        assert sizes and set(sizes) == {25}

    @pytest.mark.parametrize("shape", [(2, 16), (3, 8)], ids=["2d", "3d"])
    def test_product_matches_factor_two_reference(self, shape):
        # guard: the m = 1 convection has the same check in TestConvectionOnPair
        grid = Grid(*shape, L=3.0)
        f, g = _white_noise(grid, 1, 7), _white_noise(grid, 1, 8)
        M = 2 * grid.N
        want = _reference_truncate(grid, _reference_refine(f, M) * _reference_refine(g, M), M)
        assert _relative(full_lattice(dealiased_product(f, g).coeffs, grid.n), want) <= 1e-14


class TestDilation:
    def test_unit_dilation_is_identity(self):
        f = _cos_mode(_grid())
        out = dilate(f, 0)
        assert out.grid.L == f.grid.L
        assert np.max(np.abs(out.coeffs - f.coeffs)) == 0.0

    def test_doubling_halves_the_box(self):
        f = _cos_mode(_grid(N=64), wavenumber=3)
        out = dilate(f, 1)
        assert out.grid.L == pytest.approx(f.grid.L / 2.0)
        # u(2x) has physical frequency 6 but the same lattice index
        assert out.max_index() == 3
        k = out.grid.wavevector_at((3, 0))
        assert k[0] == pytest.approx(6.0)

    def test_shrinking_doubles_the_box(self):
        f = _cos_mode(_grid(N=64), wavenumber=3)
        out = dilate(f, -1)
        assert out.grid.L == pytest.approx(2.0 * f.grid.L)

    def test_dilation_preserves_values_at_mapped_points(self):
        g = _grid(N=64)
        f = _cos_mode(g, wavenumber=3)
        out = dilate(f, 1)
        # u_j(x) = u(2^j x): node i of the new box sits at half the old spacing
        fine = out.to_physical()
        coarse = f.to_physical()
        assert np.max(np.abs(fine - coarse)) < 1e-12

    def test_unresolvable_dilation_raises(self):
        g = _grid(N=16)
        f = _cos_mode(g, wavenumber=5)
        with pytest.raises(RangeError):
            dilate(f, 1)  # 5 * 2 > 8 = Nyquist

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ParameterError):
            dilate(_cos_mode(_grid()), 0.5)


class TestFieldIO:
    def test_round_trip_is_bit_exact(self, tmp_path):
        g = _grid(n=3, N=8)
        rng = np.random.default_rng(9)
        f = SpectralField.from_physical(g, rng.standard_normal((3,) + g.shape))
        path = tmp_path / "field.gnsf"
        write_field(f, path)
        back = read_field(path)
        assert back.grid.n == g.n and back.grid.N == g.N
        assert back.grid.L == g.L
        assert np.array_equal(back.coeffs, f.coeffs)

    def test_truncated_file_rejected(self, tmp_path):
        g = _grid()
        f = SpectralField.zeros(g)
        path = tmp_path / "field.gnsf"
        write_field(f, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ParameterError):
            read_field(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.gnsf"
        path.write_bytes(b"not a field file at all" + b"\x00" * 64)
        with pytest.raises(ParameterError):
            read_field(path)
