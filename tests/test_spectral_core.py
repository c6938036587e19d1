"""Grid and transform layer: round trips, exact symbols, dilation bookkeeping."""

import math

import numpy as np
import pytest

from gnslab import (
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
from gnslab.spectral_core import field_from_fine_physical, refine_physical

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
        assert k[0] == pytest.approx(g.k_component(0)[3, 5])
        assert k[1] == pytest.approx(g.k_component(1)[3, 5])

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
        nyquist = np.zeros(g.shape, dtype=bool)
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
            got, k = g.k_derivative(axis), g.k_component(axis)
            nyquist = (slice(None),) * axis + (g.N // 2,)
            assert np.all(got[nyquist] == 0.0)
            got[nyquist] = k[nyquist]
            assert np.array_equal(got, k)

    @pytest.mark.parametrize("n", [2, 3])
    def test_is_odd_under_index_negation(self, n):
        # k'(-z) = -k'(z), so 1j * k' maps a Hermitian array to a Hermitian one
        g = Grid(n, 8, 3.0)
        negated = -np.arange(g.N) % g.N
        for axis in range(n):
            k = g.k_derivative(axis)
            assert np.array_equal(k[np.ix_(*[negated] * n)], -k)


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


def _reference_refine(field, factor):
    """The full-spectrum pad: fftshift, centre the coarse block, split each Nyquist plane."""
    N, n = field.grid.N, field.grid.n
    M, offset = factor * N, (factor - 1) * N // 2
    axes = tuple(range(1, n + 1))
    fine = np.zeros((field.ncomp,) + (M,) * n, dtype=np.complex128)
    fine[(slice(None),) + (slice(offset, offset + N),) * n] = np.fft.fftshift(field.coeffs, axes=axes)
    for axis in axes:
        lo = (slice(None),) * axis + (offset,)
        fine[lo] *= 0.5
        fine[(slice(None),) * axis + (offset + N,)] = fine[lo]
    return np.real(np.fft.ifftn(np.fft.ifftshift(fine, axes=axes), axes=axes) * M**n)


def _reference_truncate(grid, values, factor):
    """The full-spectrum truncation: fftshift, fold each Nyquist plane, cut the coarse block."""
    N, n = grid.N, grid.n
    M, offset = factor * N, (factor - 1) * N // 2
    axes = tuple(range(1, n + 1))
    fine = np.fft.fftshift(np.fft.fftn(values, axes=axes) / M**n, axes=axes)
    for axis in axes:
        fine[(slice(None),) * axis + (offset,)] += fine[(slice(None),) * axis + (offset + N,)]
    return np.fft.ifftshift(fine[(slice(None),) + (slice(offset, offset + N),) * n], axes=axes)


def _half_spectrum_refine(field, factor):
    """The pad as one irfftn over the whole fine half spectrum."""
    N, n = field.grid.N, field.grid.n
    M, h = factor * N, N // 2
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


def _half_spectrum_truncate(grid, values, factor):
    """The truncation as one rfftn over the whole fine lattice, then the folds."""
    N, n = grid.N, grid.n
    M, h = factor * N, N // 2
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
    return np.concatenate(
        [half[..., :h], half[..., h:] + mirror[..., h:], mirror[..., h - 1 : 0 : -1]], axis=-1
    )


def _relative(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestRefinePair:
    @pytest.fixture(params=[(2, 16), (3, 8)], ids=["2d", "3d"])
    def grid(self, request):
        return Grid(*request.param, L=3.0)

    @pytest.fixture(params=["scalar", "vector"])
    def field(self, request, grid):
        ncomp = 1 if request.param == "scalar" else grid.n
        rng = np.random.default_rng(grid.n * 10 + ncomp)
        f = SpectralField.from_physical(grid, rng.standard_normal((ncomp,) + grid.shape))
        h = grid.N // 2
        for axis in range(1, grid.n + 1):
            assert np.min(np.abs(f.coeffs[(slice(None),) * axis + (h,)])) > 0.0
        return f

    @pytest.mark.parametrize("factor", [2, 3, 4])
    def test_refine_matches_full_spectrum_reference(self, field, factor):
        got = refine_physical(field, factor)
        assert got.shape == (field.ncomp,) + (factor * field.grid.N,) * field.grid.n
        assert _relative(got, _reference_refine(field, factor)) <= 1e-14

    @pytest.mark.parametrize("factor", [2, 3, 4])
    def test_truncate_matches_full_spectrum_reference(self, field, factor):
        grid = field.grid
        rng = np.random.default_rng(factor)
        values = rng.standard_normal((field.ncomp,) + (factor * grid.N,) * grid.n)
        got = field_from_fine_physical(grid, values, factor)
        assert got.grid == grid and got.coeffs.shape == field.coeffs.shape
        assert _relative(got.coeffs, _reference_truncate(grid, values, factor)) <= 1e-14

    @pytest.mark.parametrize("factor", [2, 4])
    def test_pruned_pair_is_bit_equal_to_whole_half_spectrum_transforms(self, field, factor):
        grid = field.grid
        assert np.array_equal(refine_physical(field, factor), _half_spectrum_refine(field, factor))
        values = np.random.default_rng(factor).standard_normal(
            (field.ncomp,) + (factor * grid.N,) * grid.n
        )
        got = field_from_fine_physical(grid, values, factor).coeffs
        assert np.array_equal(got, _half_spectrum_truncate(grid, values, factor))

    def test_pruned_pair_at_factor_three_rounds_like_whole_transforms(self, field):
        grid = field.grid
        got = refine_physical(field, 3)
        assert _relative(got, _half_spectrum_refine(field, 3)) <= 1e-15
        values = np.random.default_rng(3).standard_normal((field.ncomp,) + (3 * grid.N,) * grid.n)
        got = field_from_fine_physical(grid, values, 3).coeffs
        assert _relative(got, _half_spectrum_truncate(grid, values, 3)) <= 1e-15

    @pytest.mark.parametrize("factor", [2, 3, 4])
    def test_round_trip_returns_the_field(self, field, factor):
        back = field_from_fine_physical(field.grid, refine_physical(field, factor), factor)
        assert _relative(back.coeffs, field.coeffs) <= 1e-14

    @pytest.mark.parametrize("factor", [1, 5])
    def test_wrong_factor_rejected(self, field, factor):
        with pytest.raises(ParameterError):
            refine_physical(field, factor)
        with pytest.raises(ParameterError):
            field_from_fine_physical(field.grid, np.zeros((1,) + field.grid.shape), factor)

    def test_wrongly_shaped_fine_values_rejected(self, grid):
        M = 2 * grid.N
        for shape in ((M,) * (grid.n - 1) + (M + 1,), (1,) + (grid.N,) * grid.n):
            with pytest.raises(ShapeError):
                field_from_fine_physical(grid, np.zeros(shape), 2)


def _reference_convection(u, v, m, factor):
    """The convective term formed on the full-spectrum pair, derivatives by 1j * k."""
    grid = u.grid
    advect = power_values(_reference_refine(u, factor), m)
    out = []
    for i in range(v.ncomp):
        partials = np.stack([v.coeffs[i] * (1j * grid.k_component(a)) for a in range(grid.n)])
        out.append(np.sum(advect * _reference_refine(SpectralField(grid, partials), factor), axis=0))
    return _reference_truncate(grid, np.stack(out), factor)


def _permute_axes(field, perm):
    """The field in coordinates y_a = x_perm[a]: axes and vector components both permuted."""
    return SpectralField(field.grid, np.stack([np.transpose(field.coeffs[p], perm) for p in perm]))


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
        assert _relative(got.coeffs, _reference_convection(u, v, m, factor)) <= 1e-14

    def test_commutes_with_axis_permutations(self, pair):
        u, v = pair
        power = PowerLaw(1.5)
        base = convective_term(u, v, power)
        n = u.grid.n
        for perm in ((1, 0),) if n == 2 else ((1, 0, 2), (0, 2, 1), (1, 2, 0)):
            got = convective_term(_permute_axes(u, perm), _permute_axes(v, perm), power)
            assert _relative(got.coeffs, _permute_axes(base, perm).coeffs) <= 1e-14


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
