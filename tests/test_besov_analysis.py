"""Dyadic decomposition layer: partition of unity, block norms, scale counting."""

import importlib
import inspect
import math
import pkgutil
import weakref

import numpy as np
import pytest

import gnslab
from gnslab import (
    BesovIndex,
    ConfigurationError,
    Grid,
    LorentzBesov,
    LorentzIndex,
    ParameterError,
    ShapeError,
    SpectralField,
    besov_norm,
    besov_norms,
    block_lp_norms,
    build_cutoff,
    chi,
    dilate,
    partition_sum,
    phi_profile,
    random_field,
    reconstruct,
    trajectory_norm,
)

from full_lattice import full_k, full_lattice

TWO_PI = 2.0 * math.pi


def _dyadic_block(field, q, cutoff):
    """The field restricted to dyadic block q by its annulus multiplier."""
    mult = cutoff.block_multipliers()[q - cutoff.q_min]
    return SpectralField(field.grid, field.coeffs * mult[None])


def _grid2():
    return Grid(2, 64, TWO_PI)


def _shear(grid, wavenumber):
    """Divergence-free field: component i rides on the other coordinate."""
    x = grid.axis_coordinates()
    k = wavenumber * grid.k0
    vals = np.stack([
        np.broadcast_to(np.cos(k * x)[None, :], grid.shape),
        np.broadcast_to(np.cos(k * x)[:, None], grid.shape),
    ])
    return SpectralField.from_physical(grid, vals)


class TestProfiles:
    def test_chi_is_one_inside_and_zero_outside(self):
        r = np.array([0.0, 0.5, 0.74, 4.0, 10.0])
        vals = chi(r)
        assert np.all(vals[:3] == 1.0)
        assert np.all(vals[3:] == 0.0)

    def test_phi_support(self):
        # the annulus profile vanishes off (3/4, 8/3)
        r = np.array([0.1, 0.75, 8.0 / 3.0, 5.0])
        assert np.all(phi_profile(r) == 0.0)
        inside = np.linspace(0.8, 2.6, 50)
        assert np.all(phi_profile(inside) >= 0.0)
        assert phi_profile(np.array([1.5]))[0] == pytest.approx(1.0, abs=1e-12)

    def test_partition_telescopes_to_one(self):
        # sum over all integer scales of phi(r / 2^q) is 1 for r > 0
        r = np.exp(np.random.default_rng(0).uniform(-3, 6, size=200))
        assert np.max(np.abs(partition_sum(r) - 1.0)) < 1e-10

    def test_partition_fails_gracefully_at_zero(self):
        assert partition_sum(np.array([0.0]))[0] == pytest.approx(0.0)


class TestCutoff:
    def test_resolved_range_small_box(self):
        c = build_cutoff(_grid2())
        assert (c.q_min, c.q_max) == (1, 3)

    def test_resolved_range_large_box(self):
        c = build_cutoff(Grid(2, 64, 2.0 * TWO_PI))
        assert (c.q_min, c.q_max) == (0, 2)

    def test_resolved_range_three_dimensions(self):
        c = build_cutoff(Grid(3, 64, 2.0 * TWO_PI))
        assert (c.q_min, c.q_max) == (0, 2)

    def test_safe_band_brackets_resolved_blocks(self):
        c = build_cutoff(_grid2())
        lo, hi = c.safe_band()
        assert lo == pytest.approx(8.0 / 3.0)
        assert hi == pytest.approx(12.0)

    def test_too_coarse_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            build_cutoff(Grid(2, 8, TWO_PI))

    def test_block_count(self):
        c = build_cutoff(_grid2())
        assert c.block_count == 3

    def test_one_cutoff_per_grid(self):
        assert build_cutoff(Grid(2, 64)) is build_cutoff(Grid(2, 64))
        assert build_cutoff(Grid(2, 64)) is not build_cutoff(Grid(2, 64, 2.0 * TWO_PI))

    def test_too_coarse_grid_rejected_on_every_call(self):
        for _ in range(3):
            with pytest.raises(ConfigurationError):
                build_cutoff(Grid(3, 16, TWO_PI))

    def test_too_coarse_grid_rejected_by_the_norms(self):
        g = Grid(2, 16, 8.0 * math.pi / 3.0)  # N = 16 resolves 2 blocks for any L
        f = SpectralField.from_modes(g, {(1, 0): 1.0})
        index = BesovIndex(0.5, 2.0, 1.0)
        with pytest.raises(ConfigurationError):
            besov_norm(f, index)
        cls = LorentzBesov(index, LorentzIndex(2.0, 2.0))
        with pytest.raises(ConfigurationError):
            trajectory_norm(g, [0.5, 1.0], [f.coeffs, f.coeffs], cls)

    def test_no_public_function_takes_a_cutoff(self):
        # every norm finds its grid's cutoff itself
        names = [m.name for m in pkgutil.iter_modules(gnslab.__path__) if m.name != "__main__"]
        modules = [gnslab] + [importlib.import_module(f"gnslab.{name}") for name in names]
        functions = [(name, obj) for module in modules for name, obj in vars(module).items()
                     if not name.startswith("_") and inspect.isfunction(obj)]
        takers = {f"{obj.__module__}.{name}" for name, obj in functions
                  if "cutoff" in inspect.signature(obj).parameters}
        assert takers == set()


class TestBlocks:
    def test_single_mode_lands_in_one_block(self):
        g = _grid2()
        f = _shear(g, 3)  # |k| = 3 sits where phi(3/2) = 1
        c = build_cutoff(g)
        norms = block_lp_norms(f, 2.0)
        assert norms.shape == (c.block_count,)
        assert norms[0] == pytest.approx(f.l2_norm(), rel=1e-12)
        assert np.all(norms[1:] < 1e-12)

    def test_block_lp_matches_blockwise_evaluation(self):
        g = _grid2()
        c = build_cutoff(g)
        f = random_field(g, np.random.default_rng(2), ncomp=2)
        norms = block_lp_norms(f, 3.0)
        for i, q in enumerate(range(c.q_min, c.q_max + 1)):
            assert norms[i] == pytest.approx(_dyadic_block(f, q, c).lp_norm(3.0), rel=1e-12)

    def test_reconstruction_is_identity_on_band(self):
        g = _grid2()
        f = random_field(g, np.random.default_rng(8), ncomp=2)
        back = reconstruct(f)
        scale = 1.0 + np.max(np.abs(f.coeffs))
        assert np.max(np.abs(back.coeffs - f.coeffs)) / scale < 1e-10


class TestBesovNorm:
    def test_single_block_closed_form(self):
        # one active block at scale q: the norm collapses to 2^(q s) ||f||_p
        g = _grid2()
        f = _shear(g, 3)
        for s, p, r in ((0.5, 2.0, 1.0), (-1.0, 2.0, 2.0), (0.25, 3.0, math.inf)):
            got = besov_norm(f, BesovIndex(s, p, r))
            want = 2.0**s * f.lp_norm(p)
            assert got == pytest.approx(want, rel=1e-12)

    def test_homogeneous_in_amplitude(self):
        g = _grid2()
        f = random_field(g, np.random.default_rng(1))
        idx = BesovIndex(0.3, 2.5, 1.5)
        assert besov_norm(3.0 * f, idx) == pytest.approx(3.0 * besov_norm(f, idx), rel=1e-12)

    def test_summability_ordering(self):
        # weaker summability never increases the norm
        g = _grid2()
        f = random_field(g, np.random.default_rng(12), ncomp=2)
        norms = [besov_norm(f, BesovIndex(0.5, 2.0, r)) for r in (1.0, 2.0, math.inf)]
        assert norms[0] >= norms[1] >= norms[2]

    def test_dilation_carries_the_scaling_exponent(self):
        g = Grid(2, 64, 2.0 * TWO_PI)
        f = _shear(g, 3)
        s, p, r = 0.5, 2.0, 1.0
        base = besov_norm(f, BesovIndex(s, p, r))
        half = dilate(f, 1)
        scaled = besov_norm(half, BesovIndex(s, p, r))
        assert scaled / base == pytest.approx(2.0 ** (s - g.n / p), rel=1e-12)

    def test_mean_part_rejected(self):
        g = _grid2()
        f = SpectralField.from_physical(g, np.full(g.shape, 1.0))
        with pytest.raises(ParameterError):
            besov_norm(f, BesovIndex(0.5, 2.0, 2.0))

    def test_zero_field_is_zero(self):
        g = _grid2()
        assert besov_norm(SpectralField.zeros(g), BesovIndex(0.5, 2.0, 1.0)) == 0.0

    def test_tables_built_once_and_read_only(self):
        c = build_cutoff(_grid2())
        mults = c.block_multipliers()
        weights = c.parseval_weights()
        assert c.block_multipliers() is mults and c.parseval_weights() is weights
        assert mults.shape == (c.block_count, 64, 33) and mults.flags.c_contiguous
        assert weights.shape == (64 * 33, c.block_count) and weights.flags.c_contiguous
        for table in (mults, weights):
            with pytest.raises(ValueError):
                table[0, 0] = 1.0

    def test_multipliers_are_the_full_lattice_profile_on_the_half(self):
        c = build_cutoff(Grid(3, 32, 8.0 * math.pi / 3.0))
        assert np.array_equal(c.block_multipliers(), _full_multipliers(c)[..., :17])

    def test_index_validation(self):
        with pytest.raises(ParameterError):
            BesovIndex(0.0, 0.5, 2.0)
        with pytest.raises(ParameterError):
            BesovIndex(0.0, 2.0, 0.5)


def _reference_norm(field, index, cutoff):
    """The per-node Besov arithmetic spelled out on the block L^p norms."""
    norms = block_lp_norms(field, index.p)
    qs = np.arange(cutoff.q_min, cutoff.q_max + 1, dtype=float)
    weighted = 2.0 ** (qs * index.s) * norms
    if math.isinf(index.r):
        return float(np.max(weighted))
    return float(np.sum(weighted**index.r) ** (1.0 / index.r))


class TestStackNorms:
    INDICES = (
        BesovIndex(0.5, 2.0, 1.0),
        BesovIndex(-0.25, 2.0, math.inf),
        BesovIndex(0.3, math.inf, 2.0),
        BesovIndex(0.1, 3.0, 1.5),
        BesovIndex(-0.5, 3.0, math.inf),
    )

    def _stack(self, g, nodes=5, ncomp=2):
        rng = np.random.default_rng(31)
        return np.stack([random_field(g, rng, ncomp=ncomp).coeffs for _ in range(nodes)])

    @pytest.mark.parametrize("ncomp", [1, 2])
    def test_rows_equal_per_node_norms_exactly(self, ncomp):
        g = _grid2()
        c = build_cutoff(g)
        stack = self._stack(g, ncomp=ncomp)
        got = besov_norms(g, stack, self.INDICES)
        assert got.shape == (len(stack), len(self.INDICES))
        for j, coeffs in enumerate(stack):
            f = SpectralField(g, coeffs)
            for i, index in enumerate(self.INDICES):
                assert got[j, i] == besov_norm(f, index)
                assert got[j, i] == _reference_norm(f, index, c)

    def test_iterable_of_nodes_matches_array(self):
        g = _grid2()
        stack = self._stack(g, nodes=3)
        want = besov_norms(g, stack, self.INDICES)
        got = besov_norms(g, (coeffs for coeffs in stack), self.INDICES)
        assert np.array_equal(got, want)

    def test_streamed_node_is_let_go_before_the_next_is_read(self):
        # a generator that forms its next node (the solver's sweep) then
        # does so without the last one still alive
        g = _grid2()
        stack = self._stack(g, nodes=3)
        last = []

        def nodes():
            for coeffs in stack:
                assert not last or last[-1]() is None
                node = coeffs.copy()
                last.append(weakref.ref(node))
                yield node
                del node

        got = besov_norms(g, nodes(), self.INDICES)
        assert np.array_equal(got, besov_norms(g, stack, self.INDICES))
        assert len(last) == 3

    def test_node_with_mean_rejected(self):
        g = _grid2()
        stack = self._stack(g, nodes=3)
        stack[1][(slice(None), 0, 0)] = 1.0
        with pytest.raises(ParameterError):
            besov_norms(g, stack, self.INDICES)

    @pytest.mark.parametrize("p", [3.0, math.inf])
    def test_factored_basis_with_mean_rejected(self, p):
        g = _grid2()
        basis = self._stack(g, nodes=2)
        basis[1][(slice(None), 0, 0)] = 1.0
        with pytest.raises(ParameterError, match="zero mean"):
            besov_norms(g, basis, (BesovIndex(0.5, p, 2.0),), np.ones((3, 2)))

    def test_factored_weights_must_mix_the_basis(self):
        g = _grid2()
        basis = self._stack(g, nodes=2)
        with pytest.raises(ShapeError):
            besov_norms(g, basis, self.INDICES, np.ones((3, 3)))

    def test_empty_stack(self):
        g = _grid2()
        got = besov_norms(g, np.zeros((0, 2) + g.half_shape, complex), self.INDICES)
        assert got.shape == (0, len(self.INDICES))


def _white_noise(grid, ncomp, seed):
    """A real field with content on every mode, the Nyquist planes included."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((ncomp,) + grid.shape)
    return SpectralField.from_physical(grid, values).with_zero_mean()


def _full_multipliers(cutoff):
    """phi(2^-q |k|) over the resolved range on the full lattice."""
    grid = cutoff.grid
    k = np.sqrt(sum(full_k(grid, axis) ** 2 for axis in range(grid.n)))
    return np.stack([phi_profile(k / 2.0**q) for q in cutoff.resolved_range])


def _full_spectrum_block_lp_norms(field, cutoff, p):
    """Block L^p norms through the complex transform of the full spectrum."""
    grid = field.grid
    stack = _full_multipliers(cutoff)[:, None] * full_lattice(field.coeffs, grid.n)[None]
    axes = tuple(range(2, grid.n + 2))
    phys = np.real(np.fft.ifftn(stack, axes=axes) * grid.N**grid.n)
    mag = np.sqrt(np.sum(phys**2, axis=1)) if field.ncomp > 1 else np.abs(phys[:, 0])
    flat = mag.reshape(mag.shape[0], -1)
    if math.isinf(p):
        return np.max(flat, axis=1)
    weight = (grid.L / grid.N) ** grid.n
    return (np.sum(flat**p, axis=1) * weight) ** (1.0 / p)


_HALF_GRIDS = {2: Grid(2, 64, TWO_PI), 3: Grid(3, 32, 8.0 * math.pi / 3.0)}


class TestHalfSpectrum:
    """The half-spectrum norms agree with the full complex transform."""

    @pytest.mark.parametrize("p", [2.0, 3.0, math.inf, 1.8])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("vector", [False, True])
    def test_block_lp_norms_match_full_spectrum(self, p, n, vector):
        g = _HALF_GRIDS[n]
        c = build_cutoff(g)
        for seed in (0, 1):
            f = _white_noise(g, n if vector else 1, seed)
            want = _full_spectrum_block_lp_norms(f, c, p)
            got = block_lp_norms(f, p)
            assert np.max(np.abs(got - want) / want) <= 1e-13

    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize("n", [2, 3])
    def test_block_lp_norms_read_the_real_part_of_any_field(self, p, n):
        # only the last-axis planes 0 and N/2 can be non-Hermitian; the full
        # transform keeps the real part, and block_lp_norms reads exactly that
        g = _HALF_GRIDS[n]
        rng = np.random.default_rng(5)
        shape = (n,) + g.half_shape
        coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        f = SpectralField(g, coeffs).with_zero_mean()
        assert f.hermitian_defect() > 1.0
        c = build_cutoff(g)
        want = _full_spectrum_block_lp_norms(f, c, p)
        assert np.max(np.abs(block_lp_norms(f, p) - want) / want) <= 1e-13

    def test_p2_runs_no_transform(self, monkeypatch):
        g = _grid2()
        f = _white_noise(g, 2, 3)
        stack = np.stack([f.coeffs, 2.0 * f.coeffs])
        indices = (BesovIndex(0.5, 2.0, 1.0), BesovIndex(-0.25, 2.0, math.inf))
        want_blocks = block_lp_norms(f, 2.0)
        want_norms = besov_norms(g, stack, indices)
        weights = np.array([[1.0, 0.0], [0.0, 1.0]])
        want_factored = besov_norms(g, stack, indices, weights)

        def no_transform(*args, **kwargs):
            raise AssertionError("p = 2 block norms ran an FFT")

        for name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
                     "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft"):
            monkeypatch.setattr(np.fft, name, no_transform)
        assert np.array_equal(block_lp_norms(f, 2.0), want_blocks)
        assert np.array_equal(besov_norms(g, stack, indices), want_norms)
        assert np.array_equal(besov_norms(g, stack, indices, weights), want_factored)
