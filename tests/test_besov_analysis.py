"""Dyadic decomposition layer: partition of unity, block norms, scale counting."""

import math

import numpy as np
import pytest

from gnslab import (
    BesovIndex,
    ConfigurationError,
    Grid,
    ParameterError,
    SpectralField,
    besov_norm,
    besov_norms,
    block_lp_norms,
    build_cutoff,
    chi,
    difference_norm,
    dilate,
    dyadic_block,
    norm_record,
    partition_sum,
    phi_profile,
    random_field,
    reconstruct,
)

TWO_PI = 2.0 * math.pi


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


class TestBlocks:
    def test_single_mode_lands_in_one_block(self):
        g = _grid2()
        f = _shear(g, 3)  # |k| = 3 sits where phi(3/2) = 1
        c = build_cutoff(g)
        norms = block_lp_norms(f, c, 2.0)
        assert norms.shape == (c.block_count,)
        assert norms[0] == pytest.approx(f.l2_norm(), rel=1e-12)
        assert np.all(norms[1:] < 1e-12)

    def test_block_lp_matches_blockwise_evaluation(self):
        g = _grid2()
        c = build_cutoff(g)
        f = random_field(g, c, np.random.default_rng(2), ncomp=2)
        norms = block_lp_norms(f, c, 3.0)
        for i, q in enumerate(range(c.q_min, c.q_max + 1)):
            assert norms[i] == pytest.approx(dyadic_block(f, q, c).lp_norm(3.0), rel=1e-12)

    def test_reconstruction_is_identity_on_band(self):
        g = _grid2()
        c = build_cutoff(g)
        f = random_field(g, c, np.random.default_rng(8), ncomp=2)
        back = reconstruct(f, c)
        scale = 1.0 + np.max(np.abs(f.coeffs))
        assert np.max(np.abs(back.coeffs - f.coeffs)) / scale < 1e-10


class TestBesovNorm:
    def test_single_block_closed_form(self):
        # one active block at scale q: the norm collapses to 2^(q s) ||f||_p
        g = _grid2()
        c = build_cutoff(g)
        f = _shear(g, 3)
        for s, p, r in ((0.5, 2.0, 1.0), (-1.0, 2.0, 2.0), (0.25, 3.0, math.inf)):
            got = besov_norm(f, BesovIndex(s, p, r), c)
            want = 2.0**s * f.lp_norm(p)
            assert got == pytest.approx(want, rel=1e-12)

    def test_homogeneous_in_amplitude(self):
        g = _grid2()
        c = build_cutoff(g)
        f = random_field(g, c, np.random.default_rng(1))
        idx = BesovIndex(0.3, 2.5, 1.5)
        assert besov_norm(3.0 * f, idx, c) == pytest.approx(3.0 * besov_norm(f, idx, c), rel=1e-12)

    def test_summability_ordering(self):
        # weaker summability never increases the norm
        g = _grid2()
        c = build_cutoff(g)
        f = random_field(g, c, np.random.default_rng(12), ncomp=2)
        norms = [besov_norm(f, BesovIndex(0.5, 2.0, r), c) for r in (1.0, 2.0, math.inf)]
        assert norms[0] >= norms[1] >= norms[2]

    def test_dilation_carries_the_scaling_exponent(self):
        g = Grid(2, 64, 2.0 * TWO_PI)
        f = _shear(g, 3)
        s, p, r = 0.5, 2.0, 1.0
        base = besov_norm(f, BesovIndex(s, p, r), build_cutoff(g))
        half = dilate(f, 1)
        scaled = besov_norm(half, BesovIndex(s, p, r), build_cutoff(half.grid))
        assert scaled / base == pytest.approx(2.0 ** (s - g.n / p), rel=1e-12)

    def test_mean_part_rejected(self):
        g = _grid2()
        f = SpectralField.from_physical(g, np.full(g.shape, 1.0))
        with pytest.raises(ParameterError):
            besov_norm(f, BesovIndex(0.5, 2.0, 2.0), build_cutoff(g))

    def test_zero_field_is_zero(self):
        g = _grid2()
        assert besov_norm(SpectralField.zeros(g), BesovIndex(0.5, 2.0, 1.0), build_cutoff(g)) == 0.0

    def test_multipliers_built_once_and_read_only(self):
        c = build_cutoff(_grid2())
        mults = c.block_multipliers()
        assert c.block_multipliers() is mults
        assert mults.shape == (c.block_count,) + c.grid.shape
        with pytest.raises(ValueError):
            mults[0, 0, 0] = 1.0

    def test_index_validation(self):
        with pytest.raises(ParameterError):
            BesovIndex(0.0, 0.5, 2.0)
        with pytest.raises(ParameterError):
            BesovIndex(0.0, 2.0, 0.5)


class TestDifferenceCharacterization:
    def test_comparable_to_block_norm(self):
        # the shift estimator agrees with the block sum up to a fixed constant
        g = _grid2()
        c = build_cutoff(g)
        idx = BesovIndex(0.5, 2.0, 2.0)
        for seed in (0, 1, 2, 3):
            f = random_field(g, c, np.random.default_rng(seed))
            ratio = difference_norm(f, idx, 1, rng=7) / besov_norm(f, idx, c)
            assert 2.0 < ratio < 8.0

    def test_order_must_dominate_smoothness(self):
        g = _grid2()
        f = random_field(g, build_cutoff(g), np.random.default_rng(0))
        with pytest.raises(ParameterError):
            difference_norm(f, BesovIndex(1.5, 2.0, 2.0), 1)

    def test_sample_floor_enforced(self):
        g = _grid2()
        f = random_field(g, build_cutoff(g), np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            difference_norm(f, BesovIndex(0.5, 2.0, 2.0), 1, shift_samples=10)


def test_norm_record_shape():
    g = _grid2()
    c = build_cutoff(g)
    rec = norm_record("probe", BesovIndex(0.5, 2.0, math.inf), c, 1.25)
    assert rec == {
        "field_id": "probe",
        "s": 0.5,
        "p": 2.0,
        "r": math.inf,
        "q_min": 1,
        "q_max": 3,
        "value": 1.25,
    }


def _reference_norm(field, index, cutoff):
    """The per-node Besov arithmetic spelled out on the block L^p norms."""
    norms = block_lp_norms(field, cutoff, index.p)
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

    def _stack(self, g, c, nodes=5, ncomp=2):
        rng = np.random.default_rng(31)
        return np.stack([random_field(g, c, rng, ncomp=ncomp).coeffs for _ in range(nodes)])

    @pytest.mark.parametrize("ncomp", [1, 2])
    def test_rows_equal_per_node_norms_exactly(self, ncomp):
        g = _grid2()
        c = build_cutoff(g)
        stack = self._stack(g, c, ncomp=ncomp)
        got = besov_norms(g, stack, self.INDICES, c)
        assert got.shape == (len(stack), len(self.INDICES))
        for j, coeffs in enumerate(stack):
            f = SpectralField(g, coeffs)
            for i, index in enumerate(self.INDICES):
                assert got[j, i] == besov_norm(f, index, c)
                assert got[j, i] == _reference_norm(f, index, c)

    def test_iterable_of_nodes_matches_array(self):
        g = _grid2()
        c = build_cutoff(g)
        stack = self._stack(g, c, nodes=3)
        want = besov_norms(g, stack, self.INDICES, c)
        got = besov_norms(g, (coeffs for coeffs in stack), self.INDICES, c)
        assert np.array_equal(got, want)

    def test_node_with_mean_rejected(self):
        g = _grid2()
        c = build_cutoff(g)
        stack = self._stack(g, c, nodes=3)
        stack[1][(slice(None), 0, 0)] = 1.0
        with pytest.raises(ParameterError):
            besov_norms(g, stack, self.INDICES, c)

    def test_cutoff_of_another_grid_rejected(self):
        g = _grid2()
        stack = self._stack(g, build_cutoff(g), nodes=2)
        with pytest.raises(ParameterError):
            besov_norms(g, stack, self.INDICES, build_cutoff(Grid(2, 64, 2.0 * TWO_PI)))

    def test_empty_stack(self):
        g = _grid2()
        got = besov_norms(g, np.zeros((0, 2) + g.shape, complex), self.INDICES, build_cutoff(g))
        assert got.shape == (0, len(self.INDICES))
