"""Power-law map and convection: closed forms, dealiasing, increment bounds."""

import math
import tracemalloc

import numpy as np
import pytest

from gnslab import nonlinearity
from gnslab import (
    Grid,
    ParameterError,
    PowerLaw,
    ShapeError,
    SpectralField,
    apply_power,
    convective_term,
    divergence_convection,
    leray_project,
    pointwise_difference_bound,
    power_values,
)
from gnslab.nonlinearity import step_convection
from gnslab.spectral_core import field_from_fine_physical, refine_physical

TWO_PI = 2.0 * math.pi


def _taylor_green(grid):
    x = grid.axis_coordinates()
    u1 = np.sin(x)[:, None] * np.cos(x)[None, :]
    u2 = -np.cos(x)[:, None] * np.sin(x)[None, :]
    return SpectralField.from_physical(grid, np.stack([np.broadcast_to(u1, grid.shape),
                                                       np.broadcast_to(u2, grid.shape)]))


class TestPowerLaw:
    def test_validation(self):
        with pytest.raises(ParameterError):
            PowerLaw(0.0)
        with pytest.raises(ParameterError):
            PowerLaw(math.inf)
        with pytest.raises(ParameterError):
            PowerLaw(2.0, dealias_factor=5)

    @pytest.mark.parametrize("factor", [2.0, True, np.int64(2), "2"])
    def test_dealias_factor_must_be_an_int(self, factor):
        with pytest.raises(ParameterError, match="dealias_factor"):
            PowerLaw(1.5, dealias_factor=factor)


class TestPowerValues:
    def test_identity_exponent_copies(self):
        vals = np.random.default_rng(0).standard_normal((2, 8, 8))
        out = power_values(vals, 1.0)
        assert np.array_equal(out, vals)
        assert out is not vals

    def test_quadratic_exponent_known_vector(self):
        # |u| u at u = (3, 4): magnitude 5, so (15, 20)
        out = power_values(np.array([[3.0], [4.0]]), 2.0)
        assert np.allclose(out[:, 0], [15.0, 20.0])

    def test_zero_maps_to_zero_without_nan(self):
        out = power_values(np.zeros((2, 4)), 0.5)
        assert np.all(out == 0.0)
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
    def test_unguarded_power_keeps_the_guarded_bytes(self, m):
        # for m > 1, 0^(m - 1) = 0, so the magnitude needs no zero guard;
        # at m = 2 it scales the values itself
        vals = np.random.default_rng(5).standard_normal((3, 6, 6, 6))
        vals[:, :2] = 0.0
        mag = np.sqrt(np.square(vals[0]) + np.square(vals[1]) + np.square(vals[2]))
        with np.errstate(divide="ignore", invalid="ignore"):
            want = vals * np.where(mag > 0.0, mag ** (m - 1.0), 0.0)
        got = power_values(vals.copy(), m)
        assert got.tobytes() == want.tobytes()
        assert np.all(got[:, :2] == 0.0)


class TestApplyPower:
    def test_identity_short_circuit(self):
        g = Grid(2, 32, TWO_PI)
        u = _taylor_green(g)
        out = apply_power(u, PowerLaw(1.0))
        assert np.array_equal(out.coeffs, u.coeffs)

    def test_cubic_single_mode_closed_form(self):
        # scalar cos(2x): cube is (3 cos(2x) + cos(6x)) / 4, exactly dealiased
        g = Grid(2, 32, TWO_PI)
        x = g.axis_coordinates()
        u = SpectralField.from_physical(g, np.broadcast_to(np.cos(2 * x)[:, None], g.shape))
        out = apply_power(u, PowerLaw(3.0))
        want = (3.0 * np.cos(2 * x)[:, None] + np.cos(6 * x)[:, None]) / 4.0
        assert np.max(np.abs(out.to_physical()[0] - want)) < 1e-13

    def test_refinement_factor_agreement_near_nyquist(self):
        # cubing mode 12 on N=32 pushes content to 36; every refinement
        # factor must agree after truncation back to the coarse lattice
        g = Grid(2, 32, TWO_PI)
        x = g.axis_coordinates()
        u = SpectralField.from_physical(g, np.broadcast_to(np.cos(12 * x)[:, None], g.shape))
        out2 = apply_power(u, PowerLaw(3.0, dealias_factor=2))
        out3 = apply_power(u, PowerLaw(3.0, dealias_factor=3))
        assert np.max(np.abs(out2.coeffs - out3.coeffs)) < 1e-13
        want = 0.75 * np.cos(12 * x)[:, None]
        assert np.max(np.abs(out2.to_physical()[0] - want)) < 1e-13

    def test_complex_field_rejected(self):
        g = Grid(2, 32, TWO_PI)
        f = SpectralField.zeros(g)
        f.coeffs[0, 3, 0] = 1.0  # no conjugate partner
        with pytest.raises(ParameterError):
            apply_power(f, PowerLaw(2.0))


class TestConvectiveTerm:
    def test_taylor_green_closed_form(self):
        # u.grad u for the cellular flow is (sin(2x)/2, sin(2y)/2)
        g = Grid(2, 64, TWO_PI)
        u = _taylor_green(g)
        conv = convective_term(u, u, PowerLaw(1.0))
        x = g.axis_coordinates()
        want = np.stack([
            np.broadcast_to(0.5 * np.sin(2 * x)[:, None], g.shape),
            np.broadcast_to(0.5 * np.sin(2 * x)[None, :], g.shape),
        ])
        assert np.max(np.abs(conv.to_physical() - want)) < 1e-12

    def test_constant_transport_is_zero(self):
        g = Grid(2, 32, TWO_PI)
        u = _taylor_green(g)
        v = SpectralField.from_physical(g, np.ones((2,) + g.shape))
        conv = convective_term(u, v, PowerLaw(2.0))
        assert np.max(np.abs(conv.coeffs)) < 1e-13

    def test_zero_velocity_transports_nothing(self):
        g = Grid(2, 32, TWO_PI)
        conv = convective_term(SpectralField.zeros(g, 2), _taylor_green(g), PowerLaw(2.0))
        assert np.max(np.abs(conv.coeffs)) < 1e-14

    def test_scalar_velocity_rejected(self):
        g = Grid(2, 32, TWO_PI)
        with pytest.raises(ShapeError):
            convective_term(SpectralField.zeros(g, 1), _taylor_green(g), PowerLaw(1.0))

    def test_exponent_must_match_outside(self):
        # the map is m-homogeneous: scaling u by c scales J_m(u) by c^m
        g = Grid(2, 32, TWO_PI)
        u = _taylor_green(g)
        v = _taylor_green(g)
        power = PowerLaw(2.0)
        base = convective_term(u, v, power)
        doubled = convective_term(2.0 * u, v, power)
        assert np.max(np.abs(doubled.coeffs - 4.0 * base.coeffs)) < 1e-11

    def test_non_real_field_rejected(self):
        # the reality check runs once when u and v are the same object,
        # and for each of them when they differ
        g = Grid(2, 32, TWO_PI)
        bad = _taylor_green(g)
        bad.coeffs[0, 3, 0] += 1.0  # no conjugate partner
        real = _taylor_green(g)
        power = PowerLaw(1.0)
        for u, v in ((bad, bad), (real, bad), (bad, real)):
            with pytest.raises(ParameterError):
                convective_term(u, v, power)


def _solenoidal_noise(grid, seed):
    """Projected white noise with every Nyquist plane zeroed."""
    rng = np.random.default_rng(seed)
    u = leray_project(SpectralField.from_physical(grid, rng.standard_normal((grid.n,) + grid.shape)))
    for axis in range(1, grid.n + 1):
        u.coeffs[(slice(None),) * axis + (grid.N // 2,)] = 0.0
    return u


def _batched_convection(u, v, power):
    """convective_term as formed before the loop streamed the product: J_m(u)
    through a vector-sized temporary, all n partials of v_i refined together,
    the sums kept in one (c, fine) stack and the stack truncated once."""
    grid = u.grid
    M = power.fine_points(grid.N)
    fine = refine_physical(u, M)
    if power.m == 1.0:
        adv = fine
    else:
        mag = np.sqrt(np.sum(fine**2, axis=0))
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = np.where(mag > 0.0, mag ** (power.m - 1.0), 0.0)
        adv = factor[None] * fine
    out = np.empty((v.ncomp,) + adv.shape[1:])
    for i in range(v.ncomp):
        partials = np.stack([v.coeffs[i] * (1j * grid.k_derivative(k)) for k in range(grid.n)])
        grad = refine_physical(SpectralField(grid, partials), M)
        np.multiply(adv[0], grad[0], out=out[i])
        for k in range(1, grid.n):
            out[i] += adv[k] * grad[k]
    return field_from_fine_physical(grid, out, M)


class TestAdvectiveLoop:
    """convective_term and step_convection share one fine-grid loop."""

    def test_convection_peaks_under_two_and_a_half_fine_fields(self):
        # 3-D N = 32, m = 2 peaks at 2.2 fine vector fields: the advecting
        # field, one refined partial and one accumulator; refining all n
        # partials of a component together and truncating once took 4.2
        grid = Grid(3, 32, 8.0 * math.pi / 3.0)
        u = _solenoidal_noise(grid, 2)
        power = PowerLaw(2.0)
        fine_bytes = grid.n * power.fine_points(grid.N) ** grid.n * 8
        convective_term(u, u, power)  # any per-grid tables are built outside the trace
        tracemalloc.start()
        try:
            convective_term(u, u, power)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * fine_bytes

    @pytest.mark.parametrize("n, N, m", [(3, 32, 2.0), (3, 32, 1.5), (2, 64, 1.5)],
                             ids=["3d-m2", "3d-m1.5", "2d-m1.5"])
    def test_streamed_bytes_equal_the_batched_form(self, n, N, m):
        grid = Grid(n, N, 8.0 * math.pi / 3.0)
        u, v = _solenoidal_noise(grid, 5), _solenoidal_noise(grid, 6)
        power = PowerLaw(m)
        got = convective_term(u, v, power).coeffs
        assert got.tobytes() == _batched_convection(u, v, power).coeffs.tobytes()

    @pytest.mark.parametrize("n, N", [(2, 32), (3, 16)], ids=["2d", "3d"])
    @pytest.mark.parametrize("m", [1.0, 1.5])
    def test_one_node_step_equals_convective_term(self, n, N, m):
        grid = Grid(n, N, TWO_PI)
        u, v = _solenoidal_noise(grid, 3), _solenoidal_noise(grid, 4)
        power = PowerLaw(m)
        one = np.ones((1, 1))
        (got,) = step_convection(grid, power, (one, u.coeffs[None]), (one, v.coeffs[None]))
        want = convective_term(u, v, power).with_zero_mean().coeffs
        assert got.tobytes() == want.tobytes()


class TestDivergenceConvection:
    @pytest.mark.parametrize("n, N", [(2, 64), (3, 32)], ids=["2d", "3d"])
    def test_matches_advective_form_off_the_nyquist_planes(self, n, N):
        # the k' rule is not additive at the Nyquist index, so the forms agree
        # only off the output's Nyquist planes, where products of two
        # Nyquist-free fields still land
        grid = Grid(n, N, 8.0 * math.pi / 3.0)
        u = _solenoidal_noise(grid, n)
        got = divergence_convection(u).coeffs
        want = convective_term(u, u, PowerLaw(1.0)).coeffs
        for axis in range(1, n + 1):
            got[(slice(None),) * axis + (N // 2,)] = 0.0
            want[(slice(None),) * axis + (N // 2,)] = 0.0
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_taylor_green_closed_form(self):
        g = Grid(2, 64, TWO_PI)
        conv = divergence_convection(_taylor_green(g))
        x = g.axis_coordinates()
        want = np.stack([
            np.broadcast_to(0.5 * np.sin(2 * x)[:, None], g.shape),
            np.broadcast_to(0.5 * np.sin(2 * x)[None, :], g.shape),
        ])
        assert np.max(np.abs(conv.to_physical() - want)) < 1e-12

    def test_one_refinement_and_one_truncation(self, monkeypatch):
        calls = []
        refine, truncate = nonlinearity.refine_physical, nonlinearity.truncate_fine_physical

        def spy_refine(field, M):
            calls.append(("refine", field.ncomp, M))
            return refine(field, M)

        def spy_truncate(grid, values, M):
            calls.append(("truncate", values.shape[0], M))
            return truncate(grid, values, M)

        monkeypatch.setattr(nonlinearity, "refine_physical", spy_refine)
        monkeypatch.setattr(nonlinearity, "truncate_fine_physical", spy_truncate)
        divergence_convection(_solenoidal_noise(Grid(3, 16, TWO_PI), 1))
        # u refined once on the 3/2-rule grid, its six products truncated together
        assert calls == [("refine", 3, 25), ("truncate", 6, 25)]

    def test_rejects_scalar_and_non_real_fields(self):
        g = Grid(2, 32, TWO_PI)
        with pytest.raises(ShapeError):
            divergence_convection(SpectralField.zeros(g, 1))
        bad = _taylor_green(g)
        bad.coeffs[0, 3, 0] += 1.0  # no conjugate partner
        with pytest.raises(ParameterError):
            divergence_convection(bad)


class TestIncrementBound:
    def test_equal_arguments_vanish(self):
        lhs, rhs, ok = pointwise_difference_bound([1.0, 2.0], [1.0, 2.0], 2.0)
        assert lhs == 0.0
        assert ok

    def test_superlinear_branch_known_values(self):
        # scalars a=3, b=1 at m=2: lhs = |9 - 1| = 8, rhs = 2 (3 + 1) 2 = 16
        lhs, rhs, ok = pointwise_difference_bound([3.0], [1.0], 2.0)
        assert lhs == pytest.approx(8.0)
        assert rhs == pytest.approx(16.0)
        assert ok

    def test_sublinear_branch_known_values(self):
        # m = 1/2: rhs = 6 |a - b|^(1/2)
        lhs, rhs, ok = pointwise_difference_bound([4.0], [0.0], 0.5)
        assert lhs == pytest.approx(2.0)
        assert rhs == pytest.approx(12.0)
        assert ok

    def test_bound_holds_on_random_batch(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((500, 3))
        b = rng.standard_normal((500, 3))
        for m in (0.3, 0.5, 1.0, 1.5, 2.0, 3.0):
            _, _, ok = pointwise_difference_bound(a, b, m)
            assert np.all(ok)

    def test_validation(self):
        with pytest.raises(ParameterError):
            pointwise_difference_bound([1.0], [1.0], 0.0)
        with pytest.raises(ShapeError):
            pointwise_difference_bound([1.0, 2.0], [1.0], 2.0)
