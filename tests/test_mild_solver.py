"""Fixed-point solver: exact linear pieces, gate arithmetic, iteration control."""

import dataclasses
import math

import numpy as np
import pytest

from gnslab import (
    BesovIndex,
    BlowupError,
    ConfigurationError,
    DivergenceError,
    GateError,
    Grid,
    LorentzIndex,
    ParameterError,
    PowerLaw,
    ShapeError,
    SolverConfig,
    SolverConstants,
    SpectralField,
    TimeSamples,
    Trajectory,
    besov_norm,
    build_cutoff,
    check_hypotheses,
    convective_term,
    duhamel_apply,
    estimate_solver_constants,
    leray_project,
    linear_part,
    lorentz_norm,
    phi_map,
    picard_solve,
    pressure_recover,
    random_field,
    read_field,
    record_norms,
    residual_check,
    smallness_gate,
    solution_norm,
    write_norm_csv,
)
from gnslab import mild_solver
from gnslab.mild_solver import _forcing_coeffs, forcing_weak_norm

TWO_PI = 2.0 * math.pi

H0_DESK = dict(m=1.0, n=2, p=2.0, rho=3.0, alpha=1.0)
H2_DESK = dict(m=2.0, n=2, p=3.0, rho=4.5, alpha=1.0)
UNIT_CONSTANTS = SolverConstants(1.0, 1.0, 1.0)


def _taylor_green(grid, amplitude=1.0):
    x = grid.axis_coordinates()
    u1 = np.sin(x)[:, None] * np.cos(x)[None, :]
    u2 = -np.cos(x)[:, None] * np.sin(x)[None, :]
    return SpectralField.from_physical(
        grid, amplitude * np.stack([np.broadcast_to(u1, grid.shape),
                                    np.broadcast_to(u2, grid.shape)])
    )


def _shear(grid, wavenumber=3, amplitude=1.0):
    x = grid.axis_coordinates()
    k = wavenumber * grid.k0
    vals = amplitude * np.stack([
        np.broadcast_to(np.cos(k * x)[None, :], grid.shape),
        np.broadcast_to(np.cos(k * x)[:, None], grid.shape),
    ])
    return SpectralField.from_physical(grid, vals)


def _residual_reference(traj, a, f, cfg):
    """The residual spelled out node by node: convection formed afresh,
    one besov_norm per node, a running max, then the data scale."""
    h = cfg.hypothesis
    grid = cfg.grid
    cutoff = build_cutoff(grid)
    f_stack = _forcing_coeffs(f, cfg)
    symbol = grid.k_abs ** (2.0 * h.alpha)
    weak = BesovIndex(h.s_tilde, h.p, float("inf"))
    worst = 0.0
    for j in range(1, traj.node_count - 1):
        dt = traj.times[j + 1] - traj.times[j]
        fd = (traj.u[j + 1] - traj.u[j]) / dt
        uj = traj.field_at(j)
        conv = convective_term(uj, uj, cfg.power)
        res = fd + symbol[None] * traj.u[j] + conv.coeffs + traj.grad_pi[j]
        if f_stack is not None:
            res = res - f_stack[j]
        res[(slice(None),) + (0,) * grid.n] = 0.0
        worst = max(worst, besov_norm(SpectralField(grid, res), weak, cutoff))
    scale = besov_norm(a, BesovIndex(h.s0, h.p0, h.r), cutoff) + forcing_weak_norm(f_stack, cfg)
    return worst / scale if scale > 0.0 else worst


def _tg_config(N=64, horizon=1e-3, nodes=16, **kw):
    grid = Grid(2, N, 2.0 * TWO_PI)
    h = check_hypotheses(**H0_DESK)
    defaults = dict(constants=UNIT_CONSTANTS)
    defaults.update(kw)
    return SolverConfig(h, grid, horizon, nodes, **defaults)


class TestConfig:
    def test_rejects_small_integrability(self):
        grid = Grid(2, 64, TWO_PI)
        h = check_hypotheses(m=1.0, n=2, p=1.5, rho=4.0, alpha=1.0)
        with pytest.raises(ParameterError):
            SolverConfig(h, grid, 0.1, 8)

    def test_rejects_power_mismatch(self):
        grid = Grid(2, 64, TWO_PI)
        h = check_hypotheses(**H2_DESK)
        with pytest.raises(ConfigurationError):
            SolverConfig(h, grid, 0.1, 8, power=PowerLaw(3.0))

    def test_rejects_dimension_mismatch(self):
        grid = Grid(3, 32, TWO_PI)
        h = check_hypotheses(**H2_DESK)
        with pytest.raises(ParameterError):
            SolverConfig(h, grid, 0.1, 8)

    def test_constants_floor(self):
        with pytest.raises(ParameterError):
            SolverConstants(0.5, 1.0, 1.0)
        with pytest.raises(ParameterError):
            SolverConstants(1.0, 1.0, math.inf)

    @pytest.mark.parametrize("setting", [
        dict(horizon="1"), dict(horizon=True), dict(time_nodes=8.5), dict(time_nodes="8"),
        dict(tolerance=None), dict(max_iterations=2.5), dict(const_samples=True),
        dict(const_nodes=2), dict(const_seed=-1), dict(floor_factor=2.0),
        dict(floor_factor=0.0), dict(project_data=1), dict(gate_abort="false"),
    ])
    def test_scalar_settings_are_checked_at_construction(self, setting):
        args = dict(horizon=1e-3, time_nodes=16, constants=UNIT_CONSTANTS)
        args.update(setting)
        with pytest.raises(ParameterError, match=f"^{next(iter(setting))} must"):
            SolverConfig(check_hypotheses(**H0_DESK), Grid(2, 64, TWO_PI), **args)

    def test_setting_kinds_cover_the_scalar_fields(self):
        blocks = {"hypothesis", "grid", "power", "constants"}
        names = {f.name for f in dataclasses.fields(SolverConfig)} - blocks
        assert set(mild_solver.SETTING_KINDS) == names

    def test_constants_must_be_numbers(self):
        with pytest.raises(ParameterError, match="^k1 must be a real number"):
            SolverConstants(1.0, "2", 1.0)

    def test_time_ladder(self):
        cfg = _tg_config(horizon=2.0, nodes=9)
        t = cfg.times()
        assert t.shape == (9,)
        assert t[-1] == pytest.approx(2.0)
        assert t[0] == pytest.approx(2.0e-6)


class TestLinearPieces:
    def test_free_evolution_is_exact(self):
        # one Fourier mode decays by exp(-|k|^2 t) at every node
        grid = Grid(2, 64, TWO_PI)
        a = _shear(grid, wavenumber=3)
        h = check_hypotheses(**H0_DESK)
        cfg = SolverConfig(h, grid, 0.5, 8, constants=UNIT_CONSTANTS)
        traj = linear_part(a, cfg)
        for j, t in enumerate(cfg.times()):
            want = math.exp(-9.0 * t) * a.coeffs
            assert np.max(np.abs(traj.u[j] - want)) < 1e-14

    def test_forced_evolution_constant_source(self):
        # left-endpoint quadrature is exact for time-constant forcing:
        # each mode carries (1 - exp(-|k|^2 t)) / |k|^2
        grid = Grid(2, 64, TWO_PI)
        g = _shear(grid, wavenumber=3)
        h = check_hypotheses(**H0_DESK)
        cfg = SolverConfig(h, grid, 0.5, 12, constants=UNIT_CONSTANTS)
        stack = np.broadcast_to(g.coeffs, (12,) + g.coeffs.shape)
        traj = duhamel_apply(stack, cfg)
        for j, t in enumerate(cfg.times()):
            want = (1.0 - math.exp(-9.0 * t)) / 9.0 * g.coeffs
            assert np.max(np.abs(traj.u[j] - want)) < 1e-15

    def test_forced_evolution_mean_mode_stays_clean(self):
        # the |k| = 0 weight is the interval length, not (1 - e^0)/0; a
        # broken guard would turn the zero mode into NaN and poison the run
        grid = Grid(2, 64, TWO_PI)
        g = _shear(grid, wavenumber=3)
        h = check_hypotheses(**H0_DESK)
        cfg = SolverConfig(h, grid, 0.5, 8, constants=UNIT_CONSTANTS)
        stack = np.broadcast_to(g.coeffs, (8,) + g.coeffs.shape)
        traj = duhamel_apply(stack, cfg)
        assert np.all(np.isfinite(traj.u.real)) and np.all(np.isfinite(traj.u.imag))
        assert np.max(np.abs(traj.u[:, :, 0, 0])) < 1e-15

    def test_fixed_point_map_at_zero_is_linear_part(self):
        cfg = _tg_config(nodes=8)
        a = _taylor_green(cfg.grid)
        zero = Trajectory(cfg.grid, cfg.times(),
                          np.zeros((8, 2) + cfg.grid.shape, dtype=np.complex128))
        out = phi_map(zero, a, None, cfg)
        lin = linear_part(a, cfg)
        assert np.max(np.abs(out.u - lin.u)) < 1e-14


class TestSmallnessGate:
    def _setup(self):
        grid = Grid(2, 64, TWO_PI)
        h = check_hypotheses(**H2_DESK)
        cfg = SolverConfig(h, grid, 1e-5, 8, constants=UNIT_CONSTANTS)
        unit = _shear(grid, 3)
        cut = build_cutoff(grid)
        from gnslab import BesovIndex, besov_norm

        norm1 = besov_norm(unit, BesovIndex(h.s0, h.p0, h.r), cut)
        return grid, cfg, norm1

    def _gate(self, target_K0):
        grid, cfg, norm1 = self._setup()
        a = _shear(grid, 3, amplitude=target_K0 / norm1)
        return smallness_gate(a, None, cfg, UNIT_CONSTANTS)

    def test_open_case(self):
        diag = self._gate(0.01)
        assert diag.gate
        assert diag.eta == pytest.approx(1.0 / 16.0)
        # smaller root of x^2 - x + K0 = 0
        want = (1.0 - math.sqrt(1.0 - 0.04)) / 2.0
        assert diag.lambda1 == pytest.approx(want, abs=1e-9)
        roots = np.roots([1.0, -1.0, diag.K0])
        assert diag.lambda1 == pytest.approx(min(roots.real), abs=1e-12)

    def test_boundary_case_is_admitted(self):
        # walk the amplitude down a few ulp so the measured size lands on
        # the admissible side of the threshold, then demand inclusion
        grid, cfg, norm1 = self._setup()
        amp = (1.0 / 16.0) / norm1
        diag = None
        for _ in range(8):
            a = _shear(grid, 3, amplitude=amp)
            diag = smallness_gate(a, None, cfg, UNIT_CONSTANTS)
            if diag.K0 <= diag.eta:
                break
            amp = math.nextafter(amp, 0.0)
        assert abs(diag.K0 - 1.0 / 16.0) < 1e-12
        assert diag.gate
        want = (1.0 - math.sqrt(0.75)) / 2.0
        assert diag.lambda1 == pytest.approx(want, abs=1e-9)

    def test_oversized_data_fails_closed(self):
        diag = self._gate(0.30)
        assert not diag.gate
        assert diag.lambda1 is None
        assert "discriminant negative" in diag.gate_reason

    def test_nan_data_fails_closed(self):
        grid, cfg, _ = self._setup()
        a = _shear(grid, 3, amplitude=1e-3)
        a.coeffs[0, 3, 0] = np.nan
        diag = smallness_gate(a, None, cfg, UNIT_CONSTANTS)
        assert not diag.gate
        assert diag.lambda1 is None
        assert "not finite" in diag.gate_reason

    def test_nan_data_aborts_solve_when_asked(self):
        # projection lets the NaN datum past the divergence check, so only
        # the gate stands between it and the iteration
        grid = Grid(2, 64, TWO_PI)
        h = check_hypotheses(**H2_DESK)
        cfg = SolverConfig(h, grid, 1e-5, 8, constants=UNIT_CONSTANTS,
                           project_data=True, gate_abort=True)
        a = _shear(grid, 3, amplitude=1e-3)
        a.coeffs[0, 3, 0] = np.nan
        with pytest.raises(GateError):
            picard_solve(a, None, cfg)

    def test_document_round_trips_to_json(self):
        import json

        diag = self._gate(0.01)
        doc = diag.document()
        assert json.loads(json.dumps(doc))["gate"] is True


class TestPicardIteration:
    def test_cellular_flow_needs_one_correction(self):
        # nonlinearity is a pure gradient, so the first iterate is exact
        cfg = _tg_config()
        a = _taylor_green(cfg.grid)
        traj, diag = picard_solve(a, None, cfg)
        assert diag.converged
        assert diag.iterations <= 2
        assert traj.divergence_defect() < 1e-12

    def test_cellular_flow_decay_is_exact(self):
        cfg = _tg_config()
        a = _taylor_green(cfg.grid)
        traj, _ = picard_solve(a, None, cfg)
        x = cfg.grid.axis_coordinates()
        u1 = np.sin(x)[:, None] * np.cos(x)[None, :]
        u2 = -np.cos(x)[:, None] * np.sin(x)[None, :]
        base = np.stack([np.broadcast_to(u1, cfg.grid.shape),
                         np.broadcast_to(u2, cfg.grid.shape)])
        for j, t in enumerate(cfg.times()):
            got = traj.field_at(j).to_physical()
            assert np.max(np.abs(got - math.exp(-2.0 * t) * base)) < 1e-10

    def test_zero_data_zero_forcing_returns_rest(self):
        cfg = _tg_config(nodes=8)
        a = SpectralField.zeros(cfg.grid, ncomp=2)
        traj, diag = picard_solve(a, None, cfg)
        assert diag.converged
        assert np.max(np.abs(traj.u)) == 0.0
        assert diag.solution_norm == 0.0

    def test_supplied_start_agrees_with_default(self):
        cfg = _tg_config(nodes=8)
        a = _taylor_green(cfg.grid)
        traj_a, _ = picard_solve(a, None, cfg)
        zero = Trajectory(cfg.grid, cfg.times(),
                          np.zeros((8, 2) + cfg.grid.shape, dtype=np.complex128))
        traj_b, _ = picard_solve(a, None, cfg, start=zero)
        assert np.max(np.abs(traj_a.u - traj_b.u)) < 1e-13

    @staticmethod
    def _forced_case(forced=True):
        """A 2-D m = 1.5 solve whose convection is not a gradient."""
        grid = Grid(2, 64, 2.0 * TWO_PI)
        h = check_hypotheses(m=1.5, n=2, p=3.0, rho=4.75, alpha=1.0)
        cfg = SolverConfig(h, grid, 1e-3, 12, constants=UNIT_CONSTANTS, tolerance=1e-13)
        rng = np.random.default_rng(3)
        cutoff = build_cutoff(grid)
        a = random_field(grid, cutoff, rng, ncomp=2, solenoidal=True) * 1e-2
        f = random_field(grid, cutoff, rng, ncomp=2) * 1e-2 if forced else None
        return a, f, cfg

    def test_default_start_convects_no_zero_iterate(self, monkeypatch):
        a, f, cfg = self._forced_case()
        calls = []

        def counting(u, v, power):
            calls.append(None)
            return convective_term(u, v, power)

        monkeypatch.setattr(mild_solver, "convective_term", counting)
        _, diag = picard_solve(a, f, cfg)
        assert diag.iterations >= 2
        assert len(calls) == diag.iterations * cfg.time_nodes

    @pytest.mark.parametrize("forced", [True, False])
    def test_default_start_is_phi_of_the_zero_iterate(self, forced):
        a, f, cfg = self._forced_case(forced)
        traj_a, diag_a = picard_solve(a, f, cfg)
        zero = Trajectory(cfg.grid, cfg.times(), np.zeros_like(traj_a.u))
        traj_b, diag_b = picard_solve(a, f, cfg, start=phi_map(zero, a, f, cfg))
        assert traj_a.u.tobytes() == traj_b.u.tobytes()
        assert diag_a.d_history == diag_b.d_history
        assert diag_a.d_history[0] > 0.0

    def test_convected_nyquist_content_stays_real(self):
        # J_m(u) with m = 1.5 is not a polynomial, so its first convection
        # fills the lattice up to index N/2; the projection of that plane
        # must stay real or the next convection rejects the iterate
        grid = Grid(2, 64, 2.0 * TWO_PI)
        h = check_hypotheses(m=1.5, n=2, p=3.0, rho=4.75, alpha=1.0)
        cfg = SolverConfig(h, grid, 1e-2, 12, constants=UNIT_CONSTANTS)
        rng = np.random.default_rng(3)
        cutoff = build_cutoff(grid)
        a = random_field(grid, cutoff, rng, ncomp=2, solenoidal=True) * 0.1
        f = random_field(grid, cutoff, rng, ncomp=2, solenoidal=True) * 0.1
        traj, diag = picard_solve(a, f, cfg)
        assert diag.converged
        assert traj.divergence_defect() < 1e-12
        assert max(traj.field_at(j).hermitian_defect() for j in range(traj.node_count)) < 1e-13

    def test_budget_exhaustion_raises(self):
        cfg = _tg_config(nodes=8, tolerance=1e-30, max_iterations=1)
        a = _taylor_green(cfg.grid)
        with pytest.raises(DivergenceError) as err:
            picard_solve(a, None, cfg)
        assert len(err.value.d_history) == 1

    def test_overflow_raises_blowup(self):
        grid = Grid(2, 64, TWO_PI)
        h = check_hypotheses(**H2_DESK)
        cfg = SolverConfig(h, grid, 1.0, 8, constants=UNIT_CONSTANTS)
        a = _shear(grid, 3, amplitude=1e160)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BlowupError):
                picard_solve(a, None, cfg)

    def test_gate_abort_mode(self):
        grid = Grid(2, 64, TWO_PI)
        h = check_hypotheses(**H2_DESK)
        cfg = SolverConfig(h, grid, 1e-4, 8, constants=UNIT_CONSTANTS, gate_abort=True)
        a = _shear(grid, 3, amplitude=10.0)
        with pytest.raises(GateError) as err:
            picard_solve(a, None, cfg)
        assert not err.value.diagnostics.gate

    def test_rough_data_needs_projection_flag(self):
        cfg = _tg_config(nodes=8)
        x = cfg.grid.axis_coordinates()
        vals = np.stack([np.broadcast_to(np.cos(x)[:, None], cfg.grid.shape),
                         np.broadcast_to(np.cos(x)[:, None], cfg.grid.shape)])
        bad = SpectralField.from_physical(cfg.grid, vals)  # div != 0
        with pytest.raises(ParameterError):
            picard_solve(bad, None, cfg)
        cfg2 = _tg_config(nodes=8, project_data=True)
        traj, _ = picard_solve(bad, None, cfg2)
        assert traj.divergence_defect() < 1e-12


class TestPressureAndResidual:
    def test_pressure_balances_transport(self):
        # for the cellular flow the projector removes everything, so the
        # pressure gradient is exactly minus the transport term
        cfg = _tg_config()
        a = _taylor_green(cfg.grid)
        traj, _ = picard_solve(a, None, cfg)
        traj = pressure_recover(traj, None, cfg)
        power = PowerLaw(1.0)
        for j in (0, traj.node_count - 1):
            u_j = traj.field_at(j)
            conv = convective_term(u_j, u_j, power)
            got = traj.pressure_at(j)
            assert np.max(np.abs(got.coeffs + conv.coeffs)) < 1e-12

    def test_pressure_gradient_is_curl_free(self):
        cfg = _tg_config()
        a = _taylor_green(cfg.grid)
        traj, _ = picard_solve(a, None, cfg)
        traj = pressure_recover(traj, None, cfg)
        for j in (0, traj.node_count - 1):
            gp = traj.pressure_at(j)
            assert np.max(np.abs(leray_project(gp).coeffs)) < 1e-13

    def test_residual_small_on_converged_run(self):
        cfg = _tg_config()
        a = _taylor_green(cfg.grid)
        traj, _ = picard_solve(a, None, cfg)
        traj = pressure_recover(traj, None, cfg)
        res = residual_check(traj, a, None, cfg)
        # first-order hold quadrature at 16 nodes
        assert res < 1e-3

    def test_residual_needs_three_nodes(self):
        cfg = _tg_config(nodes=2)
        a = _taylor_green(cfg.grid)
        traj, _ = picard_solve(a, None, cfg)
        traj = pressure_recover(traj, None, cfg)
        with pytest.raises(ConfigurationError):
            residual_check(traj, a, None, cfg)

    def test_pressure_keeps_each_nodes_convection(self):
        cfg = _tg_config(nodes=8)
        a = _taylor_green(cfg.grid)
        traj, _ = picard_solve(a, None, cfg)
        traj = pressure_recover(traj, None, cfg)
        assert traj.convection.shape == traj.u.shape
        for j in range(traj.node_count):
            u_j = traj.field_at(j)
            assert np.array_equal(traj.convection[j], convective_term(u_j, u_j, cfg.power).coeffs)

    def test_residual_equals_node_by_node_reference(self):
        cfg = _tg_config()
        a = _taylor_green(cfg.grid)
        traj, _ = picard_solve(a, None, cfg)
        traj = pressure_recover(traj, None, cfg)
        assert residual_check(traj, a, None, cfg) == _residual_reference(traj, a, None, cfg)

    def test_forced_residual_equals_node_by_node_reference(self):
        cfg = _tg_config(nodes=12)
        a = _taylor_green(cfg.grid, amplitude=0.5)
        f = _shear(cfg.grid, 3, amplitude=2.0)
        traj, diag = picard_solve(a, f, cfg)
        assert diag.converged
        traj = pressure_recover(traj, f, cfg)
        got = residual_check(traj, a, f, cfg)
        assert got > 0.0
        assert got == _residual_reference(traj, a, f, cfg)

    def test_residual_needs_recovered_pressure(self):
        cfg = _tg_config(nodes=8)
        a = _taylor_green(cfg.grid)
        traj, _ = picard_solve(a, None, cfg)
        with pytest.raises(ParameterError):
            residual_check(traj, a, None, cfg)


class TestNormBookkeeping:
    def test_recorded_series_and_total(self):
        cfg = _tg_config(N=64, nodes=12)
        h = cfg.hypothesis
        a = _taylor_green(cfg.grid)
        traj, _ = picard_solve(a, None, cfg)
        cut = build_cutoff(cfg.grid)
        traj = record_norms(traj, h, cut)
        for key in ("solution", "higher", "weak"):
            assert key in traj.norms
            assert traj.norms[key].shape == (traj.node_count,)
            assert np.all(np.isfinite(traj.norms[key]))
        total = solution_norm(traj, h, cut)
        ts = TimeSamples(traj.times, traj.norms["solution"])
        want = lorentz_norm(ts, LorentzIndex(h.rho, h.r))
        assert total == pytest.approx(want, rel=1e-12)

    def test_solve_returns_recorded_norms(self):
        cfg = _tg_config(nodes=8)
        a = _taylor_green(cfg.grid)
        traj, diag = picard_solve(a, None, cfg)
        got = {key: traj.norms[key].copy() for key in ("solution", "higher", "weak")}
        traj.norms.clear()
        record_norms(traj, cfg.hypothesis, build_cutoff(cfg.grid))
        for key, vals in got.items():
            assert np.array_equal(vals, traj.norms[key])
        assert diag.solution_norm == solution_norm(traj, cfg.hypothesis)

    def test_norm_csv_layout(self, tmp_path):
        cfg = _tg_config(nodes=8)
        a = _taylor_green(cfg.grid)
        traj, _ = picard_solve(a, None, cfg)
        traj = record_norms(traj, cfg.hypothesis, build_cutoff(cfg.grid))
        path = tmp_path / "norms.csv"
        write_norm_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,solution,higher,weak"
        assert len(lines) == 1 + traj.node_count

    def test_saved_fields_round_trip(self, tmp_path):
        from gnslab import save_trajectory

        cfg = _tg_config(nodes=4)
        a = _taylor_green(cfg.grid)
        traj, _ = picard_solve(a, None, cfg)
        traj = pressure_recover(traj, None, cfg)
        paths = save_trajectory(traj, tmp_path)
        assert len(paths) == 2 * traj.node_count
        back = read_field(tmp_path / "u_0000.gnsf")
        assert np.array_equal(back.coeffs, traj.u[0])


class TestConstantEstimation:
    def test_estimated_constants_are_clamped_and_deterministic(self):
        cfg = _tg_config(N=64, nodes=8, constants=None)
        got = estimate_solver_constants(cfg)
        again = estimate_solver_constants(cfg)
        assert got.mode == "estimated"
        assert min(got.k0, got.k1, got.k2) >= 1.0
        assert (got.k0, got.k1, got.k2) == (again.k0, again.k1, again.k2)
        assert got.detail["samples"] == cfg.const_samples

    def test_quadratic_family_switches_estimator(self):
        grid = Grid(2, 64, TWO_PI)
        h = check_hypotheses(**H2_DESK)
        cfg = SolverConfig(h, grid, 1e-5, 8)
        got = estimate_solver_constants(cfg, seed=1)
        assert got.detail["bilinear_id"] == "BILIN"

    def test_forcing_shape_guard(self):
        cfg = _tg_config(nodes=8)
        a = _taylor_green(cfg.grid)
        bad = SpectralField.zeros(Grid(2, 64, TWO_PI), ncomp=2)
        with pytest.raises(ShapeError):
            picard_solve(a, bad, cfg)

    def test_prebuilt_forcing_stack_shape_guard(self):
        cfg = _tg_config(nodes=8)
        a = _taylor_green(cfg.grid)
        zero = Trajectory(cfg.grid, cfg.times(),
                          np.zeros((8, 2) + cfg.grid.shape, dtype=np.complex128))
        short = np.zeros((7, 2) + cfg.grid.shape, dtype=np.complex128)
        with pytest.raises(ShapeError):
            phi_map(zero, a, short, cfg)
        with pytest.raises(ShapeError):
            picard_solve(a, short, cfg)
