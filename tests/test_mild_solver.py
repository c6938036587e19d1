"""Fixed-point solver: exact linear pieces, gate arithmetic, iteration control."""

import dataclasses
import math
import os
import tracemalloc

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
    divergence_convection,
    estimate_solver_constants,
    leray_project,
    lorentz_norm,
    phi_map,
    picard_solve,
    random_field,
    read_field,
    record_norms,
    semigroup_apply,
    smallness_gate,
    solution_norm,
    write_field,
    write_norm_csv,
)
from gnslab import errors, mild_solver, nonlinearity
from gnslab.mild_solver import _forcing_coeffs, forcing_weak_norm
from gnslab.spectral_core import duhamel_nodes

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


def _compressible(grid):
    """cos x in both components: its divergence is -sin x, not zero."""
    x = grid.axis_coordinates()
    vals = np.stack([np.broadcast_to(np.cos(x)[:, None], grid.shape),
                     np.broadcast_to(np.cos(x)[:, None], grid.shape)])
    return SpectralField.from_physical(grid, vals)


def _solver_convection(u, power):
    """The convection as the solver forms it: in divergence form for m = 1."""
    return divergence_convection(u) if power.m == 1.0 else convective_term(u, u, power)


def _pressure_reference(traj, f, cfg, j):
    """Node j's pressure gradient spelled out: g - P g, with g = f - the
    convection formed afresh (f a single field or None)."""
    conv = _solver_convection(traj.field_at(j), cfg.power).coeffs
    g = SpectralField(cfg.grid, -conv if f is None else f.coeffs - conv)
    return g.coeffs - leray_project(g).coeffs


def _solve_keeping_gradients(a, f, cfg):
    """picard_solve with a callback that keeps the last pressure gradient
    handed over for each node; checks that each sweep hands nodes 0 ..
    J - 2 over once each, in node order, and the solve node J - 1 once
    after the last sweep.  Returns (traj, diag, gradients in node order)."""
    order, grads = [], {}

    def keep(j, grad_pi):
        order.append(j)
        grads[j] = grad_pi

    traj, diag = picard_solve(a, f, cfg, on_gradient=keep)
    J = cfg.time_nodes
    assert order == list(range(J - 1)) * diag.iterations + [J - 1]
    return traj, diag, [grads[j] for j in range(J)]


def _iterate_before(traj, iterations, a, f, cfg):
    """The iterate the last sweep of a solve read, rebuilt by iterating
    phi_map from the first iterate; Phi of it is the solution."""
    before = phi_map(None, a, f, cfg)
    for _ in range(iterations - 1):
        before = phi_map(before, a, f, cfg)
    assert phi_map(before, a, f, cfg).u.tobytes() == traj.u.tobytes()
    return before


def _assert_sweep_gradients(grads, traj, diag, a, f, cfg):
    """Node j <= J - 2's pressure gradient is, byte for byte, the one of
    the iterate the last sweep read, node J - 1's the one of the solution;
    each lies within 1e-12 relative of the solution's own."""
    before = _iterate_before(traj, diag.iterations, a, f, cfg)
    last = traj.node_count - 1
    assert len(grads) == traj.node_count
    for j, grad in enumerate(grads):
        read = before if j < last else traj
        assert grad.coeffs.tobytes() == _pressure_reference(read, f, cfg, j).tobytes()
        exact = _pressure_reference(traj, f, cfg, j)
        assert np.max(np.abs(grad.coeffs - exact)) <= 1e-12 * np.max(np.abs(exact))


def _largest_residual_row(a, f, cfg, rows):
    """The largest weak-class norm of the rows, one besov_norm per row,
    divided by the data scale ||a|| + ||f||."""
    h = cfg.hypothesis
    grid = cfg.grid
    weak = BesovIndex(h.s_tilde, h.p, float("inf"))
    worst = 0.0
    for res in rows:
        res[(slice(None),) + (0,) * grid.n] = 0.0
        worst = max(worst, besov_norm(SpectralField(grid, res), weak))
    scale = besov_norm(a, BesovIndex(h.s0, h.p0, h.r)) + forcing_weak_norm(f, cfg)
    return worst / scale if scale > 0.0 else worst


def _residual_reference(traj, iterations, a, f, cfg):
    """The residual spelled out node by node from the holds of the last
    sweep: the iterate that sweep read is rebuilt by iterating phi_map,
    node j's source S_j is formed afresh from it, and each interior row
    is (u_{j+1} - u_j)/(t_{j+1} - t_j) + A u_j - S_j, in the order the
    sweep rounds it."""
    grid = cfg.grid
    f_stack = _forcing_coeffs(f, cfg)
    before = _iterate_before(traj, iterations, a, f, cfg)
    symbol = grid.k_abs ** (2.0 * cfg.hypothesis.alpha)

    def rows():
        for j in range(1, traj.node_count - 1):
            conv = _solver_convection(before.field_at(j), cfg.power).coeffs
            g = -conv if f_stack is None else f_stack[j] - conv
            source = leray_project(SpectralField(grid, g)).coeffs
            source[(slice(None),) + (0,) * grid.n] = 0.0
            fd = (traj.u[j + 1] - traj.u[j]) / (traj.times[j + 1] - traj.times[j])
            yield fd + symbol[None] * traj.u[j] - source

    return _largest_residual_row(a, f_stack, cfg, rows())


def _fresh_residual(traj, a, f, cfg):
    """The residual with each interior node's convection formed afresh
    from the solution itself: u_t + A u + J_m(u) . grad u + grad pi - f,
    with the forward difference for u_t."""
    f_stack = _forcing_coeffs(f, cfg)
    symbol = cfg.grid.k_abs ** (2.0 * cfg.hypothesis.alpha)

    def rows():
        for j in range(1, traj.node_count - 1):
            fd = (traj.u[j + 1] - traj.u[j]) / (traj.times[j + 1] - traj.times[j])
            conv = _solver_convection(traj.field_at(j), cfg.power)
            res = fd + symbol[None] * traj.u[j] + conv.coeffs + _pressure_reference(traj, f, cfg, j)
            yield res if f_stack is None else res - f_stack[j]

    return _largest_residual_row(a, f_stack, cfg, rows())


def _left_node_phi(u, a, f, cfg):
    """Phi spelled out with the left hold inside the recurrence: every
    node's source formed, and step j, on (t_{j-1}, t_j], holding source
    max(j - 1, 0)."""
    grid = cfg.grid
    times = cfg.times()
    symbol = grid.power_symbol(cfg.hypothesis.alpha)
    f_stack = _forcing_coeffs(f, cfg)
    zero = (slice(None),) + (0,) * grid.n
    net = []
    for j in range(cfg.time_nodes):
        if u is None:
            gj = f_stack[j]
        else:
            conv = _solver_convection(u.field_at(j), cfg.power).coeffs
            gj = -conv if f_stack is None else f_stack[j] - conv
        net.append(leray_project(SpectralField(grid, gj)).coeffs)
        net[j][zero] = 0.0
    out = np.empty((len(times),) + a.coeffs.shape, dtype=np.complex128)
    state = np.zeros_like(a.coeffs)
    prev_t = 0.0
    for j in range(len(times)):
        dt = times[j] - prev_t
        decay = np.exp(-dt * symbol)
        with np.errstate(divide="ignore", invalid="ignore"):
            weight = np.where(symbol > 0.0, -np.expm1(-dt * symbol) / symbol, dt)
        after = decay * state + weight * net[max(j - 1, 0)]
        if j > 0:
            out[j - 1] = state
        state = after
        prev_t = times[j]
    out[-1] = state
    for j, t in enumerate(times):
        out[j] += np.exp(-t * symbol) * a.coeffs
    return out


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
        dict(dealias_factor=2.0), dict(dealias_factor=True), dict(dealias_factor=5),
    ])
    def test_scalar_settings_are_checked_at_construction(self, setting):
        args = dict(horizon=1e-3, time_nodes=16, constants=UNIT_CONSTANTS)
        args.update(setting)
        with pytest.raises(ParameterError, match=f"^{next(iter(setting))} must"):
            SolverConfig(check_hypotheses(**H0_DESK), Grid(2, 64, TWO_PI), **args)

    def test_every_scalar_field_has_a_kind(self):
        # each setting's kind is read from its annotation, so a new scalar
        # field of another type would go unchecked
        blocks = {"hypothesis", "grid", "constants"}
        for f in dataclasses.fields(SolverConfig):
            if f.name not in blocks:
                assert f.type in errors._ANNOTATION_KINDS, f.name

    def test_scalar_fields_are_checked_in_declaration_order(self, monkeypatch):
        checked = []
        monkeypatch.setattr(errors, "check_kind", lambda name, *_: checked.append(name))
        SolverConfig(check_hypotheses(**H0_DESK), Grid(2, 64, TWO_PI), 1e-3, 16)
        assert checked == [
            "horizon", "time_nodes", "tolerance", "max_iterations", "const_samples",
            "const_nodes", "const_seed", "floor_factor", "project_data", "gate_abort",
            "dealias_factor",
        ]

    def test_time_nodes_numpy_cannot_size_rejected(self):
        # numpy refuses a 10**20-node stack outright; a count such as 10**9
        # would start a real allocation
        with pytest.raises(ParameterError, match="^time_nodes must leave arrays numpy can size"):
            SolverConfig(check_hypotheses(**H0_DESK), Grid(2, 64, TWO_PI), 1e-3, 10**20)

    def test_const_samples_numpy_cannot_size_rejected(self):
        # the estimator would spawn one seed per sample before any draw
        with pytest.raises(ParameterError, match="^const_samples must leave arrays numpy can size"):
            SolverConfig(check_hypotheses(**H0_DESK), Grid(2, 64, TWO_PI), 1e-3, 8,
                         const_samples=10**20)

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
        traj = phi_map(None, a, None, cfg)
        for j, t in enumerate(cfg.times()):
            want = math.exp(-9.0 * t) * a.coeffs
            assert np.max(np.abs(traj.u[j] - want)) < 1e-14

    @staticmethod
    def _constant_source(nodes, horizon=0.5):
        grid = Grid(2, 64, TWO_PI)
        g = _shear(grid, wavenumber=3)
        cfg = SolverConfig(check_hypotheses(**H0_DESK), grid, horizon, nodes, constants=UNIT_CONSTANTS)
        stack = np.broadcast_to(g.coeffs, (nodes,) + g.coeffs.shape)
        times = cfg.times()
        return g, times, np.array(list(duhamel_nodes(times, stack, grid.power_symbol(1.0))))

    # 12 nodes to t = 0.5, and the 2-D benchmark solve's ladder: 128 nodes
    # to t = 1e-3, whose first steps have dt |k|^2 near 1e-8
    @pytest.mark.parametrize("nodes, horizon", [(12, 0.5), (128, 1e-3)])
    def test_forced_evolution_constant_source(self, nodes, horizon):
        # the step hold is exact for time-constant forcing:
        # each mode carries (1 - exp(-|k|^2 t)) / |k|^2, to rounding
        g, times, u = self._constant_source(nodes, horizon)
        for j, t in enumerate(times):
            want = -math.expm1(-9.0 * t) / 9.0 * g.coeffs
            assert np.max(np.abs(u[j] - want)) <= 1e-13 * np.max(np.abs(want))

    def test_forced_evolution_mean_mode_stays_clean(self):
        # the |k| = 0 weight is the interval length, not (1 - e^0)/0; a
        # broken guard would turn the zero mode into NaN and poison the run
        _, _, u = self._constant_source(8)
        assert np.all(np.isfinite(u.real)) and np.all(np.isfinite(u.imag))
        assert np.max(np.abs(u[:, :, 0, 0])) < 1e-15

    @pytest.mark.parametrize("free", [False, True])
    def test_kernel_yields_node_j_after_reading_hold_j_only(self, free):
        # node j comes out once hold j is read and before hold j + 1 is,
        # as a new array: a state buffer reused in place would alias them
        g, times, _ = self._constant_source(8)
        pulled = []

        def holds():
            for _ in times:
                pulled.append(None)
                yield g.coeffs

        nodes = []
        initial = g.coeffs if free else None
        for j, node in enumerate(duhamel_nodes(times, holds(), g.grid.power_symbol(1.0), initial)):
            assert len(pulled) == j + 1
            nodes.append(node)
        assert len(nodes) == len(times)
        assert not any(np.shares_memory(x, y) for x, y in zip(nodes, nodes[1:]))
        assert not any(np.shares_memory(x, g.coeffs) for x in nodes)

    @pytest.mark.parametrize("count", [7, 9])
    def test_kernel_rejects_a_wrong_hold_count_once_drained(self, count):
        g, times, _ = self._constant_source(8)
        nodes = duhamel_nodes(times, [g.coeffs] * count, g.grid.power_symbol(1.0))
        for _ in range(min(count, len(times))):
            next(nodes)
        with pytest.raises(ValueError):
            next(nodes)

    def test_fixed_point_map_raises_blowup_at_the_first_bad_node(self):
        # phi_map checks each node as it writes it
        cfg = _tg_config(nodes=8)
        stack = np.zeros((8, 2) + cfg.grid.half_shape, dtype=np.complex128)
        stack[4] = _shear(cfg.grid, amplitude=1e200).coeffs
        # node 4's convection overflows and is held on (t_4, t_5]
        u = Trajectory(cfg.grid, cfg.times(), stack)
        a = SpectralField.zeros(cfg.grid, 2)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BlowupError, match="non-finite field at node 5") as err:
                phi_map(u, a, None, cfg)
        assert err.value.node_index == 5
        assert err.value.node_time == cfg.times()[5]

    @staticmethod
    def _random_stack(cfg, seed):
        rng = np.random.default_rng(seed)
        shape = (cfg.time_nodes, cfg.grid.n) + cfg.grid.half_shape
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def test_forced_evolution_leaves_the_callers_stack(self):
        # phi_map reads the forcing stack it was given and never writes
        # over it
        cfg = _tg_config(N=32, nodes=8)
        stack = self._random_stack(cfg, 1)
        before = stack.copy()
        traj = phi_map(None, _taylor_green(cfg.grid), stack, cfg)
        assert stack.flags.writeable
        assert np.array_equal(stack, before)
        assert not np.shares_memory(traj.u, stack)

    @staticmethod
    def _small_random_case():
        grid = Grid(2, 64, TWO_PI)
        cfg = SolverConfig(check_hypotheses(**H0_DESK), grid, 1e-3, 64, constants=UNIT_CONSTANTS)
        a = random_field(grid, np.random.default_rng(0), ncomp=2, solenoidal=True) * 1e-2
        return a, cfg

    def test_fixed_point_map_peaks_under_one_and_a_half_stacks(self):
        # phi_map feeds the Duhamel step one source at a time, so a step
        # holds little beyond the stack it returns (2.08 stacks when the
        # step wrote its nodes to a second stack beside a source stack);
        # tracemalloc counts allocations, so the bound does not depend on
        # the heap layout
        a, cfg = self._small_random_case()
        u = phi_map(None, a, None, cfg)
        tracemalloc.start()  # counts only what is allocated from here on
        try:
            phi_map(u, a, None, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * u.u.nbytes

    def test_picard_solve_peaks_under_one_and_a_half_stacks(self):
        # each iteration overwrites the one iterate stack node by node:
        # no candidate stack beside it (2.30 stacks when Phi built one),
        # no free-evolution stack and no start stack kept alive through
        # the loop (4.29 stacks when it held both)
        a, cfg = self._small_random_case()
        stack_bytes = cfg.time_nodes * a.coeffs.nbytes
        build_cutoff(cfg.grid)  # cached per grid, so not part of the solve's peak
        tracemalloc.start()
        try:
            traj, diag = picard_solve(a, None, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert diag.converged
        assert traj.u.nbytes == stack_bytes
        assert peak < 1.5 * stack_bytes

    def test_forced_picard_solve_peaks_under_one_and_a_half_stacks(self):
        # a time-constant forcing stays one field, not a J-node stack of
        # copies (3.26 stacks when it was copied)
        a, cfg = self._small_random_case()
        f = random_field(cfg.grid, np.random.default_rng(1), ncomp=2) * 1e-2
        stack_bytes = cfg.time_nodes * a.coeffs.nbytes
        tracemalloc.start()
        try:
            traj, diag = picard_solve(a, f, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert diag.converged
        assert peak < 1.5 * stack_bytes

    def test_whole_unforced_solve_peaks_under_one_and_a_half_stacks(self):
        # the sweeps hand each pressure gradient over as they form it and
        # keep no stack of them, so a solve whose callback drops each one
        # peaks where the sweep does: 1.275 stacks, as a solve without a
        # callback
        a, cfg = self._small_random_case()
        stack_bytes = cfg.time_nodes * a.coeffs.nbytes
        build_cutoff(cfg.grid)
        tracemalloc.start()
        try:
            traj, diag = picard_solve(a, None, cfg, on_gradient=lambda j, grad_pi: None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert diag.converged and diag.residual is not None
        assert peak < 1.5 * stack_bytes

    @pytest.mark.parametrize("forcing", [None, "field", "stack"])
    @pytest.mark.parametrize("n, m", [(2, 1.0), (3, 2.0)])
    def test_fixed_point_map_matches_the_left_node_recurrence(self, n, m, forcing):
        # the solver's sources, node 0's fed twice and held by the kernel's
        # step rule, give the left hold byte for byte, for the first
        # iterate and the ones after it
        if n == 2:
            grid, h = Grid(2, 64, 2.0 * TWO_PI), check_hypotheses(**H0_DESK)
        else:
            grid = Grid(3, 32, 8.0 * math.pi / 3.0)
            h = check_hypotheses(m=m, n=3, p=3.0, rho=6.0, alpha=1.0)
        nodes = 6
        cfg = SolverConfig(h, grid, 1e-3, nodes, constants=UNIT_CONSTANTS)
        rng = np.random.default_rng(8)
        a = random_field(grid, rng, ncomp=n, solenoidal=True) * 0.1
        f = {
            None: None,
            "field": random_field(grid, rng, ncomp=n) * 0.1,
            "stack": np.stack([random_field(grid, rng, ncomp=n).coeffs * 0.1
                               for _ in range(nodes)]),
        }[forcing]
        u = None
        for _ in range(3):
            got = phi_map(u, a, f, cfg)
            if u is not None or f is not None:
                assert got.u.tobytes() == _left_node_phi(u, a, f, cfg).tobytes()
            u = got

    @pytest.mark.parametrize("forced", [False, True])
    def test_fixed_point_map_convects_every_held_node_once(self, monkeypatch, forced):
        # Phi(u) convects nodes 0 .. J - 2 of u once each, in node order,
        # each read before the sweep overwrites it; node J - 1 is held by
        # no step
        a, f, cfg = TestPicardIteration._forced_case(forced)
        u = phi_map(None, a, f, cfg)
        handed = []

        def counted(field, power):
            handed.append(field.coeffs.tobytes())
            return convect(field, power)

        convect = mild_solver.solenoidal_convection
        monkeypatch.setattr(mild_solver, "solenoidal_convection", counted)
        phi_map(u, a, f, cfg)
        assert handed == [u.u[j].tobytes() for j in range(cfg.time_nodes - 1)]

    def test_fixed_point_map_at_zero_is_the_free_evolution(self):
        cfg = _tg_config(nodes=8)
        a = _taylor_green(cfg.grid)
        zero = Trajectory(cfg.grid, cfg.times(),
                          np.zeros((8, 2) + cfg.grid.half_shape, dtype=np.complex128))
        out = phi_map(zero, a, None, cfg)
        free = phi_map(None, a, None, cfg)
        assert np.max(np.abs(out.u - free.u)) < 1e-14

    def test_fixed_point_map_without_forcing_starts_from_the_free_evolution(self, monkeypatch):
        # no zero stack is built or projected for the first iterate
        cfg = _tg_config(nodes=8)
        a = _taylor_green(cfg.grid)

        build = mild_solver._phi_source

        def refusing(*args):
            if build(*args) is None:
                return None

            def refuse(j):
                raise AssertionError("net forcing built for an unforced first iterate")

            return refuse

        monkeypatch.setattr(mild_solver, "_phi_source", refusing)
        u = phi_map(None, a, None, cfg)
        for j, t in enumerate(cfg.times()):
            assert np.array_equal(u.u[j], semigroup_apply(a, t, 1.0).coeffs)

    def test_fixed_point_map_rejects_non_solenoidal_data(self):
        cfg = _tg_config(nodes=8)
        with pytest.raises(ParameterError, match="not divergence-free"):
            phi_map(None, _compressible(cfg.grid), None, cfg)

    @pytest.mark.parametrize("project_data", [False, True])
    def test_fixed_point_map_rejects_nan_data(self, project_data):
        cfg = _tg_config(nodes=8, project_data=project_data)
        a = _taylor_green(cfg.grid, amplitude=1e-3)
        a.coeffs[0, 3, 0] = np.nan
        with pytest.raises(ParameterError, match="non-finite"):
            phi_map(None, a, None, cfg)

    def test_iterate_on_another_grid_rejected(self):
        # same shape, other box: the iterate's modes are other wavevectors
        cfg = _tg_config(nodes=8)
        a = _taylor_green(cfg.grid)
        other = Grid(2, 64, TWO_PI)
        assert other != cfg.grid
        start = Trajectory(other, cfg.times(),
                           np.zeros((8, 2) + other.half_shape, dtype=np.complex128))
        with pytest.raises(ShapeError, match="grid"):
            phi_map(start, a, None, cfg)
        with pytest.raises(ShapeError, match="grid"):
            picard_solve(a, None, cfg, start=start)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_iterate_rejected(self, bad):
        # bad input, not a blow-up of the map: Phi would meet it at node 4
        grid = Grid(2, 64, TWO_PI)
        cfg = SolverConfig(check_hypotheses(**H0_DESK), grid, 1e-3, 8, constants=UNIT_CONSTANTS)
        a = _taylor_green(grid, amplitude=1e-3)
        start = phi_map(None, a, None, cfg)
        start.u[3, 1, 2, 5] = bad
        before = start.u.tobytes()
        with pytest.raises(ParameterError, match="iterate has non-finite"):
            phi_map(start, a, None, cfg)
        with pytest.raises(ParameterError, match="iterate has non-finite"):
            picard_solve(a, None, cfg, start=start)
        assert start.u.tobytes() == before

    def test_iterate_on_other_nodes_rejected(self):
        cfg = _tg_config(nodes=8)
        a = _taylor_green(cfg.grid)
        start = Trajectory(cfg.grid, cfg.times() * 2.0,
                           np.zeros((8, 2) + cfg.grid.half_shape, dtype=np.complex128))
        with pytest.raises(ShapeError, match="nodes"):
            picard_solve(a, None, cfg, start=start)


class TestSmallnessGate:
    def _setup(self):
        grid = Grid(2, 64, TWO_PI)
        h = check_hypotheses(**H2_DESK)
        cfg = SolverConfig(h, grid, 1e-5, 8, constants=UNIT_CONSTANTS)
        unit = _shear(grid, 3)
        from gnslab import BesovIndex, besov_norm

        norm1 = besov_norm(unit, BesovIndex(h.s0, h.p0, h.r))
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

    def test_nan_data_rejected_before_the_gate(self):
        # the datum is checked on entry, so neither the projection nor an
        # aborting gate sees it
        grid = Grid(2, 64, TWO_PI)
        h = check_hypotheses(**H2_DESK)
        cfg = SolverConfig(h, grid, 1e-5, 8, constants=UNIT_CONSTANTS,
                           project_data=True, gate_abort=True)
        a = _shear(grid, 3, amplitude=1e-3)
        a.coeffs[0, 3, 0] = np.nan
        with pytest.raises(ParameterError, match="initial data has non-finite coefficients"):
            picard_solve(a, None, cfg)

    def test_document_round_trips_to_json(self):
        import json

        diag = self._gate(0.01)
        doc = diag.document()
        assert json.loads(json.dumps(doc))["gate"] is True


class TestPicardIteration:
    @pytest.mark.parametrize("constants", [UNIT_CONSTANTS, None])
    def test_too_coarse_grid_rejected(self, constants):
        # with constants supplied, the gate's norm meets the grid first; else the SEMI estimate
        grid = Grid(2, 16, TWO_PI)
        cfg = SolverConfig(check_hypotheses(**H0_DESK), grid, 1e-3, 4, constants=constants)
        with pytest.raises(ConfigurationError):
            picard_solve(_taylor_green(grid, 1e-3), None, cfg)

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
                          np.zeros((8, 2) + cfg.grid.half_shape, dtype=np.complex128))
        traj_b, _ = picard_solve(a, None, cfg, start=zero)
        assert np.max(np.abs(traj_a.u - traj_b.u)) < 1e-13

    @staticmethod
    def _forced_case(forced=True):
        """A 2-D m = 1.5 solve whose convection is not a gradient."""
        grid = Grid(2, 64, 2.0 * TWO_PI)
        h = check_hypotheses(m=1.5, n=2, p=3.0, rho=4.75, alpha=1.0)
        cfg = SolverConfig(h, grid, 1e-3, 12, constants=UNIT_CONSTANTS, tolerance=1e-13)
        rng = np.random.default_rng(3)
        a = random_field(grid, rng, ncomp=2, solenoidal=True) * 1e-2
        f = random_field(grid, rng, ncomp=2) * 1e-2 if forced else None
        return a, f, cfg

    def test_default_start_convects_no_zero_iterate(self, monkeypatch):
        a, f, cfg = self._forced_case()
        calls = []

        def counting(u, v, power):
            calls.append(None)
            return convective_term(u, v, power)

        monkeypatch.setattr(nonlinearity, "convective_term", counting)
        _, diag = picard_solve(a, f, cfg)
        assert diag.iterations >= 2
        # node J - 1 is held by no step, so each Phi convects J - 1 nodes
        assert len(calls) == diag.iterations * (cfg.time_nodes - 1)

    def test_quadratic_solve_convects_in_divergence_form(self, monkeypatch):
        # m = 1: every solver convection is divergence_convection
        grid = Grid(2, 64, 2.0 * TWO_PI)
        cfg = SolverConfig(check_hypotheses(**H0_DESK), grid, 1e-3, 8,
                           constants=UNIT_CONSTANTS, tolerance=1e-13)
        rng = np.random.default_rng(4)
        a = random_field(grid, rng, ncomp=2, solenoidal=True) * 1e-2
        f = random_field(grid, rng, ncomp=2) * 1e-2
        calls = []

        def refuse(u, v, power):
            raise AssertionError("convective_term called for m = 1")

        def counting(u):
            calls.append(None)
            return divergence_convection(u)

        monkeypatch.setattr(nonlinearity, "convective_term", refuse)
        monkeypatch.setattr(nonlinearity, "divergence_convection", counting)
        traj, diag = picard_solve(a, f, cfg)
        assert diag.converged and diag.iterations >= 2
        # the solve convects nothing after its last sweep; a pressure
        # callback adds node J - 1 alone
        assert len(calls) == diag.iterations * (cfg.time_nodes - 1)
        calls.clear()
        picard_solve(a, f, cfg, on_gradient=lambda j, grad_pi: None)
        assert len(calls) == diag.iterations * (cfg.time_nodes - 1) + 1

    @pytest.mark.parametrize("forced", [True, False])
    def test_default_start_is_phi_of_the_zero_iterate(self, forced):
        a, f, cfg = self._forced_case(forced)
        traj_a, diag_a = picard_solve(a, f, cfg)
        zero = Trajectory(cfg.grid, cfg.times(), np.zeros_like(traj_a.u))
        traj_b, diag_b = picard_solve(a, f, cfg, start=phi_map(zero, a, f, cfg))
        assert traj_a.u.tobytes() == traj_b.u.tobytes()
        assert diag_a.d_history == diag_b.d_history
        assert diag_a.d_history[0] > 0.0

    @pytest.mark.parametrize("forced", [True, False])
    def test_supplied_start_is_read_not_written(self, forced):
        # the sweep overwrites its own copy of start; from the first
        # iterate it repeats the default solve byte for byte
        a, f, cfg = self._forced_case(forced)
        traj_a, diag_a = picard_solve(a, f, cfg)
        start = phi_map(None, a, f, cfg)
        before = start.u.tobytes()
        traj_b, diag_b = picard_solve(a, f, cfg, start=start)
        assert start.u.tobytes() == before
        assert not np.shares_memory(traj_b.u, start.u)
        assert traj_a.u.tobytes() == traj_b.u.tobytes()
        assert diag_a.d_history == diag_b.d_history

    def test_convected_nyquist_content_stays_real(self):
        # J_m(u) with m = 1.5 is not a polynomial, so its first convection
        # fills the lattice up to index N/2; the projection of that plane
        # must stay real or the next convection rejects the iterate
        grid = Grid(2, 64, 2.0 * TWO_PI)
        h = check_hypotheses(m=1.5, n=2, p=3.0, rho=4.75, alpha=1.0)
        cfg = SolverConfig(h, grid, 1e-2, 12, constants=UNIT_CONSTANTS)
        rng = np.random.default_rng(3)
        a = random_field(grid, rng, ncomp=2, solenoidal=True) * 0.1
        f = random_field(grid, rng, ncomp=2, solenoidal=True) * 0.1
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

    # at 1e160 the second iterate overflows; at 1e100 every field stays
    # finite but the first update's Besov norm overflows, which is a
    # blow-up too, not a bad time sample
    @pytest.mark.parametrize("amplitude, message", [
        (1e160, "non-finite field at node 0"),
        (1e100, "update norm not finite at node 0"),
    ])
    def test_overflow_raises_blowup(self, amplitude, message):
        grid = Grid(2, 64, TWO_PI)
        h = check_hypotheses(**H2_DESK)
        cfg = SolverConfig(h, grid, 1.0, 8, constants=UNIT_CONSTANTS)
        a = _shear(grid, 3, amplitude=amplitude)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BlowupError, match=message) as err:
                picard_solve(a, None, cfg)
        assert (err.value.node_index, err.value.node_time) == (0, 1e-06)

    def test_gate_abort_mode(self):
        grid = Grid(2, 64, TWO_PI)
        h = check_hypotheses(**H2_DESK)
        cfg = SolverConfig(h, grid, 1e-4, 8, constants=UNIT_CONSTANTS, gate_abort=True)
        a = _shear(grid, 3, amplitude=10.0)
        with pytest.raises(GateError) as err:
            picard_solve(a, None, cfg)
        assert not err.value.diagnostics.gate
        assert err.value.diagnostics.document()["apriori"] is None

    def test_iterations_is_the_recorded_update_count(self):
        cfg = _tg_config()
        _, diag = picard_solve(_taylor_green(cfg.grid), None, cfg)
        assert diag.iterations == len(diag.d_history) == diag.document()["iterations"] >= 1
        with pytest.raises(AttributeError):
            diag.iterations = 0

    def test_apriori_record_is_formed_from_the_solve(self):
        cfg = _tg_config()
        traj, diag = picard_solve(_taylor_green(cfg.grid), None, cfg)
        assert diag.document()["apriori"] == {
            "solution_norm": solution_norm(traj, cfg.hypothesis),
            "bound": 2.0 * diag.K0,
            "constants_mode": "supplied",
            "ok": True,
        }

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


class TestScalingEquivariance:
    """The solver commutes with the critical scaling u -> 2^beta u(2x, 4^alpha t),
    beta = (2 alpha - 1) / m: halving the box, scaling the datum by 2^beta and
    the horizon by 4^-alpha scales every node by 2^beta."""

    CASES = {
        "2d-m1": (H0_DESK, 64, TWO_PI),
        "2d-m1.5": (dict(m=1.5, n=2, p=3.0, rho=4.75, alpha=1.0), 64, TWO_PI),
        "2d-m2": (H2_DESK, 64, TWO_PI),
        "3d-m2": (dict(m=2.0, n=3, p=3.0, rho=6.0, alpha=1.0), 32, 8.0 * math.pi / 3.0),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_dilated_solve_is_the_scaled_solve(self, case):
        desk, N, L = self.CASES[case]
        h = check_hypotheses(**desk)
        beta = (2.0 * h.alpha - 1.0) / h.m
        big_grid, small_grid = Grid(h.n, N, L), Grid(h.n, N, L / 2.0)
        a = random_field(big_grid, np.random.default_rng(5), ncomp=h.n, solenoidal=True) * 1e-2

        def solve(grid, horizon, data):
            cfg = SolverConfig(h, grid, horizon, 8, constants=UNIT_CONSTANTS, tolerance=1e-13)
            return picard_solve(data, None, cfg)

        # a horizon long enough that every solve takes 2 or 3 iterations
        big, big_diag = solve(big_grid, 1e-2, a)
        small, small_diag = solve(small_grid, 1e-2 / 4.0**h.alpha,
                                  SpectralField(small_grid, 2.0**beta * a.coeffs))
        want = 2.0**beta * big.u
        if h.m == 1.0:
            # beta = 1: every scaling is by a power of two, so nothing rounds
            assert small.u.tobytes() == want.tobytes()
        assert np.max(np.abs(small.u - want)) <= 1e-14 * np.max(np.abs(want))
        assert small_diag.K0 == pytest.approx(big_diag.K0, rel=1e-14)
        assert small_diag.solution_norm == pytest.approx(big_diag.solution_norm, rel=1e-14)
        assert small_diag.iterations == big_diag.iterations >= 2
        # d_k is the distance of two nearly equal iterates, so node rounding
        # moves it by up to eps ||u|| absolute, not relative
        d_moved = np.abs(np.subtract(small_diag.d_history, big_diag.d_history))
        assert np.all(d_moved <= 4.0 * np.finfo(float).eps * big_diag.solution_norm)
        assert small_diag.gate == big_diag.gate


class TestPressureAndResidual:
    def test_pressure_balances_transport(self):
        # for the cellular flow the projector removes everything, so the
        # pressure gradient is exactly minus the transport term
        cfg = _tg_config()
        a = _taylor_green(cfg.grid)
        traj, _, grads = _solve_keeping_gradients(a, None, cfg)
        power = PowerLaw(1.0)
        for j in (0, traj.node_count - 1):
            u_j = traj.field_at(j)
            conv = convective_term(u_j, u_j, power)
            assert np.max(np.abs(grads[j].coeffs + conv.coeffs)) < 1e-12

    def test_pressure_gradient_is_curl_free(self):
        cfg = _tg_config()
        a = _taylor_green(cfg.grid)
        traj, _, grads = _solve_keeping_gradients(a, None, cfg)
        for j in (0, traj.node_count - 1):
            assert np.max(np.abs(leray_project(grads[j]).coeffs)) < 1e-13

    @pytest.mark.parametrize("forced", [True, False])
    def test_every_nodes_pressure_is_the_gradient_part(self, forced):
        # node j <= J - 2 comes from the source the last sweep held, formed
        # from the iterate before the solution; node J - 1, which no step
        # holds, from the solution; each lies within rounding of the
        # solution's own pressure
        a, f, cfg = TestPicardIteration._forced_case(forced)
        traj, diag, grads = _solve_keeping_gradients(a, f, cfg)
        assert diag.residual > 0.0 and diag.iterations >= 2
        _assert_sweep_gradients(grads, traj, diag, a, f, cfg)

    def test_residual_small_on_converged_run(self):
        cfg = _tg_config()
        a = _taylor_green(cfg.grid)
        _, diag = picard_solve(a, None, cfg)
        # first-order hold quadrature at 16 nodes
        assert diag.residual < 1e-3

    def test_residual_needs_three_nodes(self):
        cfg = _tg_config(nodes=2)
        a = _taylor_green(cfg.grid)
        traj, diag, grads = _solve_keeping_gradients(a, None, cfg)
        assert diag.residual is None
        assert "residual" not in diag.document()
        _assert_sweep_gradients(grads, traj, diag, a, None, cfg)

    @pytest.mark.parametrize("callback", [False, True])
    def test_end_nodes_convected_only_for_a_callback(self, monkeypatch, callback):
        # the sweep convects nodes 0 .. J - 2 and the residual and the
        # pressure gradients come from it, so a solve convects nothing
        # after its last sweep but node J - 1 for a pressure callback; the
        # callback leaves the solution and the residual as they were
        cfg = _tg_config()
        a = _taylor_green(cfg.grid)
        solution, want = picard_solve(a, None, cfg)
        calls = []

        def counted(u, power):
            calls.append(u)
            return convect(u, power)

        convect = mild_solver.solenoidal_convection
        monkeypatch.setattr(mild_solver, "solenoidal_convection", counted)
        on_gradient = (lambda j, grad_pi: None) if callback else None
        traj, diag = picard_solve(a, None, cfg, on_gradient=on_gradient)
        assert traj.u.tobytes() == solution.u.tobytes()
        assert diag.residual == want.residual
        assert len(calls) == diag.iterations * (traj.node_count - 1) + (1 if callback else 0)

    def test_residual_equals_node_by_node_reference(self):
        cfg = _tg_config()
        a = _taylor_green(cfg.grid)
        traj, diag = picard_solve(a, None, cfg)
        assert diag.residual == _residual_reference(traj, diag.iterations, a, None, cfg)

    def test_forced_residual_equals_node_by_node_reference(self):
        cfg = _tg_config(nodes=12)
        a = _taylor_green(cfg.grid, amplitude=0.5)
        f = _shear(cfg.grid, 3, amplitude=2.0)
        traj, diag = picard_solve(a, f, cfg)
        assert diag.converged and diag.iterations >= 2
        assert diag.residual > 0.0
        assert diag.residual == _residual_reference(traj, diag.iterations, a, f, cfg)

    @pytest.mark.parametrize("case", ["taylor-green", "forced"])
    def test_sweep_residual_matches_a_fresh_convection(self, case):
        # the sweep's sources come from the iterate before the solution, so
        # they differ from the solution's own by about d_k, which moves the
        # residual far less than 1e-12 relative
        if case == "taylor-green":
            cfg = _tg_config()
            a, f = _taylor_green(cfg.grid), None
        else:
            a, f, cfg = TestPicardIteration._forced_case()
        traj, diag = picard_solve(a, f, cfg)
        assert diag.residual > 0.0
        assert diag.residual == pytest.approx(_fresh_residual(traj, a, f, cfg), rel=1e-12, abs=0.0)

    def test_projected_datum_scales_the_residual(self):
        # the residual is divided by the norm of the datum the solver and
        # the gate use, P a, not by that of the raw datum
        grid = Grid(2, 64, TWO_PI)
        cfg = SolverConfig(check_hypotheses(**H0_DESK), grid, 1e-3, 64,
                           constants=UNIT_CONSTANTS, tolerance=1e-12, project_data=True)
        raw = random_field(grid, np.random.default_rng(11), ncomp=2)
        a = raw * (1e-4 / float(np.max(np.abs(raw.to_physical()))))
        solved = leray_project(a)
        traj, diag = picard_solve(a, None, cfg)
        data_space = cfg.hypothesis.data_space
        assert diag.norm_a == besov_norm(solved, data_space)
        assert diag.norm_a < 0.8 * besov_norm(a, data_space)
        assert diag.residual == _residual_reference(traj, diag.iterations, solved, None, cfg)
        assert diag.residual > _residual_reference(traj, diag.iterations, a, None, cfg)

    @staticmethod
    def _gradient_cost(a, f, cfg):
        """The tracemalloc peaks of a solve without and with a pressure
        callback that drops each gradient, per-grid tables built first."""
        peaks = []
        picard_solve(a, f, cfg, on_gradient=lambda j, grad_pi: None)
        for on_gradient in (None, lambda j, grad_pi: None):
            tracemalloc.start()
            try:
                picard_solve(a, f, cfg, on_gradient=on_gradient)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peaks

    def test_pressure_pass_peaks_under_half_a_stack(self):
        # 2-D N = 64, J = 64, m = 1: the sweeps hand the gradients over one
        # node at a time and keep none, so they add under half a stack to
        # the solve's peak (nothing measurable; a separate pass peaked at
        # 1.28 stacks when it kept a J-node pressure stack, 2.23 when every
        # node's convection was kept for a second residual pass)
        cfg = _tg_config(N=64, nodes=64)
        a = random_field(cfg.grid, np.random.default_rng(6), ncomp=2, solenoidal=True) * 1e-2
        plain, handed = self._gradient_cost(a, None, cfg)
        assert handed - plain < 0.5 * cfg.time_nodes * a.coeffs.nbytes

    def test_forced_pressure_pass_peaks_under_half_a_stack(self):
        # a time-constant forcing is read as one field at every node (a
        # separate pass peaked at 2.28 stacks when it was copied into a
        # J-node stack)
        cfg = _tg_config(N=64, nodes=64)
        rng = np.random.default_rng(6)
        a = random_field(cfg.grid, rng, ncomp=2, solenoidal=True) * 1e-2
        f = random_field(cfg.grid, rng, ncomp=2) * 1e-2
        plain, handed = self._gradient_cost(a, f, cfg)
        assert handed - plain < 0.5 * cfg.time_nodes * a.coeffs.nbytes

    def test_one_node_peaks_under_two_and_a_half_fine_fields(self):
        # a 3-D N = 32, m = 2 node holds its convection's 2.2 fine vector
        # fields beside the node stacks (4.46 fine fields in all when the
        # convection refined each component's partials together and
        # truncated them in one stack); a J = 2 solve with a pressure
        # callback convects one node at a time, node 1 after the sweeps
        h = check_hypotheses(m=2.0, n=3, p=3.0, rho=6.0, alpha=1.0)
        grid = Grid(3, 32, 8.0 * math.pi / 3.0)
        cfg = SolverConfig(h, grid, 1e-3, 2, constants=UNIT_CONSTANTS)
        a = random_field(grid, np.random.default_rng(2), ncomp=3, solenoidal=True)
        fine_bytes = grid.n * cfg.power.fine_points(grid.N) ** grid.n * 8
        _, peak = self._gradient_cost(a, None, cfg)
        assert peak < 2.5 * fine_bytes + 2 * a.coeffs.nbytes


class TestNormBookkeeping:
    def test_recorded_series_and_total(self):
        cfg = _tg_config(N=64, nodes=12)
        h = cfg.hypothesis
        a = _taylor_green(cfg.grid)
        traj, _ = picard_solve(a, None, cfg)
        traj = record_norms(traj, h)
        for key in ("solution", "higher", "weak"):
            assert key in traj.norms
            assert traj.norms[key].shape == (traj.node_count,)
            assert np.all(np.isfinite(traj.norms[key]))
        total = solution_norm(traj, h)
        ts = TimeSamples(traj.times, traj.norms["solution"])
        want = lorentz_norm(ts, LorentzIndex(h.rho, h.r))
        assert total == pytest.approx(want, rel=1e-12)

    def test_solve_returns_recorded_norms(self):
        cfg = _tg_config(nodes=8)
        a = _taylor_green(cfg.grid)
        traj, diag = picard_solve(a, None, cfg)
        got = {key: traj.norms[key].copy() for key in ("solution", "higher", "weak")}
        traj.norms.clear()
        record_norms(traj, cfg.hypothesis)
        for key, vals in got.items():
            assert np.array_equal(vals, traj.norms[key])
        assert diag.solution_norm == solution_norm(traj, cfg.hypothesis)

    def test_norm_csv_layout(self, tmp_path):
        cfg = _tg_config(nodes=8)
        a = _taylor_green(cfg.grid)
        traj, _ = picard_solve(a, None, cfg)
        traj = record_norms(traj, cfg.hypothesis)
        path = tmp_path / "norms.csv"
        write_norm_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,solution,higher,weak"
        assert len(lines) == 1 + traj.node_count

    def test_saved_fields_round_trip(self, tmp_path):
        from gnslab import save_trajectory

        cfg = _tg_config(nodes=4)
        a = _taylor_green(cfg.grid)

        def save_gradient(j, grad_pi):
            write_field(grad_pi, tmp_path / f"gradpi_{j:04d}.gnsf")

        traj, diag = picard_solve(a, None, cfg, on_gradient=save_gradient)
        paths = save_trajectory(traj, tmp_path)
        assert [os.path.basename(p) for p in paths] == [
            f"u_{j:04d}.gnsf" for j in range(traj.node_count)
        ]
        for j in range(traj.node_count):
            back = read_field(tmp_path / f"u_{j:04d}.gnsf")
            assert np.array_equal(back.coeffs, traj.u[j])
        grads = [read_field(tmp_path / f"gradpi_{j:04d}.gnsf") for j in range(traj.node_count)]
        _assert_sweep_gradients(grads, traj, diag, a, None, cfg)


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
        cfg = SolverConfig(h, grid, 1e-5, 8, const_seed=1)
        got = estimate_solver_constants(cfg)
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
                          np.zeros((8, 2) + cfg.grid.half_shape, dtype=np.complex128))
        short = np.zeros((7, 2) + cfg.grid.half_shape, dtype=np.complex128)
        with pytest.raises(ShapeError):
            phi_map(zero, a, short, cfg)
        with pytest.raises(ShapeError):
            picard_solve(a, short, cfg)
