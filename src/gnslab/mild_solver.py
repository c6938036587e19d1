"""Picard iteration on the mild formulation, with contraction diagnostics.

The solver constructs the fixed point of Phi(u) = a_L + S(Pf - P(J_m(u)
. grad u)) on log-spaced time nodes.  The semigroup part is exact per
mode; the Duhamel part holds the integrand constant on each subinterval
(left endpoint) and integrates the exponential weight in closed form,
so the only time error is the first-order hold.  Smallness enters
through the gate K0 <= eta = 1/(16 k2) together with 4 k2 lambda1 < 1;
the contraction constants k0, k1, k2 are either supplied or estimated
empirically, and the gate verdict never blocks a run unless the
configuration asks for an abort.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .besov_analysis import BesovIndex, DyadicCutoff, besov_norm, besov_norms, build_cutoff
from .errors import (
    BlowupError,
    ConfigurationError,
    DivergenceError,
    GateError,
    ParameterError,
    ShapeError,
    check_kind,
)
from .estimates_lab import HypothesisSet, SampleSpec, estimate_constant
from .lorentz_time import LorentzIndex, TimeSamples, log_nodes, lorentz_norm
from .nonlinearity import PowerLaw, convective_term
from .spectral_core import (
    Grid,
    SpectralField,
    divergence,
    duhamel_nodes,
    leray_project,
    write_field,
)

DIV_TOL = 1e-10

NORM_KEYS = ("solution", "higher", "weak")


@dataclass(frozen=True)
class SolverConstants:
    """Contraction constants; each must be at least 1."""

    k0: float
    k1: float
    k2: float
    mode: str = "supplied"
    detail: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, value in (("k0", self.k0), ("k1", self.k1), ("k2", self.k2)):
            check_kind(name, value, "real")
            if not (math.isfinite(value) and value >= 1.0):
                raise ParameterError(f"{name} must be finite and >= 1, got {value}")


# kind of each scalar SolverConfig field; a solve document sets them
# under the same names
SETTING_KINDS = {
    "horizon": "real",
    "time_nodes": "integer",
    "tolerance": "real",
    "max_iterations": "integer",
    "const_samples": "integer",
    "const_nodes": "integer",
    "const_seed": "integer",
    "floor_factor": "real",
    "project_data": "flag",
    "gate_abort": "flag",
}


@dataclass(frozen=True)
class SolverConfig:
    """Discretization, iteration budget, and constants mode for one run."""

    hypothesis: HypothesisSet
    grid: Grid
    horizon: float
    time_nodes: int
    tolerance: float = 1e-10
    max_iterations: int = 12
    power: PowerLaw | None = None
    constants: SolverConstants | None = None
    const_samples: int = 12
    const_nodes: int = 17
    const_seed: int = 2024
    floor_factor: float = 1e-6
    project_data: bool = False
    gate_abort: bool = False

    def __post_init__(self):
        h = self.hypothesis
        if not isinstance(h, HypothesisSet):
            raise ParameterError("hypothesis must be a validated HypothesisSet")
        if not isinstance(self.grid, Grid):
            raise ParameterError("grid must be a Grid")
        if h.n != self.grid.n:
            raise ParameterError(
                f"hypothesis dimension {h.n} does not match grid dimension {self.grid.n}"
            )
        if h.p < 2.0:
            raise ParameterError(f"solver paths require p >= 2, got p = {h.p:g}")
        for name, kind in SETTING_KINDS.items():
            check_kind(name, getattr(self, name), kind)
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise ParameterError(f"horizon must be finite and positive, got {self.horizon}")
        if self.time_nodes < 2:
            raise ParameterError(f"time_nodes must be >= 2, got {self.time_nodes}")
        if not self.tolerance > 0.0:
            raise ParameterError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ParameterError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.power is None:
            object.__setattr__(self, "power", PowerLaw(h.m))
        if self.power.m != h.m:
            raise ConfigurationError(
                f"power law exponent {self.power.m:g} does not match hypothesis m = {h.m:g}"
            )
        if self.const_samples < 1:
            raise ParameterError(f"const_samples must be >= 1, got {self.const_samples}")
        if self.const_nodes < 3:
            raise ParameterError(f"const_nodes must be >= 3, got {self.const_nodes}")
        if self.const_seed < 0:
            raise ParameterError(f"const_seed must be >= 0, got {self.const_seed}")
        if not 0.0 < self.floor_factor < 1.0:
            raise ParameterError(f"floor_factor must lie in (0, 1), got {self.floor_factor}")

    def times(self) -> np.ndarray:
        return log_nodes(self.horizon, self.time_nodes, self.floor_factor)


def _relative_divergence(f: SpectralField) -> float:
    """max |div f| / (nyquist (1 + max |coefficient|)), the scale-free defect."""
    top = float(np.max(np.abs(divergence(f).coeffs)))
    return top / (f.grid.nyquist * (1.0 + float(np.max(np.abs(f.coeffs)))))


class Trajectory:
    """Node times with per-node velocity (and optionally pressure-gradient and
    convection) coefficient stacks, plus the three tracked Besov norms per node."""

    def __init__(self, grid: Grid, times, u, grad_pi=None, norms=None, convection=None):
        self.grid = grid
        self.times = np.asarray(times, dtype=float)
        self.u = np.asarray(u, dtype=np.complex128)
        if self.u.shape[0] != self.times.size:
            raise ShapeError(
                f"{self.u.shape[0]} field nodes for {self.times.size} time nodes"
            )
        if self.u.shape[1:] != (grid.n,) + grid.shape:
            raise ShapeError(f"velocity stack shape {self.u.shape} does not fit the grid")
        self.grad_pi = None if grad_pi is None else np.asarray(grad_pi, dtype=np.complex128)
        if self.grad_pi is not None and self.grad_pi.shape != self.u.shape:
            raise ShapeError("pressure-gradient stack shape differs from velocity stack")
        self.norms = {} if norms is None else dict(norms)
        self.convection = convection

    @property
    def node_count(self) -> int:
        return self.times.size

    def field_at(self, j: int) -> SpectralField:
        return SpectralField(self.grid, self.u[j])

    def pressure_at(self, j: int) -> SpectralField:
        if self.grad_pi is None:
            raise ParameterError("trajectory has no pressure gradients")
        return SpectralField(self.grid, self.grad_pi[j])

    def divergence_defect(self) -> float:
        """Largest relative divergence over the nodes."""
        worst = 0.0
        for j in range(self.node_count):
            worst = max(worst, _relative_divergence(self.field_at(j)))
        return worst

    def with_pressure(self, grad_pi, convection) -> "Trajectory":
        return Trajectory(self.grid, self.times, self.u, grad_pi, self.norms, convection)


def _norm_indices(h: HypothesisSet) -> dict:
    inf = float("inf")
    return {
        "solution": BesovIndex(h.s + 2.0 * h.alpha, h.p, 1.0),
        "higher": BesovIndex(h.s_tilde + 2.0 * h.alpha, h.p, inf),
        "weak": BesovIndex(h.s_tilde, h.p, inf),
    }


def record_norms(traj: Trajectory, h: HypothesisSet, cutoff: DyadicCutoff) -> Trajectory:
    """Fill the per-node norm records tracked for the solution class."""
    indices = _norm_indices(h)
    vals = besov_norms(traj.grid, traj.u, [indices[key] for key in NORM_KEYS], cutoff)
    traj.norms.update(zip(NORM_KEYS, vals.T.copy()))
    return traj


def solution_norm(traj: Trajectory, h: HypothesisSet, cutoff: DyadicCutoff | None = None) -> float:
    """The trajectory's norm in the solution class: Lorentz in time of the
    per-node strong-space norms."""
    if "solution" not in traj.norms:
        record_norms(traj, h, cutoff or build_cutoff(traj.grid))
    return lorentz_norm(
        TimeSamples(traj.times, traj.norms["solution"]), LorentzIndex(h.rho, h.r)
    )


def _solenoidal_or_raise(a: SpectralField, cfg: SolverConfig) -> SpectralField:
    if not a.is_vector:
        raise ShapeError("initial data must be a full vector field")
    defect = _relative_divergence(a)
    if defect <= DIV_TOL:
        return a
    if cfg.project_data:
        return leray_project(a)
    _finite_or_raise("initial data", a.coeffs)
    raise ParameterError(
        f"initial data is not divergence-free (relative defect {defect:.3e}); "
        "enable project_data to project it"
    )


def _finite_or_raise(name: str, coeffs: np.ndarray) -> None:
    if not np.all(np.isfinite(coeffs)):
        raise ParameterError(f"{name} has non-finite coefficients")


def _forcing_coeffs(f, cfg: SolverConfig) -> np.ndarray | None:
    """Normalize forcing input to a finite (J, n, lattice) stack, or None.

    Accepts None, a single field held constant in time, or an
    already-built stack, which is returned unchanged.
    """
    shape = (cfg.time_nodes, cfg.grid.n) + cfg.grid.shape
    if f is None:
        return None
    if isinstance(f, SpectralField):
        if f.grid != cfg.grid:
            raise ShapeError("forcing grid does not match the configuration grid")
        if not f.is_vector:
            raise ShapeError("forcing must be a full vector field")
        stack = np.broadcast_to(f.coeffs[None], shape).copy()
    else:
        stack = np.asarray(f)
    if stack.shape != shape:
        raise ShapeError(f"forcing stack shape {stack.shape} does not fit the grid")
    _finite_or_raise("forcing", stack)
    return stack


def linear_part(a: SpectralField, cfg: SolverConfig) -> Trajectory:
    """Trajectory of the free evolution: exact semigroup decay per mode.

    Non-finite data are rejected here, after the projection, so that in
    picard_solve a gate that fails closed on them aborts first when the
    configuration asks for it.
    """
    a = _solenoidal_or_raise(a, cfg)
    _finite_or_raise("initial data", a.coeffs)
    times = cfg.times()
    grid = cfg.grid
    symbol = grid.power_symbol(cfg.hypothesis.alpha)
    decay = np.exp(-np.multiply.outer(times, symbol))
    return Trajectory(grid, times, decay[:, None] * a.coeffs[None])


def duhamel_apply(g, cfg: SolverConfig) -> Trajectory:
    """Integrate the forced evolution from zero data.

    The forcing is held constant on each subinterval at its left node
    value (the first subinterval, which has no left node, uses the first
    node), and each hold is propagated by the closed-form exponential
    weight (1 - e^(-dt |k|^2a)) / |k|^2a, with dt at |k| = 0.
    """
    times = cfg.times()
    grid = cfg.grid
    stack = np.asarray(g, dtype=np.complex128)
    if stack.shape != (times.size, grid.n) + grid.shape:
        raise ShapeError(f"forcing stack shape {stack.shape} does not fit the grid")
    symbol = grid.power_symbol(cfg.hypothesis.alpha)
    return Trajectory(grid, times, duhamel_nodes(times, stack, symbol, left_hold=True))


def _projected_net_forcing(u_stack, f_stack, cfg: SolverConfig) -> np.ndarray:
    """P f - P (J_m(u) . grad u) per node, mean-free.

    With no iterate (u_stack None) the convection is left out: the
    result is P f, the source of the first iterate u_0 = a_L + S(P f).
    """
    grid = cfg.grid
    J = cfg.time_nodes
    net = np.empty((J, grid.n) + grid.shape, dtype=np.complex128)
    zero = (slice(None),) + (0,) * grid.n
    for j in range(J):
        if u_stack is None:
            gj = np.zeros(net.shape[1:], dtype=np.complex128) if f_stack is None else f_stack[j]
        else:
            uj = SpectralField(grid, u_stack[j])
            conv = convective_term(uj, uj, cfg.power)
            gj = -conv.coeffs if f_stack is None else f_stack[j] - conv.coeffs
        projected = leray_project(SpectralField(grid, gj))
        net[j] = projected.coeffs
        net[j][zero] = 0.0
    return net


def phi_map(u: Trajectory, a: SpectralField, f, cfg: SolverConfig, _lin: Trajectory | None = None) -> Trajectory:
    """One application of Phi(u) = a_L + S(Pf - P(J_m(u) . grad u))."""
    times = cfg.times()
    if not np.array_equal(u.times, times):
        raise ShapeError("iterate nodes do not match the configuration")
    lin = linear_part(a, cfg) if _lin is None else _lin
    out = duhamel_apply(_projected_net_forcing(u.u, _forcing_coeffs(f, cfg), cfg), cfg).u
    out += lin.u
    return Trajectory(cfg.grid, times, out)


@dataclass
class ContractionDiagnostics:
    """Gate arithmetic plus the measured iteration behavior."""

    constants: SolverConstants
    norm_a: float
    norm_f: float
    K0: float
    eta: float
    lambda1: float | None
    gate: bool
    gate_reason: str
    d_history: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    solution_norm: float | None = None
    apriori: dict | None = None

    def ratios(self) -> list:
        out = []
        for k in range(1, len(self.d_history)):
            prev = self.d_history[k - 1]
            out.append(self.d_history[k] / prev if prev > 0.0 else 0.0)
        return out

    def _constants_document(self) -> dict:
        c = self.constants
        out = {"k0": c.k0, "k1": c.k1, "k2": c.k2, "mode": c.mode}
        if c.mode == "estimated":
            # the raw estimator ratios, before the clamp to 1
            out["detail"] = c.detail
        return out

    def document(self) -> dict:
        """JSON-ready diagnostics record."""
        return {
            "K0": self.K0,
            "eta": self.eta,
            "lambda1": self.lambda1,
            "gate": self.gate,
            "gate_reason": self.gate_reason,
            "d_k": list(self.d_history),
            "ratios": self.ratios(),
            "iterations": self.iterations,
            "converged": self.converged,
            "constants": self._constants_document(),
            "norms": {
                "initial_data": self.norm_a,
                "forcing": self.norm_f,
                "solution": self.solution_norm,
                "apriori_bound": 2.0 * self.K0,
            },
            "apriori": self.apriori,
        }


def estimate_solver_constants(cfg: SolverConfig, seed: int | None = None) -> SolverConstants:
    """Empirical k0, k1, k2 from the inequality laboratory, clamped to 1.

    k0 comes from the semigroup inequality, k1 from the Duhamel
    smoothing inequality, k2 from the bilinear convection inequality of
    the hypothesis family.
    """
    h = cfg.hypothesis
    seed = cfg.const_seed if seed is None else seed
    spec = SampleSpec(grid=cfg.grid, time_nodes=cfg.const_nodes, horizon=cfg.horizon)
    bilinear_id = "BILIN_M1" if h.m == 1.0 else "BILIN"
    ratios = {}
    for name, ineq in (("k0", "SEMI"), ("k1", "DUHAMEL"), ("k2", bilinear_id)):
        report = estimate_constant(ineq, h, cfg.const_samples, spec, seed=seed)
        ratios[name] = report.max_ratio
    return SolverConstants(
        k0=max(1.0, ratios["k0"]),
        k1=max(1.0, ratios["k1"]),
        k2=max(1.0, ratios["k2"]),
        mode="estimated",
        detail={
            "samples": cfg.const_samples,
            "seed": seed,
            "bilinear_id": bilinear_id,
            "max_ratios": ratios,
        },
    )


def forcing_weak_norm(f, cfg: SolverConfig) -> float:
    """Forcing size in its Lorentz-Besov class, mean-free per node."""
    f_stack = _forcing_coeffs(f, cfg)
    if f_stack is None:
        return 0.0
    h = cfg.hypothesis
    grid = cfg.grid
    index = BesovIndex(h.s_tilde, h.p, float("inf"))
    mean_free = (SpectralField(grid, fj).with_zero_mean().coeffs for fj in f_stack)
    vals = besov_norms(grid, mean_free, (index,), build_cutoff(grid))[:, 0]
    return lorentz_norm(TimeSamples(cfg.times(), vals), LorentzIndex(h.rho_tilde, h.r))


def smallness_gate(a: SpectralField, f, cfg: SolverConfig, constants: SolverConstants) -> ContractionDiagnostics:
    """Evaluate K0 = k0 ||a|| + k1 ||f||, eta = 1/(16 k2), lambda1, verdict.

    The gate passes when K0 <= eta (boundary included) and 4 k2 lambda1
    < 1; a negative discriminant 1 - 4 k2 K0 leaves lambda1 undefined
    and fails the gate outright.
    """
    h = cfg.hypothesis
    cutoff = build_cutoff(cfg.grid)
    norm_a = besov_norm(a, BesovIndex(h.s0, h.p0, h.r), cutoff)
    norm_f = forcing_weak_norm(f, cfg)
    k2 = constants.k2
    K0 = constants.k0 * norm_a + constants.k1 * norm_f
    eta = 1.0 / (16.0 * k2)
    disc = 1.0 - 4.0 * k2 * K0
    lambda1 = None
    if not math.isfinite(K0):
        gate, reason = False, f"data norm not finite (K0 = {K0:g})"
    elif disc < 0.0:
        gate, reason = False, f"discriminant negative (4 k2 K0 = {4.0 * k2 * K0:g} > 1)"
    else:
        lambda1 = (1.0 - math.sqrt(disc)) / (2.0 * k2)
        factor = 4.0 * k2 * lambda1
        if K0 > eta:
            gate, reason = False, f"smallness exceeded (K0 = {K0:g} > eta = {eta:g})"
        elif factor >= 1.0:
            gate, reason = False, f"contraction factor 4 k2 lambda1 = {factor:g} >= 1"
        else:
            gate, reason = True, ""
    return ContractionDiagnostics(
        constants=constants,
        norm_a=norm_a,
        norm_f=norm_f,
        K0=K0,
        eta=eta,
        lambda1=lambda1,
        gate=gate,
        gate_reason=reason,
    )


def _first_bad_node(stack: np.ndarray, times: np.ndarray):
    for j in range(stack.shape[0]):
        if not np.all(np.isfinite(stack[j].view(float))):
            return j, times[j]
    return None


def _iterate_distance(u_new: Trajectory, u_old: Trajectory, h: HypothesisSet, cutoff) -> float:
    index = BesovIndex(h.s + 2.0 * h.alpha, h.p, 1.0)
    diffs = (new - old for new, old in zip(u_new.u, u_old.u))
    vals = besov_norms(u_new.grid, diffs, (index,), cutoff)[:, 0]
    return lorentz_norm(TimeSamples(u_new.times, vals), LorentzIndex(h.rho, h.r))


def picard_solve(a: SpectralField, f, cfg: SolverConfig, start: Trajectory | None = None):
    """Iterate Phi to its fixed point; returns (Trajectory, diagnostics).

    Starts from the full linear solution u_0 = a_L + S(Pf), formed
    directly without convecting an all-zero iterate, unless an explicit
    starting iterate is supplied.  Stops when the update norm
    d_k falls below the configured tolerance; raises DivergenceError
    when the iteration budget runs out and BlowupError when a field
    stops being finite.  A failing gate aborts only when the
    configuration says so.
    """
    h = cfg.hypothesis
    a = _solenoidal_or_raise(a, cfg)
    cutoff = build_cutoff(cfg.grid)
    f_stack = _forcing_coeffs(f, cfg)
    constants = cfg.constants if cfg.constants is not None else estimate_solver_constants(cfg)
    diag = smallness_gate(a, f_stack, cfg, constants)
    if not diag.gate and cfg.gate_abort:
        raise GateError(f"smallness gate failed: {diag.gate_reason}", diag)
    lin = linear_part(a, cfg)
    if start is None:
        u0 = duhamel_apply(_projected_net_forcing(None, f_stack, cfg), cfg).u
        u0 += lin.u
        current = Trajectory(cfg.grid, lin.times, u0)
    else:
        if not np.array_equal(start.times, cfg.times()):
            raise ShapeError("starting iterate nodes do not match the configuration")
        current = start
    for k in range(cfg.max_iterations):
        candidate = phi_map(current, a, f_stack, cfg, _lin=lin)
        bad = _first_bad_node(candidate.u, candidate.times)
        if bad is not None:
            raise BlowupError(
                f"non-finite field at node {bad[0]} (t = {bad[1]:g})", bad[0], bad[1]
            )
        d_k = _iterate_distance(candidate, current, h, cutoff)
        diag.d_history.append(d_k)
        current = candidate
        diag.iterations = k + 1
        if d_k < cfg.tolerance:
            diag.converged = True
            break
    if not diag.converged:
        raise DivergenceError(
            f"no convergence within {cfg.max_iterations} iterations "
            f"(last update {diag.d_history[-1]:g}, tolerance {cfg.tolerance:g})",
            diag.d_history,
        )
    record_norms(current, h, cutoff)
    diag.solution_norm = solution_norm(current, h, cutoff)
    bound = 2.0 * diag.K0
    diag.apriori = {
        "solution_norm": diag.solution_norm,
        "bound": bound,
        "constants_mode": constants.mode,
        "ok": bool(diag.solution_norm <= 1.1 * bound),
    }
    return current, diag


def pressure_recover(u: Trajectory, f, cfg: SolverConfig) -> Trajectory:
    """Fill pressure gradients (I - P)(f - J_m(u) . grad u) per node, and
    keep each node's convection J_m(u) . grad u beside them."""
    f_stack = _forcing_coeffs(f, cfg)
    grid = cfg.grid
    grad_pi = np.empty_like(u.u)
    conv = np.empty_like(u.u)
    for j in range(u.node_count):
        uj = u.field_at(j)
        conv[j] = convective_term(uj, uj, cfg.power).coeffs
        gj = -conv[j] if f_stack is None else f_stack[j] - conv[j]
        g_field = SpectralField(grid, gj)
        grad_pi[j] = g_field.coeffs - leray_project(g_field).coeffs
    return u.with_pressure(grad_pi, conv)


def residual_check(u: Trajectory, a: SpectralField, f, cfg: SolverConfig) -> float:
    """Largest relative strong-equation residual over interior nodes.

    u carries the pressure gradients and convection of pressure_recover.
    The time derivative is the forward difference between consecutive
    nodes, so the result is first order in the node spacing; it is
    measured in the weak Besov class and divided by the data scale
    ||a|| + ||f|| (absolute when the data are zero).
    """
    J = u.node_count
    if J < 3:
        raise ConfigurationError(f"residual check needs at least 3 nodes, got {J}")
    if u.grad_pi is None or u.convection is None:
        raise ParameterError("trajectory has no pressure gradients; run pressure_recover first")
    h = cfg.hypothesis
    grid = cfg.grid
    cutoff = build_cutoff(grid)
    f_stack = _forcing_coeffs(f, cfg)
    symbol = grid.power_symbol(h.alpha)
    weak = BesovIndex(h.s_tilde, h.p, float("inf"))
    zero = (slice(None),) + (0,) * grid.n

    def residuals():
        for j in range(1, J - 1):
            fd = (u.u[j + 1] - u.u[j]) / (u.times[j + 1] - u.times[j])
            res = fd + symbol[None] * u.u[j] + u.convection[j] + u.grad_pi[j]
            if f_stack is not None:
                res = res - f_stack[j]
            res[zero] = 0.0
            yield res

    worst = max(0.0, *besov_norms(grid, residuals(), (weak,), cutoff)[:, 0].tolist())
    cutoff_scale = besov_norm(a, BesovIndex(h.s0, h.p0, h.r), cutoff) + forcing_weak_norm(
        f_stack, cfg
    )
    return worst / cutoff_scale if cutoff_scale > 0.0 else worst


def write_norm_csv(traj: Trajectory, path) -> None:
    """Node times with the three tracked norms, one row per node."""
    if any(key not in traj.norms for key in NORM_KEYS):
        raise ParameterError("trajectory norms have not been recorded")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t," + ",".join(NORM_KEYS) + "\n")
        for j in range(traj.node_count):
            row = [format(traj.times[j], ".17g")]
            row += [format(traj.norms[k][j], ".17g") for k in NORM_KEYS]
            fh.write(",".join(row) + "\n")


def save_trajectory(traj: Trajectory, directory, stem: str = "u") -> list:
    """Write one field file per node; returns the written paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for j in range(traj.node_count):
        path = os.path.join(directory, f"{stem}_{j:04d}.gnsf")
        write_field(traj.field_at(j), path)
        paths.append(path)
    if traj.grad_pi is not None:
        for j in range(traj.node_count):
            path = os.path.join(directory, f"gradpi_{j:04d}.gnsf")
            write_field(traj.pressure_at(j), path)
            paths.append(path)
    return paths
