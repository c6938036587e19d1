"""Picard iteration on the mild formulation, with contraction diagnostics.

The solver constructs the fixed point of Phi(u) = a_L + S(Pf - P(J_m(u)
. grad u)) on log-spaced time nodes.  Both parts come from one kernel,
spectral_core.duhamel_nodes: the free part a_L = e^(-tA) a is exact per
mode at every node, and the Duhamel part holds the source at each step's
left node, so the last node is never convected, and integrates the
exponential weight in closed form: the only time error is that hold.
Phi is causal, so one sweep overwrites the iterate's one stack node by
node: the sources reach the kernel one node at a time, each read from
the old node before it is overwritten, and node j - 1 is written, after
a check that it is finite, once the kernel has yielded node j; each
update new - old goes to the norms as it is formed.  phi_map is that
sweep over a copy, and picard_solve keeps one trajectory stack;
pressure_recover hands each node's pressure gradient to a callback, so
it builds no stack beside it.  Smallness enters through the gate
K0 <= eta = 1/(16 k2) together with 4 k2 lambda1 < 1; the contraction
constants k0, k1, k2 are either supplied or estimated empirically, and
the gate verdict never blocks a run unless the configuration asks for
an abort.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .besov_analysis import BesovIndex, besov_norm, besov_norms, trajectory_norm
from .errors import (
    BlowupError,
    DivergenceError,
    GateError,
    ParameterError,
    ShapeError,
    check_kind,
)
from .estimates_lab import HypothesisSet, SampleSpec, estimate_constant
from .lorentz_time import TimeSamples, log_nodes, lorentz_norm
from .nonlinearity import PowerLaw, solenoidal_convection
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
    "dealias_factor": "integer",
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
    constants: SolverConstants | None = None
    const_samples: int = 12
    const_nodes: int = 17
    const_seed: int = 2024
    floor_factor: float = 1e-6
    project_data: bool = False
    gate_abort: bool = False
    dealias_factor: int = 2

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
        self.power  # PowerLaw rejects a dealias_factor other than 2, 3 or 4
        if self.const_samples < 1:
            raise ParameterError(f"const_samples must be >= 1, got {self.const_samples}")
        if self.const_nodes < 3:
            raise ParameterError(f"const_nodes must be >= 3, got {self.const_nodes}")
        if self.const_seed < 0:
            raise ParameterError(f"const_seed must be >= 0, got {self.const_seed}")
        if not 0.0 < self.floor_factor < 1.0:
            raise ParameterError(f"floor_factor must lie in (0, 1), got {self.floor_factor}")

    @property
    def power(self) -> PowerLaw:
        """The hypothesis's power law, with this run's dealias_factor."""
        return PowerLaw(self.hypothesis.m, self.dealias_factor)

    def times(self) -> np.ndarray:
        return log_nodes(self.horizon, self.time_nodes, self.floor_factor)


def _relative_divergence(f: SpectralField) -> float:
    """max |div f| / (nyquist (1 + max |coefficient|)), the scale-free defect."""
    top = float(np.max(np.abs(divergence(f).coeffs)))
    return top / (f.grid.nyquist * (1.0 + float(np.max(np.abs(f.coeffs)))))


class Trajectory:
    """Node times with the per-node velocity coefficient stack, plus the
    three tracked Besov norms per node."""

    def __init__(self, grid: Grid, times, u, norms=None):
        self.grid = grid
        self.times = np.asarray(times, dtype=float)
        self.u = np.asarray(u, dtype=np.complex128)
        if self.u.shape[0] != self.times.size:
            raise ShapeError(
                f"{self.u.shape[0]} field nodes for {self.times.size} time nodes"
            )
        if self.u.shape[1:] != (grid.n,) + grid.half_shape:
            raise ShapeError(f"velocity stack shape {self.u.shape} does not fit the grid")
        self.norms = {} if norms is None else dict(norms)

    @property
    def node_count(self) -> int:
        return self.times.size

    def field_at(self, j: int) -> SpectralField:
        return SpectralField(self.grid, self.u[j])

    def divergence_defect(self) -> float:
        """Largest relative divergence over the nodes."""
        worst = 0.0
        for j in range(self.node_count):
            worst = max(worst, _relative_divergence(self.field_at(j)))
        return worst


def _norm_indices(h: HypothesisSet) -> dict:
    return {
        "solution": h.solution_class.space,
        "higher": BesovIndex(h.s_tilde + 2.0 * h.alpha, h.p, float("inf")),
        "weak": h.weak_class.space,
    }


def record_norms(traj: Trajectory, h: HypothesisSet) -> Trajectory:
    """Fill the per-node norm records tracked for the solution class."""
    indices = _norm_indices(h)
    vals = besov_norms(traj.grid, traj.u, [indices[key] for key in NORM_KEYS])
    traj.norms.update(zip(NORM_KEYS, vals.T.copy()))
    return traj


def solution_norm(traj: Trajectory, h: HypothesisSet) -> float:
    """The trajectory's norm in the solution class: Lorentz in time of the
    per-node strong-space norms."""
    if "solution" not in traj.norms:
        record_norms(traj, h)
    return lorentz_norm(TimeSamples(traj.times, traj.norms["solution"]), h.solution_class.time)


def _solenoidal_or_raise(a: SpectralField, cfg: SolverConfig) -> SpectralField:
    _finite_or_raise("initial data", a.coeffs)
    if not a.is_vector:
        raise ShapeError("initial data must be a full vector field")
    defect = _relative_divergence(a)
    if defect <= DIV_TOL:
        return a
    if cfg.project_data:
        return leray_project(a)
    raise ParameterError(
        f"initial data is not divergence-free (relative defect {defect:.3e}); "
        "enable project_data to project it"
    )


def _finite_or_raise(name: str, coeffs: np.ndarray) -> None:
    if not np.all(np.isfinite(coeffs)):
        raise ParameterError(f"{name} has non-finite coefficients")


def _forcing_coeffs(f, cfg: SolverConfig) -> np.ndarray | None:
    """Normalize forcing input to a finite (J, n, lattice) stack, or None.

    Accepts None, a single field held constant in time (a read-only
    view, not J copies), or an already-built stack, returned unchanged.
    """
    shape = (cfg.time_nodes, cfg.grid.n) + cfg.grid.half_shape
    if f is None:
        return None
    if isinstance(f, SpectralField):
        if f.grid != cfg.grid:
            raise ShapeError("forcing grid does not match the configuration grid")
        if not f.is_vector:
            raise ShapeError("forcing must be a full vector field")
        stack = np.broadcast_to(f.coeffs[None], shape)
    else:
        stack = np.asarray(f)
    if stack.shape != shape:
        raise ShapeError(f"forcing stack shape {stack.shape} does not fit the grid")
    _finite_or_raise("forcing", stack)
    return stack


def _projected_net_forcing(u_stack, f_stack, cfg: SolverConfig):
    """Phi's step sources P f - P (J_m(u) . grad u), mean-free, held at
    each step's left node, yielded one at a time in step order: the
    first step (0, t_0] and the step (t_0, t_1] both hold node 0, and
    step j + 1 holds node j, so node J - 1 is never convected.  With no
    iterate (u_stack None) the convection is left out, giving the
    sources P f of the first iterate u_0 = a_L + S(P f), so f_stack must
    then be given.
    """
    grid = cfg.grid
    zero = (slice(None),) + (0,) * grid.n
    for j in range(cfg.time_nodes - 1):
        if u_stack is None:
            gj = f_stack[j]
        else:
            conv = solenoidal_convection(SpectralField(grid, u_stack[j]), cfg.power)
            gj = -conv.coeffs if f_stack is None else f_stack[j] - conv.coeffs
        source = leray_project(SpectralField(grid, gj)).coeffs
        source[zero] = 0.0
        if j == 0:
            yield source
        yield source


def _iterate_or_raise(u: Trajectory, cfg: SolverConfig) -> None:
    if u.grid != cfg.grid:
        raise ShapeError("iterate grid does not match the configuration grid")
    if not np.array_equal(u.times, cfg.times()):
        raise ShapeError("iterate nodes do not match the configuration")
    _finite_or_raise("iterate", u.u)


def _sweep(stack: np.ndarray, a: SpectralField, f_stack, cfg: SolverConfig, convect: bool = True):
    """Overwrite stack, the iterate u, with Phi(u) node by node, yielding
    each node's update Phi(u)_j - u_j as its node is written.

    Without convect the sources leave the convection out, so Phi does
    not read the iterate: that gives the first iterate a_L + S(P f).
    Step j + 1 reads node j's source, so node j - 1 is held until the
    kernel has yielded node j: every source comes from the old iterate,
    and the sweep is Picard iteration.  A node that is not finite raises
    BlowupError before it is written, leaving stack partly overwritten.
    """
    times = cfg.times()
    symbol = cfg.grid.power_symbol(cfg.hypothesis.alpha)
    sources = None
    if convect or f_stack is not None:
        sources = _projected_net_forcing(stack if convect else None, f_stack, cfg)
    pending = None
    for j, node in enumerate(duhamel_nodes(times, sources, symbol, a.coeffs)):
        if not np.all(np.isfinite(node)):
            raise BlowupError(f"non-finite field at node {j} (t = {times[j]:g})", j, times[j])
        if j:
            update = pending - stack[j - 1]
            stack[j - 1] = pending
            yield update
        pending = node
    update = pending - stack[-1]
    stack[-1] = pending
    yield update


def phi_map(u: Trajectory | None, a: SpectralField, f, cfg: SolverConfig) -> Trajectory:
    """One application of Phi(u) = a_L + S(Pf - P(J_m(u) . grad u)).

    With no iterate (u None) the convection is left out, which gives the
    first iterate a_L + S(Pf); with no forcing either, that is a_L alone.
    It is the solver's sweep run over a copy of u's stack (a zero stack
    for u None), so u is never written; an iterate on another grid or
    nodes, or with non-finite coefficients, raises ShapeError or
    ParameterError, and a node that is not finite raises BlowupError.
    """
    if u is not None:
        _iterate_or_raise(u, cfg)
    a = _solenoidal_or_raise(a, cfg)
    f_stack = _forcing_coeffs(f, cfg)
    if u is None:
        stack = np.zeros((cfg.time_nodes,) + a.coeffs.shape, dtype=np.complex128)
    else:
        stack = u.u.copy()
    for _ in _sweep(stack, a, f_stack, cfg, convect=u is not None):
        pass
    return Trajectory(cfg.grid, cfg.times(), stack)


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
    grid = cfg.grid
    mean_free = (SpectralField(grid, fj).with_zero_mean().coeffs for fj in f_stack)
    return trajectory_norm(grid, cfg.times(), mean_free, cfg.hypothesis.weak_class)


def smallness_gate(a: SpectralField, f, cfg: SolverConfig, constants: SolverConstants) -> ContractionDiagnostics:
    """Evaluate K0 = k0 ||a|| + k1 ||f||, eta = 1/(16 k2), lambda1, verdict.

    The gate passes when K0 <= eta (boundary included) and 4 k2 lambda1
    < 1; a negative discriminant 1 - 4 k2 K0 leaves lambda1 undefined
    and fails the gate outright.
    """
    norm_a = besov_norm(a, cfg.hypothesis.data_space)
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


def picard_solve(a: SpectralField, f, cfg: SolverConfig, start: Trajectory | None = None):
    """Iterate Phi to its fixed point; returns (Trajectory, diagnostics).

    Starts from the full linear solution u_0 = a_L + S(Pf), which
    phi_map forms without convecting an all-zero iterate, unless an
    explicit starting iterate is supplied: it must lie on the
    configuration's grid and nodes and be finite (ShapeError or
    ParameterError otherwise), and it is copied once and never written.
    Each iteration is one sweep over the solver's one iterate stack,
    whose updates give d_k.  Stops when d_k falls below the configured
    tolerance; raises DivergenceError when the iteration budget runs out
    and BlowupError when a node's field or update norm stops being
    finite.  A failing gate aborts only when the configuration says so.
    """
    h = cfg.hypothesis
    a = _solenoidal_or_raise(a, cfg)
    f_stack = _forcing_coeffs(f, cfg)
    if start is not None:
        _iterate_or_raise(start, cfg)
    constants = cfg.constants if cfg.constants is not None else estimate_solver_constants(cfg)
    diag = smallness_gate(a, f_stack, cfg, constants)
    if not diag.gate and cfg.gate_abort:
        raise GateError(f"smallness gate failed: {diag.gate_reason}", diag)
    if start is None:
        current = phi_map(None, a, f_stack, cfg)
    else:
        current = Trajectory(cfg.grid, start.times, start.u.copy())
    times = current.times
    for k in range(cfg.max_iterations):
        updates = _sweep(current.u, a, f_stack, cfg)
        norms = besov_norms(cfg.grid, updates, (h.solution_class.space,))[:, 0]
        bad = np.flatnonzero(~np.isfinite(norms))
        if bad.size:
            j = int(bad[0])
            raise BlowupError(
                f"update norm not finite at node {j} (t = {times[j]:g})", j, times[j]
            )
        d_k = lorentz_norm(TimeSamples(times, norms), h.solution_class.time)
        diag.d_history.append(d_k)
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
    record_norms(current, h)
    diag.solution_norm = solution_norm(current, h)
    bound = 2.0 * diag.K0
    diag.apriori = {
        "solution_norm": diag.solution_norm,
        "bound": bound,
        "constants_mode": constants.mode,
        "ok": bool(diag.solution_norm <= 1.1 * bound),
    }
    return current, diag


def pressure_recover(
    u: Trajectory, f, cfg: SolverConfig, diag: ContractionDiagnostics, on_gradient=None
) -> float | None:
    """The strong-equation residual, with each node's pressure gradient
    handed to on_gradient(j, grad_pi) as it is formed; returns the residual.

    Node j's convection J_m(u) . grad u is formed once.  It gives the
    pressure gradient (I - P)(f - J_m(u) . grad u), and at an interior
    node the residual u_t + A u + J_m(u) . grad u + grad pi - f, whose
    time derivative is the forward difference to the next node, so the
    result is first order in the node spacing.  No gradient is kept past
    its node.  The residual is the largest of these in the weak Besov
    class, divided by the gate's data scale ||a|| + ||f|| from diag,
    where a is the solved datum (P a under project_data); it is absolute
    when the data are zero, and None for fewer than 3 nodes.
    """
    h = cfg.hypothesis
    grid = cfg.grid
    f_stack = _forcing_coeffs(f, cfg)
    symbol = grid.power_symbol(h.alpha)
    zero = (slice(None),) + (0,) * grid.n
    J = u.node_count

    def residuals():
        # node J - 1's gradient is handed over only once the caller drains this
        for j in range(J):
            conv = solenoidal_convection(u.field_at(j), cfg.power).coeffs
            g_field = SpectralField(grid, -conv if f_stack is None else f_stack[j] - conv)
            grad_pi = g_field.coeffs - leray_project(g_field).coeffs
            if on_gradient is not None:
                on_gradient(j, SpectralField(grid, grad_pi))
            if 0 < j < J - 1:
                fd = (u.u[j + 1] - u.u[j]) / (u.times[j + 1] - u.times[j])
                res = fd + symbol[None] * u.u[j] + conv + grad_pi
                if f_stack is not None:
                    res = res - f_stack[j]
                res[zero] = 0.0
                yield res

    norms = besov_norms(grid, residuals(), (h.weak_class.space,))[:, 0]
    if J < 3:
        return None
    worst = max(0.0, *norms.tolist())
    scale = diag.norm_a + diag.norm_f
    return worst / scale if scale > 0.0 else worst


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


def save_trajectory(traj: Trajectory, directory) -> list:
    """Write one velocity field file u_<j>.gnsf per node; returns the written paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for j in range(traj.node_count):
        path = os.path.join(directory, f"u_{j:04d}.gnsf")
        write_field(traj.field_at(j), path)
        paths.append(path)
    return paths
