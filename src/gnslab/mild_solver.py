"""Picard iteration on the mild formulation, with contraction diagnostics.

The solver constructs the fixed point of Phi(u) = a_L + S(Pf - P(J_m(u)
. grad u)) on log-spaced time nodes.  Both parts come from one kernel,
spectral_core.duhamel_nodes: the free part a_L = e^(-tA) a is exact per
mode at every node, and the Duhamel part holds the source at each step's
left node, so the last node is never convected, and integrates the
exponential weight in closed form: the only time error is that hold.
Phi's source is one function of the node, node j's projected net
forcing, and the sweep is its one reader.  Phi is causal, so one sweep
overwrites the iterate's one stack node by node: it forms each source
from the old node before that node is overwritten and holds it at the
left node, and node j - 1 is written, after a check that it is finite,
once the kernel has yielded node j; each update new - old goes to the
norms as it is formed.  phi_map is that sweep over a copy, and
picard_solve keeps one trajectory stack.  The converged iterate is Phi
of the one before it, so it solves the discrete equation with the last
sweep's sources: picard_solve takes the residual from that sweep, where
it measures the hold's quadrature error.  The pressure gradients are
the gradient parts of the same sources: forming them hands them to an
optional callback, so none is kept, and only node J - 1, which no step
holds, is convected once more after the last sweep.  Smallness enters through the gate
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
    check_fields,
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
        # a solve document sets these fields under their own names
        check_fields(self)
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise ParameterError(f"horizon must be finite and positive, got {self.horizon}")
        if self.time_nodes < 2:
            raise ParameterError(f"time_nodes must be >= 2, got {self.time_nodes}")
        if self.time_nodes * self.grid.n * math.prod(self.grid.half_shape) * 16 > np.iinfo(np.intp).max:
            raise ParameterError(f"time_nodes must leave arrays numpy can size, got {self.time_nodes}")
        if not self.tolerance > 0.0:
            raise ParameterError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ParameterError(f"max_iterations must be >= 1, got {self.max_iterations}")
        self.power  # PowerLaw rejects a dealias_factor other than 2, 3 or 4
        if self.const_samples < 1:
            raise ParameterError(f"const_samples must be >= 1, got {self.const_samples}")
        if self.const_samples > np.iinfo(np.intp).max // 16:
            raise ParameterError(f"const_samples must leave arrays numpy can size, got {self.const_samples}")
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

    def __init__(self, grid: Grid, times, u):
        self.grid = grid
        self.times = np.asarray(times, dtype=float)
        self.u = np.asarray(u, dtype=np.complex128)
        if self.u.shape[0] != self.times.size:
            raise ShapeError(
                f"{self.u.shape[0]} field nodes for {self.times.size} time nodes"
            )
        if self.u.shape[1:] != (grid.n,) + grid.half_shape:
            raise ShapeError(f"velocity stack shape {self.u.shape} does not fit the grid")
        self.norms = {}

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


def _phi_source(u_stack, f_stack, cfg: SolverConfig, on_gradient=None):
    """Phi's source as a function of the node, or None when it is zero:
    node j maps to a new array P g_j, g_j = f_j - J_m(u_j) . grad u_j (no
    f_j without forcing), with u_j read from u_stack when it is called.
    With no iterate (u_stack None) the convection is left out, giving the
    sources P f_j of the first iterate; with one, on_gradient, if given, is
    handed node j's pressure gradient g_j - P g_j, formed in place of g_j.
    """
    grid = cfg.grid
    if u_stack is None:
        if f_stack is None:
            return None
        return lambda j: leray_project(SpectralField(grid, f_stack[j])).coeffs

    def source(j: int) -> np.ndarray:
        g = solenoidal_convection(SpectralField(grid, u_stack[j]), cfg.power).coeffs
        g = -g if f_stack is None else f_stack[j] - g  # the convection is freed before the projection
        pg = leray_project(SpectralField(grid, g)).coeffs
        if on_gradient is not None:
            g -= pg
            on_gradient(j, SpectralField(grid, g))
        return pg

    return source


def _iterate_or_raise(u: Trajectory, cfg: SolverConfig) -> None:
    if u.grid != cfg.grid:
        raise ShapeError("iterate grid does not match the configuration grid")
    if not np.array_equal(u.times, cfg.times()):
        raise ShapeError("iterate nodes do not match the configuration")
    _finite_or_raise("iterate", u.u)


def _sweep(stack: np.ndarray, a: SpectralField, source, cfg: SolverConfig):
    """Overwrite stack, the iterate u, with Phi(u) node by node, yielding
    each node's update Phi(u)_j - u_j as its node is written.

    source is Phi's source as a function of the node (see _phi_source),
    or None for the free evolution a_L.  The sweep holds it at each
    step's left node, mean free: the first step (0, t_0] and the step
    (t_0, t_1] both hold source(0), and step j + 1 holds source(j), so
    source(J - 1) is never formed.  Node j - 1 is written once the kernel
    has yielded node j, after source(j - 1) was read from it: every
    source comes from the old iterate, and the sweep is Picard
    iteration.  A node that is not finite raises BlowupError before it
    is written, leaving stack partly overwritten.

    With a source, node j's update is followed, for 1 <= j <= J - 2, by
    its residual row (v_{j+1} - v_j)/(t_{j+1} - t_j) + A v_j - S_j, mean
    free, where v = Phi(u) and S_j is the hold of step j + 1: v solves the
    step-held equation with these sources exactly, so the row is the
    hold's quadrature error.  It is formed once the kernel has yielded
    node j + 1, and no row or update is kept while the next source is
    formed.
    """
    times = cfg.times()
    symbol = cfg.grid.power_symbol(cfg.hypothesis.alpha)
    zero = (slice(None),) + (0,) * cfg.grid.n
    holds = held = None
    if source is not None:
        held = source(0)
        held[zero] = 0.0
        # the kernel reads hold j + 1 once the loop is done with node j,
        # so it reads held as the loop below has last set it
        holds = (held for _ in times)
    pending = None
    for j, node in enumerate(duhamel_nodes(times, holds, symbol, a.coeffs)):
        if not np.all(np.isfinite(node)):
            raise BlowupError(f"non-finite field at node {j} (t = {times[j]:g})", j, times[j])
        if j:
            update = pending - stack[j - 1]
            stack[j - 1] = pending
            yield update
            del update
            if source is not None and j > 1:
                row = (node - pending) / (times[j] - times[j - 1])
                row += symbol * pending
                row -= held
                row[zero] = 0.0
                yield row
                del row
        pending = node
        if source is not None and 0 < j < len(times) - 1:
            held = source(j)
            held[zero] = 0.0
    update = pending - stack[-1]
    stack[-1] = pending
    yield update


def phi_map(u: Trajectory | None, a: SpectralField, f, cfg: SolverConfig) -> Trajectory:
    """One application of Phi(u) = a_L + S(Pf - P(J_m(u) . grad u)).

    With no iterate (u None) the convection is left out, which gives the
    first iterate a_L + S(Pf); with no forcing either, that is a_L alone.
    It is the solver's sweep run over a copy of u's stack (a zero stack
    for u None) and drained, residual rows and all, so u is never
    written; an iterate on another grid or nodes, or with non-finite
    coefficients, raises ShapeError or ParameterError, and a node that
    is not finite raises BlowupError.
    """
    if u is not None:
        _iterate_or_raise(u, cfg)
    a = _solenoidal_or_raise(a, cfg)
    f_stack = _forcing_coeffs(f, cfg)
    if u is None:
        stack = np.zeros((cfg.time_nodes,) + a.coeffs.shape, dtype=np.complex128)
    else:
        stack = u.u.copy()
    for _ in _sweep(stack, a, _phi_source(None if u is None else stack, f_stack, cfg), cfg):
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
    converged: bool = False
    solution_norm: float | None = None
    residual: float | None = None  # set by picard_solve, not part of document()

    @property
    def iterations(self) -> int:
        """Picard iterations run: one update size is recorded per iteration."""
        return len(self.d_history)

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
        """JSON-ready diagnostics record; its a-priori check of the
        solution norm against 2 K0 is null until that norm is set."""
        bound = 2.0 * self.K0
        apriori = None
        if self.solution_norm is not None:
            apriori = {
                "solution_norm": self.solution_norm,
                "bound": bound,
                "constants_mode": self.constants.mode,
                "ok": bool(self.solution_norm <= 1.1 * bound),
            }
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
                "apriori_bound": bound,
            },
            "apriori": apriori,
        }


def estimate_solver_constants(cfg: SolverConfig) -> SolverConstants:
    """Empirical k0, k1, k2 from the inequality laboratory, clamped to 1.

    k0 comes from the semigroup inequality, k1 from the Duhamel
    smoothing inequality, k2 from the bilinear convection inequality of
    the hypothesis family.
    """
    h = cfg.hypothesis
    spec = SampleSpec(grid=cfg.grid, time_nodes=cfg.const_nodes, horizon=cfg.horizon)
    bilinear_id = "BILIN_M1" if h.m == 1.0 else "BILIN"
    ratios = {}
    for name, ineq in (("k0", "SEMI"), ("k1", "DUHAMEL"), ("k2", bilinear_id)):
        report = estimate_constant(ineq, h, cfg.const_samples, spec, seed=cfg.const_seed)
        ratios[name] = report.max_ratio
    return SolverConstants(
        k0=max(1.0, ratios["k0"]),
        k1=max(1.0, ratios["k1"]),
        k2=max(1.0, ratios["k2"]),
        mode="estimated",
        detail={
            "samples": cfg.const_samples,
            "seed": cfg.const_seed,
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


def picard_solve(a: SpectralField, f, cfg: SolverConfig, start: Trajectory | None = None,
                 on_gradient=None):
    """Iterate Phi to its fixed point; returns (Trajectory, diagnostics).

    Starts from the full linear solution u_0 = a_L + S(Pf), which
    phi_map forms without convecting an all-zero iterate, unless an
    explicit starting iterate is supplied: it must lie on the
    configuration's grid and nodes and be finite (ShapeError or
    ParameterError otherwise), and it is copied once and never written.
    Each iteration is one sweep over the solver's one iterate stack,
    reading one source function built over that stack, and the sweep's
    updates give d_k.  Stops when d_k falls below the configured
    tolerance; raises DivergenceError when the iteration budget runs out
    and BlowupError when a node's field or update norm stops being
    finite.  A failing gate aborts only when the configuration says so.

    The residual comes from the last sweep, which convects nothing after
    it: the solution u solves the step-held equation exactly with that
    sweep's sources S_j, the projected net forcing of the iterate before
    it, so the residual row (u_{j+1} - u_j)/(t_{j+1} - t_j) + A u_j - S_j
    of each interior node measures the hold's quadrature error, first
    order in the node spacing.  The rows' weak-class norms come from the
    same norm pass as the updates' solution-class norms, which share
    their p; diagnostics.residual is the largest, divided by the gate's
    data scale ||a|| + ||f|| (||P a|| under project_data), absolute when
    the data are zero, and None for fewer than 3 nodes.

    on_gradient, if given, receives the pressure gradients (I - P)(f -
    J_m(u) . grad u) as on_gradient(j, grad_pi), one node at a time, and
    no stack of them is kept.  Each sweep hands over nodes 0 .. J - 2 in
    node order as it forms their sources, so the last array handed for
    node j is the gradient part of the source S_j that the solution
    solves the discrete equation with, as the residual does.  No step
    holds node J - 1, so once the iteration has converged the same source
    function forms it from the solution's last node.  A solve that
    fails has handed over the gradients of the sweeps it ran.
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
    # the sweep's rows: node j's update, then for 1 <= j <= J - 2 its residual row
    residual_rows = np.arange(2, 2 * cfg.time_nodes - 3, 2)
    indices = (h.solution_class.space, h.weak_class.space)
    source = _phi_source(current.u, f_stack, cfg, on_gradient)
    for _ in range(cfg.max_iterations):
        rows = besov_norms(cfg.grid, _sweep(current.u, a, source, cfg), indices)
        norms = np.delete(rows[:, 0], residual_rows)
        bad = np.flatnonzero(~np.isfinite(norms))
        if bad.size:
            j = int(bad[0])
            raise BlowupError(
                f"update norm not finite at node {j} (t = {times[j]:g})", j, times[j]
            )
        d_k = lorentz_norm(TimeSamples(times, norms), h.solution_class.time)
        diag.d_history.append(d_k)
        if d_k < cfg.tolerance:
            diag.converged = True
            break
    if not diag.converged:
        raise DivergenceError(
            f"no convergence within {cfg.max_iterations} iterations "
            f"(last update {diag.d_history[-1]:g}, tolerance {cfg.tolerance:g})",
            diag.d_history,
        )
    if on_gradient is not None:  # no step holds node J - 1, so its gradient takes one convection
        source(cfg.time_nodes - 1)
    if residual_rows.size:
        worst = float(np.max(rows[residual_rows, 1]))
        scale = diag.norm_a + diag.norm_f
        diag.residual = worst / scale if scale > 0.0 else worst
    record_norms(current, h)
    diag.solution_norm = solution_norm(current, h)
    return current, diag


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
