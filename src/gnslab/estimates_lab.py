"""Admissible exponent sets and empirical constants for the norm inequalities.

The laboratory has three parts.  First, hypothesis checking: a parameter
set (m, n, p, rho, alpha, r) is admissible when it satisfies one of three
families of strict inequalities selected by the power m (H0 for m = 1,
H1 for 1 < m < 2, H2 for m >= 2), and every admissible set determines
derived regularity indices (s, s_tilde, rho_tilde, s0, p0) linked by a
compatibility window.  Second, constant estimation: each supported norm
inequality is sampled on random band-limited fields (or random step
trajectories of them) and the empirical constant max lhs/rhs is
reported; constants are reported, never asserted against theory, since
only their existence is guaranteed.  Third, the scaling check: the
critical norms must be invariant under u -> lam^((2a-1)/m) u(lam x,
lam^(2a) t) with lam a power of two, which box dilation realizes
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .besov_analysis import BesovIndex, LorentzBesov, besov_norm, besov_norms, build_cutoff, trajectory_norm
from .errors import (
    EvaluationError,
    HypothesisError,
    ParameterError,
    SideConditionError,
    check_kind,
)
from .lorentz_time import LorentzIndex, TimeSamples, log_nodes, lorentz_norm
from .nonlinearity import (
    POINTWISE_TOL,
    PowerLaw,
    apply_power,
    dealiased_product,
    pointwise_difference_bound,
    step_convection,
)
from .parallel import pmap
from .spectral_core import (
    Grid,
    SpectralField,
    _mix,
    dilate,
    duhamel_nodes,
    leray_project,
)

WINDOW_TOL = 1e-12
_INF = float("inf")

# lemma-ab draws its vector pairs in chunks of LEMMA_AB_CHUNK, with
# coordinates of size at most LEMMA_AB_AMPLITUDE
LEMMA_AB_CHUNK = 20000
LEMMA_AB_AMPLITUDE = 10.0


# -- hypothesis families --------------------------------------------------


@dataclass(frozen=True)
class HypothesisSet:
    """A validated exponent set together with its derived indices."""

    label: str
    m: float
    n: int
    p: float
    p0: float
    rho: float
    r: float
    alpha: float
    s: float
    s_tilde: float
    rho_tilde: float
    s0: float

    @property
    def data_space(self) -> BesovIndex:
        """B^{s0}_{p0,r}, the space of the initial data."""
        return BesovIndex(self.s0, self.p0, self.r)

    @property
    def solution_class(self) -> LorentzBesov:
        """L^{rho,r}(B^{s+2 alpha}_{p,1}), the class of the solution."""
        return LorentzBesov(
            BesovIndex(self.s + 2.0 * self.alpha, self.p, 1.0), LorentzIndex(self.rho, self.r)
        )

    @property
    def weak_class(self) -> LorentzBesov:
        """L^{rho~,r}(B^{s~}_{p,inf}), the class of the forcing and the convection."""
        return LorentzBesov(
            BesovIndex(self.s_tilde, self.p, _INF), LorentzIndex(self.rho_tilde, self.r)
        )


def _validate_basic(m, n, p, rho, alpha, r, p0) -> None:
    if not (math.isfinite(m) and m >= 1.0):
        raise ParameterError(f"m must be finite and >= 1, got {m}")
    if n not in (2, 3):
        raise ParameterError(f"n must be 2 or 3, got {n}")
    if not (math.isfinite(p) and p > 1.0):
        raise ParameterError(f"p must be finite and > 1, got {p}")
    if not (math.isfinite(rho) and rho > m + 1.0):
        raise ParameterError(f"rho must exceed m + 1 = {m + 1:g}, got {rho}")
    if not (math.isfinite(alpha) and alpha > 0.5):
        raise ParameterError(f"alpha must exceed 1/2, got {alpha}")
    if not r >= 1.0:
        raise ParameterError(f"r must be >= 1 (inf allowed), got {r}")
    if p0 is not None and not (math.isfinite(p0) and p0 > 0.0):
        raise ParameterError(f"p0 must be finite and positive, got {p0}")


def family_label(m: float) -> str:
    """The hypothesis family of the power m: H0 for m = 1, H1 below 2, H2 from 2."""
    if m == 1.0:
        return "H0"
    return "H1" if m < 2.0 else "H2"


def _family_checks(m, n, p, rho, alpha):
    """Label the family by m and list its inequalities.

    Each entry is (name, lhs, rhs, strict): requirement lhs < rhs
    (or lhs <= rhs when strict is False).  Names state the inequality
    itself so a violation message reads as arithmetic.
    """
    t = 2.0 * alpha / rho
    label = family_label(m)
    if label == "H0":
        checks = [
            ("α < 1 + n/(2p)", alpha, 1.0 + n / (2.0 * p), True),
            ("2α/ρ > 2α − 1 − n/(2p)", 2.0 * alpha - 1.0 - n / (2.0 * p), t, True),
            ("2α/ρ < 2α − 1", t, 2.0 * alpha - 1.0, True),
        ]
    elif label == "H1":
        p_lo = max((m - 1.0) * n / (3.0 - m), (4.0 - m) / (3.0 - m))
        a_lo = 0.5 + m * (2.0 - m) * n / (2.0 * (3.0 - m) * p)
        a_hi = (m + 1.0) / 2.0 + m * n / (2.0 * p)
        t_lo = (2.0 * alpha - 1.0) / m - n / ((m + 1.0) * p)
        t_hi = (2.0 * alpha - 1.0) / m - (2.0 - m) * n / ((3.0 - m) * p)
        checks = [
            ("p > max{(m−1)n/(3−m), (4−m)/(3−m)}", p_lo, p, True),
            ("p < n/(m−1)", p, n / (m - 1.0), True),
            ("α > 1/2 + m(2−m)n/(2(3−m)p)", a_lo, alpha, True),
            ("α < (m+1)/2 + mn/(2p)", alpha, a_hi, True),
            ("2α/ρ > (2α−1)/m − n/((m+1)p)", t_lo, t, True),
            ("2α/ρ < (2α−1)/m − (2−m)n/((3−m)p)", t, t_hi, True),
        ]
    else:
        t_lo = (2.0 * alpha - 1.0) / m + (1.0 - 2.0 * n / p) / (m + 1.0)
        checks = [
            ("p ≥ n", n, p, False),
            ("p < 2n", p, 2.0 * n, True),
            ("α < 1/2 + mn/p", alpha, 0.5 + m * n / p, True),
            ("2α/ρ > (2α−1)/m + (1−2n/p)/(m+1)", t_lo, t, True),
            ("2α/ρ < (2α−1)/m", t, (2.0 * alpha - 1.0) / m, True),
        ]
    return label, checks


def _evaluate(checks):
    """Split checks into margins {name: rhs − lhs} and violation pairs."""
    margins = {}
    violations = []
    for name, lhs, rhs, strict in checks:
        margins[name] = rhs - lhs
        ok = lhs < rhs if strict else lhs <= rhs
        if not ok:
            rel = "≥" if strict else ">"
            # the violated side states the two numbers that clashed,
            # ordered as in the requirement's name
            if name.split(" ", 2)[1] in (">", "≥"):
                shown = f"{rhs:g} {'≤' if strict else '<'} {lhs:g}"
            else:
                shown = f"{lhs:g} {rel} {rhs:g}"
            violations.append((name, f"{name} violated ({shown})"))
    return margins, violations


def _derive(m, n, p, rho, alpha, p0=None):
    s = n / p + 2.0 * alpha / rho - (2.0 * alpha - 1.0) / m - 2.0 * alpha
    s_tilde = s + 2.0 * m * alpha / rho
    rho_tilde = rho / (m + 1.0)
    if p0 is None:
        p0 = n / (n / p + 2.0 * alpha / rho)
    s0 = n / p0 - (2.0 * alpha - 1.0) / m
    return s, s_tilde, rho_tilde, s0, p0


def check_hypotheses(m, n, p, rho, alpha, r=2.0, p0=None) -> HypothesisSet:
    """Validate the exponent set and return it with derived indices.

    Raises HypothesisError listing every violated inequality of the
    labeled family, or ParameterError for arguments outside the common
    preconditions (m >= 1, n in {2,3}, p > 1, rho > m+1, alpha > 1/2).
    """
    check_kind("n", n, "integer")
    for name, value in (("m", m), ("p", p), ("rho", rho), ("alpha", alpha), ("r", r)):
        check_kind(name, value, "real")
    if p0 is not None:
        check_kind("p0", p0, "real")
    m, p, rho, alpha, r = float(m), float(p), float(rho), float(alpha), float(r)
    n = int(n)
    _validate_basic(m, n, p, rho, alpha, r, p0)
    label, checks = _family_checks(m, n, p, rho, alpha)
    _, violations = _evaluate(checks)
    s, s_tilde, rho_tilde, s0, p0d = _derive(m, n, p, rho, alpha, p0)
    if not 1.0 < p0d <= p:
        violations.append(
            ("1 < p0 ≤ p", f"1 < p0 ≤ p violated (p0 = {p0d:g}, p = {p:g})")
        )
    if violations:
        raise HypothesisError(violations)
    h = HypothesisSet(
        label=label,
        m=m,
        n=n,
        p=p,
        p0=float(p0d),
        rho=rho,
        r=r,
        alpha=alpha,
        s=s,
        s_tilde=s_tilde,
        rho_tilde=rho_tilde,
        s0=s0,
    )
    derive_exponents(h)
    return h


def derive_exponents(h: HypothesisSet):
    """Recompute (s, s_tilde, rho_tilde, s0, p0) and verify the window.

    The window links the solution and data spaces: with y = s − n/p and
    y0 = s0 − n/p0, it requires y0 − 2α < y < y0 strictly and the exact
    identity y − 2α/ρ = y0 − 2α.  A violation means the set's indices
    are mutually inconsistent.
    """
    s, s_tilde, rho_tilde, s0, p0 = _derive(h.m, h.n, h.p, h.rho, h.alpha, h.p0)
    y = s - h.n / h.p
    y0 = s0 - h.n / p0
    defect = abs(y - 2.0 * h.alpha / h.rho - (y0 - 2.0 * h.alpha))
    if defect > WINDOW_TOL:
        raise SideConditionError(
            f"compatibility window equality fails: defect {defect:.3e}"
        )
    if not (y0 - 2.0 * h.alpha < y < y0):
        raise SideConditionError(
            f"compatibility window violated: need {y0 - 2 * h.alpha:g} < {y:g} < {y0:g}"
        )
    return s, s_tilde, rho_tilde, s0, p0


def window_margins(h: HypothesisSet) -> dict:
    """Signed distances to the window's edges and its equality defect."""
    y = h.s - h.n / h.p
    y0 = h.s0 - h.n / h.p0
    return {
        "lower": y - (y0 - 2.0 * h.alpha),
        "upper": y0 - y,
        "equality_defect": abs(y - 2.0 * h.alpha / h.rho - (y0 - 2.0 * h.alpha)),
    }


def hypothesis_margins(h: HypothesisSet) -> dict:
    """Margins of the family inequalities, positive when satisfied."""
    _, checks = _family_checks(h.m, h.n, h.p, h.rho, h.alpha)
    margins, _ = _evaluate(checks)
    return margins


def hypothesis_report(h: HypothesisSet) -> dict:
    """JSON-ready summary: every field of h in declaration order, then the
    family margins and the window."""
    report = {f.name: getattr(h, f.name) for f in fields(h)}
    report["margins"] = hypothesis_margins(h)
    report["window"] = window_margins(h)
    return report


# -- random sample generation ---------------------------------------------


@dataclass(frozen=True)
class SampleSpec:
    """How estimation samples are drawn.

    sigma steers the spectral envelope 2^(-(q - q_min) sigma) across the
    resolved blocks.  m_override selects a power the hypothesis set
    cannot carry: it admits powers below one for the pointwise and
    small-power inequalities.
    """

    grid: Grid
    sigma: float = 1.0
    time_nodes: int = 33
    horizon: float = 1.0
    m_override: float | None = None

    def __post_init__(self):
        if not isinstance(self.grid, Grid):
            raise ParameterError("SampleSpec.grid must be a Grid")
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ParameterError(f"sigma must be finite and >= 0, got {self.sigma}")
        if self.time_nodes < 3:
            raise ParameterError(f"time_nodes must be >= 3, got {self.time_nodes}")
        if self.time_nodes > np.iinfo(np.intp).max // 8:
            raise ParameterError(f"time_nodes must leave arrays numpy can size, got {self.time_nodes}")
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise ParameterError(f"horizon must be finite and positive, got {self.horizon}")

    def times(self) -> np.ndarray:
        """The node times of the sampled trajectories (the TIMED_IDS')."""
        return log_nodes(self.horizon, self.time_nodes)


def spectral_envelope(grid: Grid, sigma: float) -> np.ndarray:
    """Block-decaying weight supported strictly inside the safe band."""
    cutoff = build_cutoff(grid)
    kk = grid.k_abs
    lo, hi = cutoff.safe_band()
    w = np.zeros_like(kk)
    for i, mult in enumerate(cutoff.block_multipliers()):
        w += 2.0 ** (-i * sigma) * mult
    return w * ((kk > lo) & (kk < hi))


def random_field(
    grid: Grid,
    rng: np.random.Generator,
    sigma: float = 1.0,
    ncomp: int = 1,
    solenoidal: bool = False,
) -> SpectralField:
    """Random real zero-mean field, band-limited to the safe band.

    White noise in physical space is shaped by the spectral envelope, so
    every resolved block carries energy with the prescribed decay.
    """
    if solenoidal and ncomp != grid.n:
        raise ParameterError("solenoidal sampling needs a full vector field")
    noise = rng.standard_normal((ncomp,) + grid.shape)
    base = SpectralField.from_physical(grid, noise)
    shaped = SpectralField(grid, base.coeffs * spectral_envelope(grid, sigma)[None])
    if solenoidal:
        shaped = leray_project(shaped)
    return shaped


def random_step_factors(
    grid: Grid,
    rng: np.random.Generator,
    times: np.ndarray,
    sigma: float = 1.0,
    ncomp: int = 1,
) -> tuple:
    """Step-in-time random trajectory, factored: per-node mix of two random fields.

    Returns the weights, shape (len(times), 2), and the basis coefficients,
    shape (2, ncomp, lattice); node j, the value on the interval
    (t_{j-1}, t_j], is weights[j] @ basis.
    """
    f1 = random_field(grid, rng, sigma, ncomp)
    f2 = random_field(grid, rng, sigma, ncomp)
    a1 = rng.lognormal(0.0, 0.75, size=len(times))
    a2 = rng.lognormal(0.0, 0.75, size=len(times))
    return np.stack([a1, a2], axis=1), np.stack([f1.coeffs, f2.coeffs])


# -- side conditions and per-inequality parameters ------------------------


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SideConditionError(message)


def _id_params(ineq_id: str, h: HypothesisSet, spec: SampleSpec) -> dict:
    """Check the side conditions of an inequality id and fix internal
    exponents; raises SideConditionError when h sits outside them."""
    n, p, m = h.n, h.p, h.m
    prm: dict = {}
    if ineq_id == "lemma-ab":
        if spec.m_override is not None:
            _require(spec.m_override > 0.0, f"pointwise bound needs m > 0, got {spec.m_override:g}")
        prm.update(
            m="menu" if spec.m_override is None else spec.m_override,
            amplitude=LEMMA_AB_AMPLITUDE,
            dimension=n,
        )
    elif ineq_id in ("PROD1", "PROD2"):
        prm.update(s=n / (2.0 * p), r=h.r, p=p, split_p=2.0 * p, delta=0.25)
    elif ineq_id == "POW_SMALL":
        m_eff = spec.m_override if spec.m_override is not None else m
        _require(0.0 < m_eff <= 1.0, f"small-power law needs 0 < m ≤ 1, got {m_eff:g}")
        _require(p >= 1.0 / m_eff, f"small-power law needs p ≥ 1/m, got p = {p:g}, 1/m = {1.0 / m_eff:g}")
        prm.update(m=m_eff, s=m_eff / 2.0, r=max(h.r, 1.0 / m_eff), p=p)
    elif ineq_id == "POW":
        prm.update(m=m, s=min(m, n / p) / 2.0, r=min(2.0, p, h.r), p=p)
    elif ineq_id == "DIFF":
        _require(m > 1.0, f"difference law needs m > 1, got {m:g}")
        if m < 2.0:
            cap = min(m - 1.0, (m - 1.0) ** 2 * n / p)
            r_chk, r0 = max(1.0, 1.0 / (m - 1.0)), 1.0
        else:
            cap = min(m - 1.0, n / p)
            r_chk = r0 = min(2.0, p, h.r)
        prm.update(m=m, s=cap / 2.0, r=r_chk, r0=r0, p=p, weak_range=False)
    elif ineq_id in ("SEMI", "MAXREG", "DUHAMEL"):
        prm.update(
            gamma=0.0,
            time_nodes=spec.time_nodes,
            horizon=spec.horizon,
        )
        if ineq_id == "MAXREG":
            prm.update(q=1.0)
    elif ineq_id == "BILIN_M1":
        _require(m == 1.0, f"bilinear m = 1 law needs m = 1, got {m:g}")
        prm.update(time_nodes=spec.time_nodes, horizon=spec.horizon)
    elif ineq_id in ("BILIN", "BILIN_DIFF"):
        _require(m > 1.0, f"bilinear power law needs m > 1, got {m:g}")
        prm.update(m=m, time_nodes=spec.time_nodes, horizon=spec.horizon)
    else:
        raise ParameterError(f"unknown inequality id {ineq_id!r}")
    return prm


# -- per-inequality evaluators ---------------------------------------------


def _ev_lemma_ab(spec, rng, prm, size):
    """Vectorized chunk of size pointwise increment-bound checks.

    Returns (lhs array, rhs array); both branches of the bound are
    exercised when m is not overridden.
    """
    n = prm["dimension"]
    if spec.m_override is None:
        ms = rng.choice([0.3, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0], size=size)
    else:
        ms = np.full(size, prm["m"])
    a = rng.uniform(-1.0, 1.0, size=(size, n))
    b = rng.uniform(-1.0, 1.0, size=(size, n))
    scale = LEMMA_AB_AMPLITUDE * rng.uniform(0.0, 1.0, size=(size, 1)) ** (1.0 / n)
    a *= scale
    b *= scale * rng.uniform(0.0, 1.0, size=(size, 1))
    lhs, rhs, _ = pointwise_difference_bound(a, b, ms)
    return lhs, rhs


def _ev_prod(h, spec, rng, prm, first_form: bool):
    grid = spec.grid
    f = random_field(grid, rng, spec.sigma)
    g = random_field(grid, rng, spec.sigma)
    prod = dealiased_product(f, g).with_zero_mean()
    s, r, p, sp = prm["s"], prm["r"], prm["p"], prm["split_p"]
    lhs = besov_norm(prod, BesovIndex(s, p, r))
    if first_form:
        d = prm["delta"]
        rhs = besov_norm(f, BesovIndex(s + d, sp, r)) * besov_norm(g, BesovIndex(-d, sp, _INF)) + (
            besov_norm(f, BesovIndex(-d, sp, _INF)) * besov_norm(g, BesovIndex(s + d, sp, r))
        )
    else:
        lp_f = f.lp_norm(sp)
        lp_g = g.lp_norm(sp)
        rhs = besov_norm(f, BesovIndex(s, sp, r)) * lp_g + lp_f * besov_norm(g, BesovIndex(s, sp, r))
    return lhs, rhs


def _ev_pow_small(h, spec, rng, prm):
    grid = spec.grid
    m, s, r, p = prm["m"], prm["s"], prm["r"], prm["p"]
    f = random_field(grid, rng, spec.sigma)
    jm = apply_power(f, PowerLaw(m)).with_zero_mean()
    lhs = besov_norm(jm, BesovIndex(s, p, r))
    rhs = besov_norm(f, BesovIndex(s / m, m * p, m * r)) ** m
    return lhs, rhs


def _ev_pow(h, spec, rng, prm):
    grid = spec.grid
    m, s, r, p = prm["m"], prm["s"], prm["r"], prm["p"]
    f = random_field(grid, rng, spec.sigma)
    jm = apply_power(f, PowerLaw(m))
    if m != 1.0:
        jm = jm.with_zero_mean()
    lhs = besov_norm(jm, BesovIndex(s, p, r))
    rhs = besov_norm(f, BesovIndex(s / m + (1.0 - 1.0 / m) * h.n / p, p, r)) ** m
    return lhs, rhs


def _ev_diff(h, spec, rng, prm):
    grid = spec.grid
    m, s, r, r0, p = prm["m"], prm["s"], prm["r"], prm["r0"], prm["p"]
    pl = PowerLaw(m)
    f = random_field(grid, rng, spec.sigma)
    g = random_field(grid, rng, spec.sigma)
    jf = apply_power(f, pl)
    jg = apply_power(g, pl)
    lhs = besov_norm((jf - jg).with_zero_mean(), BesovIndex(s, p, r))
    sig = BesovIndex(s / m + (1.0 - 1.0 / m) * h.n / p, p, r0)
    xf = besov_norm(f, sig)
    xg = besov_norm(g, sig)
    xd = besov_norm(f - g, sig)
    rhs = (xf ** (m - 1.0) + xg ** (m - 1.0)) * xd
    return lhs, rhs


def _ev_semi(h, spec, rng, prm):
    grid = spec.grid
    a = random_field(grid, rng, spec.sigma, ncomp=grid.n, solenoidal=True)
    times = spec.times()
    nodes = duhamel_nodes(times, None, grid.power_symbol(h.alpha), a.coeffs)
    lhs = trajectory_norm(grid, times, nodes, h.solution_class)
    rhs = besov_norm(a, h.data_space)
    return lhs, rhs


def _ev_maxreg(h, spec, rng, prm):
    grid = spec.grid
    times = spec.times()
    a = random_field(grid, rng, spec.sigma, ncomp=grid.n, solenoidal=True)
    weights, basis = random_step_factors(grid, rng, times, spec.sigma, ncomp=grid.n)
    symbol = grid.power_symbol(h.alpha)
    u = duhamel_nodes(times, (_mix(w, basis) for w in weights), symbol, a.coeffs)

    def rows():
        # u'_j = f_j - A u_j, then A u_j, one node at a time
        for w, uj in zip(weights, u):
            auj = symbol * uj
            yield _mix(w, basis) - auj
            yield auj

    cls = LorentzBesov(BesovIndex(h.s, h.p, prm["q"]), h.solution_class.time)
    norms = besov_norms(grid, rows(), (cls.space,))[:, 0]
    lhs = sum(lorentz_norm(TimeSamples(times, norms[k::2]), cls.time) for k in (0, 1))
    rhs = besov_norm(a, h.data_space) + trajectory_norm(grid, times, basis, cls, weights)
    return lhs, rhs


def _ev_duhamel(h, spec, rng, prm):
    grid = spec.grid
    times = spec.times()
    weights, basis = random_step_factors(grid, rng, times, spec.sigma, ncomp=grid.n)
    symbol = grid.power_symbol(h.alpha)
    s_traj = duhamel_nodes(times, (_mix(w, basis) for w in weights), symbol)
    lhs = trajectory_norm(grid, times, s_traj, h.solution_class)
    rhs = trajectory_norm(grid, times, basis, h.weak_class, weights)
    return lhs, rhs


def _ev_bilinear(h, spec, rng, prm, difference: bool):
    grid = spec.grid
    times = spec.times()
    pl = PowerLaw(h.m)
    sol = h.solution_class
    w1, u1 = random_step_factors(grid, rng, times, spec.sigma, ncomp=grid.n)
    wv, v = random_step_factors(grid, rng, times, spec.sigma, ncomp=grid.n)
    if difference:
        w2, u2 = random_step_factors(grid, rng, times, spec.sigma, ncomp=grid.n)
    if h.m == 1.0:
        # J_1 is the identity, so node j's product is the factored trajectory
        # sum_{r,s} w1[j, r] wv[j, s] (u1_r . grad v_s): one product per (r, s)
        u_pick = np.repeat(np.eye(len(u1)), len(v), axis=0)  # row r len(v) + s is e_r
        v_pick = np.tile(np.eye(len(v)), (len(u1), 1))  # and this one e_s
        basis = np.stack(list(step_convection(grid, pl, (u_pick, u1), (v_pick, v))))
        weights = (w1[:, :, None] * wv[:, None, :]).reshape(len(times), -1)
        lhs = trajectory_norm(grid, times, basis, h.weak_class, weights)
    else:
        terms = step_convection(grid, pl, (w1, u1), (wv, v), (w2, u2) if difference else None)
        lhs = trajectory_norm(grid, times, terms, h.weak_class)
    xu1 = trajectory_norm(grid, times, u1, sol, w1)
    xv = trajectory_norm(grid, times, v, sol, wv)
    if difference:
        xu2 = trajectory_norm(grid, times, u2, sol, w2)
        # u1 - u2 is the four-field trajectory [w1, -w2] @ [u1, u2]
        d_basis, d_weights = np.concatenate([u1, u2]), np.concatenate([w1, -w2], axis=1)
        xd = trajectory_norm(grid, times, d_basis, sol, d_weights)
        rhs = (xu1 ** (h.m - 1.0) + xu2 ** (h.m - 1.0)) * xd * xv
    else:
        rhs = xu1**h.m * xv
    return lhs, rhs


_EVALUATORS = {
    "PROD1": lambda h, s, r, p: _ev_prod(h, s, r, p, True),
    "PROD2": lambda h, s, r, p: _ev_prod(h, s, r, p, False),
    "POW_SMALL": _ev_pow_small,
    "POW": _ev_pow,
    "DIFF": _ev_diff,
    "SEMI": _ev_semi,
    "MAXREG": _ev_maxreg,
    "DUHAMEL": _ev_duhamel,
    "BILIN_M1": lambda h, s, r, p: _ev_bilinear(h, s, r, p, False),
    "BILIN": lambda h, s, r, p: _ev_bilinear(h, s, r, p, False),
    "BILIN_DIFF": lambda h, s, r, p: _ev_bilinear(h, s, r, p, True),
}

# the pointwise bound, drawn in vectorized chunks, then the sampled ids
ESTIMATE_IDS = ("lemma-ab", *_EVALUATORS)
# the ids whose samples are trajectories on SampleSpec.times()
TIMED_IDS = ("SEMI", "MAXREG", "DUHAMEL", "BILIN_M1", "BILIN", "BILIN_DIFF")


# -- reports ----------------------------------------------------------------


@dataclass
class InequalityReport:
    """Empirical record of one inequality under one hypothesis set."""

    ineq_id: str
    hypothesis_label: str
    params: dict
    samples: int
    pairs: np.ndarray
    max_ratio: float
    median_ratio: float
    violations: int
    skipped: int

    def line(self) -> dict:
        """The JSON-lines form of the report: every field but the pairs."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "pairs"}


def estimate_constant(
    ineq_id: str,
    h: HypothesisSet,
    samples: int,
    spec: SampleSpec,
    seed: int = 0,
) -> InequalityReport:
    """Sample an inequality and report its empirical constant.

    The constant is max lhs/rhs over the samples; degenerate samples
    (rhs = 0) are skipped and counted.  Violations are counted only for
    the exact pointwise bound (lemma-ab); the norm inequalities carry
    unknown constants, so their ratios are informative, not pass/fail.
    """
    if ineq_id not in ESTIMATE_IDS:
        raise ParameterError(f"unknown inequality id {ineq_id!r}")
    if samples < 1:
        raise ParameterError(f"samples must be >= 1, got {samples}")
    if samples > np.iinfo(np.intp).max // 16:
        # checked before the seed tree is spawned: it is a list, one child a sample
        raise ParameterError(f"samples must leave arrays numpy can size, got {samples}")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    prm = _id_params(ineq_id, h, spec)
    prm.update(sigma=spec.sigma, grid_n=spec.grid.n, grid_N=spec.grid.N, grid_L=spec.grid.L, seed=seed)
    root = np.random.SeedSequence(seed)
    if ineq_id == "lemma-ab":
        lhs_parts = []
        rhs_parts = []
        remaining = samples
        for child in root.spawn(math.ceil(samples / LEMMA_AB_CHUNK)):
            take = min(LEMMA_AB_CHUNK, remaining)
            lhs, rhs = _ev_lemma_ab(spec, np.random.default_rng(child), prm, take)
            lhs_parts.append(lhs)
            rhs_parts.append(rhs)
            remaining -= take
        lhs = np.concatenate(lhs_parts)
        rhs = np.concatenate(rhs_parts)
        violations = int(np.sum(lhs > rhs + POINTWISE_TOL))
        keep = rhs > 0.0
        skipped = int(np.sum(~keep))
        ratios = lhs[keep] / rhs[keep]
        pairs = np.stack([lhs, rhs], axis=1)
    else:
        evaluator = _EVALUATORS[ineq_id]

        def one(child):
            rng = np.random.default_rng(child)
            return evaluator(h, spec, rng, prm)

        results = pmap(one, root.spawn(samples))
        pairs = np.array(results, dtype=float)
        rhs = pairs[:, 1]
        keep = rhs > 1e-14 * (1.0 + pairs[:, 0])
        skipped = int(np.sum(~keep))
        ratios = pairs[keep, 0] / pairs[keep, 1]
        violations = 0
    if ratios.size == 0:
        raise EvaluationError(f"{ineq_id}: every sample was degenerate (rhs = 0)")
    max_ratio = float(np.max(ratios))
    if not math.isfinite(max_ratio):
        raise EvaluationError(f"{ineq_id}: non-finite ratio encountered")
    return InequalityReport(
        ineq_id=ineq_id,
        hypothesis_label=h.label,
        params=prm,
        samples=int(samples),
        pairs=pairs,
        max_ratio=max_ratio,
        median_ratio=float(np.median(ratios)),
        violations=violations,
        skipped=skipped,
    )


# -- scaling invariance -----------------------------------------------------


def scaling_invariance_check(a: SpectralField, h: HypothesisSet, lam: float, times) -> dict:
    """Ratio of critical norms under box dilation by lam = 2^j.

    The trajectory is the free evolution e^(-tA) a at the node times,
    step-held, streamed from the Duhamel kernel once on a's grid and once,
    scaled by the prefactor, on the dilated grid.  Dilation keeps
    coefficients and shrinks the box, and time is rescaled by
    lam^(2 alpha); on compliant exponent sets both critical-norm ratios
    equal 1 up to rounding.  e^(-tA) creates no mode, so the dilation is
    resolved at every node when it is resolved for a.
    """
    times = np.asarray(times, dtype=float)
    if not (math.isfinite(lam) and lam > 0.0):
        raise ParameterError(f"lam must be a positive power of 2, got {lam}")
    j = int(round(math.log2(lam)))
    if 2.0**j != lam:
        raise ParameterError(f"lam must be a power of 2, got {lam}")
    prefactor = lam ** ((2.0 * h.alpha - 1.0) / h.m)

    # a too-coarse grid is reported before an unresolvable dilation, and
    # that before a zero norm (an out-of-band mode has both)
    base_init = besov_norm(a, h.data_space)
    a_dil = dilate(a, j) * prefactor
    if base_init == 0.0:
        raise ParameterError("initial field has zero critical norm")
    init_ratio = besov_norm(a_dil, h.data_space) / base_init

    sol = h.solution_class
    symbol = a.grid.power_symbol(h.alpha)
    base_temp = trajectory_norm(a.grid, times, duhamel_nodes(times, None, symbol, a.coeffs), sol)
    if base_temp == 0.0:
        raise ParameterError("trajectory has zero critical norm")
    dil_nodes = (c * prefactor for c in duhamel_nodes(times, None, symbol, a.coeffs))
    times_dil = times * lam ** (-2.0 * h.alpha)
    temp_ratio = trajectory_norm(a_dil.grid, times_dil, dil_nodes, sol) / base_temp

    return {"initial_ratio": float(init_ratio), "temporal_ratio": float(temp_ratio)}
