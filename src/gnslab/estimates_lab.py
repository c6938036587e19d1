"""Admissible exponent sets and empirical constants for the norm inequalities.

The laboratory has three parts.  First, hypothesis checking: a parameter
set (m, n, p, rho, alpha, r) is admissible when it satisfies one of three
families of strict inequalities selected by the power m (H0 for m = 1,
H1 for 1 < m < 2, H2 for m >= 2), and every admissible set determines
derived regularity indices (s, s_tilde, rho_tilde, s0, p0).  These give
the solution class and the data space the same scaling, so the
compatibility window linking them holds for every admissible set and is
reported, not checked.  Second, constant estimation: each supported norm
inequality is sampled on random band-limited fields (or random step
trajectories of them) and the empirical constant max lhs/rhs is
reported; constants are reported, never asserted against theory, since
only their existence is guaranteed.  Each inequality id is one function
that checks its side conditions and returns its exponents, all read from
the hypothesis set, with its sampler.  Third, the scaling check: the
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
    check_fields,
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
    return HypothesisSet(
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


def window_margins(h: HypothesisSet) -> dict:
    """Signed distances to the window's edges and its equality defect.

    The window links the solution and data spaces through y = s − n/p and
    y0 = s0 − n/p0: y0 − 2α < y < y0 and y − 2α/ρ = y0 − 2α.  _derive
    makes it an identity, not a condition: y0 = −(2α−1)/m for every p0
    and y = y0 − 2α + 2α/ρ, so the margins are 2α/ρ and 2α − 2α/ρ, both
    positive since ρ > m + 1 ≥ 2, and the defect is rounding alone.
    """
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
    resolved blocks; the sampled trajectories of the TIMED_IDS are step
    functions on time_nodes log-uniform nodes up to horizon.  Every power
    an id samples comes from its hypothesis set.
    """

    grid: Grid
    sigma: float = 1.0
    time_nodes: int = 33
    horizon: float = 1.0

    def __post_init__(self):
        if not isinstance(self.grid, Grid):
            raise ParameterError("SampleSpec.grid must be a Grid")
        check_fields(self)
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


# -- the inequality ids: each one function (h, spec) -> (params, sample) ------
# It raises SideConditionError before anything is drawn, and fixes the id's
# exponents: params lists them in report order, and sample(rng) -> (lhs, rhs)
# draws under them; lemma-ab's sample(rng, size) draws a vectorized chunk.


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SideConditionError(message)


def _lemma_ab(h, spec):
    """The pointwise bound of J_m, under powers from a menu spanning both branches."""
    n = h.n

    def sample(rng, size):
        ms = rng.choice([0.3, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0], size=size)
        a = rng.uniform(-1.0, 1.0, size=(size, n))
        b = rng.uniform(-1.0, 1.0, size=(size, n))
        scale = LEMMA_AB_AMPLITUDE * rng.uniform(0.0, 1.0, size=(size, 1)) ** (1.0 / n)
        a *= scale
        b *= scale * rng.uniform(0.0, 1.0, size=(size, 1))
        return pointwise_difference_bound(a, b, ms)[:2]

    return {"m": "menu", "amplitude": LEMMA_AB_AMPLITUDE, "dimension": n}, sample


def _product(spec, rng, index):
    """Draw f and g; return them and the index norm of their mean-free product."""
    f = random_field(spec.grid, rng, spec.sigma)
    g = random_field(spec.grid, rng, spec.sigma)
    return f, g, besov_norm(dealiased_product(f, g).with_zero_mean(), index)


def _prod1(h, spec):
    """The product law in B^s_{p,r}, s = n/(2p), against B^(s+δ) and B^(−δ)_{2p,∞}."""
    s, r, p, sp, d = h.n / (2.0 * h.p), h.r, h.p, 2.0 * h.p, 0.25

    def sample(rng):
        f, g, lhs = _product(spec, rng, BesovIndex(s, p, r))
        return lhs, besov_norm(f, BesovIndex(s + d, sp, r)) * besov_norm(g, BesovIndex(-d, sp, _INF)) + (
            besov_norm(f, BesovIndex(-d, sp, _INF)) * besov_norm(g, BesovIndex(s + d, sp, r))
        )

    return {"s": s, "r": r, "p": p, "split_p": sp, "delta": d}, sample


def _prod2(h, spec):
    """The product law of PROD1, its rhs pairing B^s with L^(2p)."""
    s, r, p, sp = h.n / (2.0 * h.p), h.r, h.p, 2.0 * h.p

    def sample(rng):
        f, g, lhs = _product(spec, rng, BesovIndex(s, p, r))
        split = BesovIndex(s, sp, r)
        return lhs, besov_norm(f, split) * g.lp_norm(sp) + f.lp_norm(sp) * besov_norm(g, split)

    # PROD1's shift is reported with both forms
    return {"s": s, "r": r, "p": p, "split_p": sp, "delta": 0.25}, sample


def _pow_small(h, spec):
    """The small-power law ||J_m f||_{B^s_{p,r}} ≤ ||f||^m_{B^(s/m)_{mp,mr}}."""
    m, p = h.m, h.p
    _require(0.0 < m <= 1.0, f"small-power law needs 0 < m ≤ 1, got {m:g}")
    s, r = m / 2.0, max(h.r, 1.0 / m)

    def sample(rng):
        f = random_field(spec.grid, rng, spec.sigma)
        jm = apply_power(f, PowerLaw(m)).with_zero_mean()
        return besov_norm(jm, BesovIndex(s, p, r)), besov_norm(f, BesovIndex(s / m, m * p, m * r)) ** m

    return {"m": m, "s": s, "r": r, "p": p}, sample


def _pow(h, spec):
    """The power law for J_m at fixed integrability p."""
    m, p = h.m, h.p
    s, r = min(m, h.n / p) / 2.0, min(2.0, p, h.r)

    def sample(rng):
        f = random_field(spec.grid, rng, spec.sigma)
        jm = apply_power(f, PowerLaw(m))
        if m != 1.0:
            jm = jm.with_zero_mean()
        lhs = besov_norm(jm, BesovIndex(s, p, r))
        return lhs, besov_norm(f, BesovIndex(s / m + (1.0 - 1.0 / m) * h.n / p, p, r)) ** m

    return {"m": m, "s": s, "r": r, "p": p}, sample


def _diff(h, spec):
    """The difference law for J_m f − J_m g, m > 1."""
    m, n, p = h.m, h.n, h.p
    _require(m > 1.0, f"difference law needs m > 1, got {m:g}")
    if m < 2.0:
        cap = min(m - 1.0, (m - 1.0) ** 2 * n / p)
        r, r0 = max(1.0, 1.0 / (m - 1.0)), 1.0
    else:
        cap = min(m - 1.0, n / p)
        r = r0 = min(2.0, p, h.r)
    s = cap / 2.0
    sig = BesovIndex(s / m + (1.0 - 1.0 / m) * n / p, p, r0)

    def sample(rng):
        pl = PowerLaw(m)
        f = random_field(spec.grid, rng, spec.sigma)
        g = random_field(spec.grid, rng, spec.sigma)
        lhs = besov_norm((apply_power(f, pl) - apply_power(g, pl)).with_zero_mean(), BesovIndex(s, p, r))
        xf, xg, xd = besov_norm(f, sig), besov_norm(g, sig), besov_norm(f - g, sig)
        return lhs, (xf ** (m - 1.0) + xg ** (m - 1.0)) * xd

    return {"m": m, "s": s, "r": r, "r0": r0, "p": p, "weak_range": False}, sample


def _semi(h, spec):
    """The free evolution e^(−tA)a in the solution class against a's data norm."""
    grid, times = spec.grid, spec.times()

    def sample(rng):
        a = random_field(grid, rng, spec.sigma, ncomp=grid.n, solenoidal=True)
        nodes = duhamel_nodes(times, None, grid.power_symbol(h.alpha), a.coeffs)
        return trajectory_norm(grid, times, nodes, h.solution_class), besov_norm(a, h.data_space)

    return {"gamma": 0.0, "time_nodes": spec.time_nodes, "horizon": spec.horizon}, sample


def _maxreg(h, spec):
    """Maximal regularity: u' and Au against a and a step forcing, in L^{ρ,r}(B^s_{p,q})."""
    grid, times, q = spec.grid, spec.times(), 1.0
    cls = LorentzBesov(BesovIndex(h.s, h.p, q), h.solution_class.time)
    symbol = grid.power_symbol(h.alpha)

    def sample(rng):
        a = random_field(grid, rng, spec.sigma, ncomp=grid.n, solenoidal=True)
        weights, basis = random_step_factors(grid, rng, times, spec.sigma, ncomp=grid.n)
        u = duhamel_nodes(times, (_mix(w, basis) for w in weights), symbol, a.coeffs)

        def rows():
            # u'_j = f_j - A u_j, then A u_j, one node at a time
            for w, uj in zip(weights, u):
                auj = symbol * uj
                yield _mix(w, basis) - auj
                yield auj

        norms = besov_norms(grid, rows(), (cls.space,))[:, 0]
        lhs = sum(lorentz_norm(TimeSamples(times, norms[k::2]), cls.time) for k in (0, 1))
        return lhs, besov_norm(a, h.data_space) + trajectory_norm(grid, times, basis, cls, weights)

    return {"gamma": 0.0, "time_nodes": spec.time_nodes, "horizon": spec.horizon, "q": q}, sample


def _duhamel(h, spec):
    """The Duhamel term of a step forcing: solution class against weak class."""
    grid, times = spec.grid, spec.times()

    def sample(rng):
        weights, basis = random_step_factors(grid, rng, times, spec.sigma, ncomp=grid.n)
        s_traj = duhamel_nodes(times, (_mix(w, basis) for w in weights), grid.power_symbol(h.alpha))
        lhs = trajectory_norm(grid, times, s_traj, h.solution_class)
        return lhs, trajectory_norm(grid, times, basis, h.weak_class, weights)

    return {"gamma": 0.0, "time_nodes": spec.time_nodes, "horizon": spec.horizon}, sample


def _step_draws(h, spec, times, rng, count):
    """count step trajectories (u1, v[, u2]) and their solution-class norms."""
    grid = spec.grid
    draws = [random_step_factors(grid, rng, times, spec.sigma, ncomp=grid.n) for _ in range(count)]
    return draws, [trajectory_norm(grid, times, b, h.solution_class, w) for w, b in draws]


def _bilin_m1(h, spec):
    """The bilinear law at m = 1, ||u·∇v|| ≤ ||u|| ||v||."""
    _require(h.m == 1.0, f"bilinear m = 1 law needs m = 1, got {h.m:g}")
    grid, times = spec.grid, spec.times()

    def sample(rng):
        ((w1, u1), (wv, v)), (xu1, xv) = _step_draws(h, spec, times, rng, 2)
        # J_1 is the identity, so node j's product is the factored trajectory
        # sum_{r,s} w1[j, r] wv[j, s] (u1_r . grad v_s): one product per (r, s)
        u_pick = np.repeat(np.eye(len(u1)), len(v), axis=0)  # row r len(v) + s is e_r
        v_pick = np.tile(np.eye(len(v)), (len(u1), 1))  # and this one e_s
        basis = np.stack(list(step_convection(grid, PowerLaw(1.0), (u_pick, u1), (v_pick, v))))
        weights = (w1[:, :, None] * wv[:, None, :]).reshape(len(times), -1)
        return trajectory_norm(grid, times, basis, h.weak_class, weights), xu1 * xv

    return {"time_nodes": spec.time_nodes, "horizon": spec.horizon}, sample


def _bilin(h, spec):
    """The bilinear power law ||J_m(u)·∇v|| ≤ ||u||^m ||v||, m > 1."""
    _require(h.m > 1.0, f"bilinear power law needs m > 1, got {h.m:g}")
    grid, times = spec.grid, spec.times()

    def sample(rng):
        (u1, v), (xu1, xv) = _step_draws(h, spec, times, rng, 2)
        terms = step_convection(grid, PowerLaw(h.m), u1, v)
        return trajectory_norm(grid, times, terms, h.weak_class), xu1**h.m * xv

    return {"m": h.m, "time_nodes": spec.time_nodes, "horizon": spec.horizon}, sample


def _bilin_diff(h, spec):
    """The bilinear difference law for (J_m(u1) − J_m(u2))·∇v, m > 1."""
    _require(h.m > 1.0, f"bilinear power law needs m > 1, got {h.m:g}")
    grid, times, m = spec.grid, spec.times(), h.m

    def sample(rng):
        (u1, v, u2), (xu1, xv, xu2) = _step_draws(h, spec, times, rng, 3)
        lhs = trajectory_norm(grid, times, step_convection(grid, PowerLaw(m), u1, v, u2), h.weak_class)
        # u1 - u2 is the four-field trajectory [w1, -w2] @ [u1, u2]
        d_basis, d_weights = np.concatenate([u1[1], u2[1]]), np.concatenate([u1[0], -u2[0]], axis=1)
        xd = trajectory_norm(grid, times, d_basis, h.solution_class, d_weights)
        return lhs, (xu1 ** (m - 1.0) + xu2 ** (m - 1.0)) * xd * xv

    return {"m": m, "time_nodes": spec.time_nodes, "horizon": spec.horizon}, sample


# the pointwise bound, drawn in vectorized chunks, then the sampled ids
_ESTIMATES = {
    "lemma-ab": _lemma_ab,
    "PROD1": _prod1,
    "PROD2": _prod2,
    "POW_SMALL": _pow_small,
    "POW": _pow,
    "DIFF": _diff,
    "SEMI": _semi,
    "MAXREG": _maxreg,
    "DUHAMEL": _duhamel,
    "BILIN_M1": _bilin_m1,
    "BILIN": _bilin,
    "BILIN_DIFF": _bilin_diff,
}
ESTIMATE_IDS = tuple(_ESTIMATES)
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
    check_kind("samples", samples, "integer")
    check_kind("seed", seed, "integer")
    if samples < 1:
        raise ParameterError(f"samples must be >= 1, got {samples}")
    if samples > np.iinfo(np.intp).max // 16:
        # checked before the seed tree is spawned: it is a list, one child a sample
        raise ParameterError(f"samples must leave arrays numpy can size, got {samples}")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    params, sample = _ESTIMATES[ineq_id](h, spec)
    params.update(sigma=spec.sigma, grid_n=spec.grid.n, grid_N=spec.grid.N, grid_L=spec.grid.L, seed=seed)
    root = np.random.SeedSequence(seed)
    if ineq_id == "lemma-ab":
        children = root.spawn(math.ceil(samples / LEMMA_AB_CHUNK))
        chunks = [
            sample(np.random.default_rng(child), min(LEMMA_AB_CHUNK, samples - k * LEMMA_AB_CHUNK))
            for k, child in enumerate(children)
        ]
        lhs, rhs = (np.concatenate(parts) for parts in zip(*chunks))
        violations = int(np.sum(lhs > rhs + POINTWISE_TOL))
        keep = rhs > 0.0
        skipped = int(np.sum(~keep))
        ratios = lhs[keep] / rhs[keep]
        pairs = np.stack([lhs, rhs], axis=1)
    else:
        results = pmap(lambda child: sample(np.random.default_rng(child)), root.spawn(samples))
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
        params=params,
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
