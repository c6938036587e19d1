"""Exponent bookkeeping and randomized inequality measurements."""

import math
import os

import numpy as np
import pytest

from gnslab import (
    ESTIMATE_IDS,
    Grid,
    HypothesisError,
    ParameterError,
    RangeError,
    SampleSpec,
    SideConditionError,
    SpectralField,
    build_cutoff,
    check_hypotheses,
    derive_exponents,
    divergence,
    estimate_constant,
    hypothesis_margins,
    hypothesis_report,
    log_nodes,
    random_field,
    scaling_invariance_check,
    semigroup_apply,
    window_margins,
)
from gnslab.besov_analysis import BesovIndex
from gnslab.estimates_lab import (
    LEMMA_AB_CHUNK,
    _ev_bilinear,
    _lorentz_besov,
    _step_convection,
    random_step_factors,
)
from gnslab.lorentz_time import LorentzIndex
from gnslab.nonlinearity import PowerLaw, convective_term

TWO_PI = 2.0 * math.pi

# regimes used throughout: one per family, three space dimensions
WORKED = {
    "H0": dict(m=1.0, n=3, p=2.0, rho=4.0, alpha=1.0),
    "H1": dict(m=1.5, n=3, p=3.0, rho=7.0, alpha=1.0),
    "H2": dict(m=2.0, n=3, p=3.0, rho=6.0, alpha=1.0),
}
# hand-derived targets: (s, s_tilde, rho_tilde, s0, p0)
WORKED_VALUES = {
    "H0": (-1.0, -0.5, 2.0, 1.0, 1.5),
    "H1": (-29.0 / 21.0, -20.0 / 21.0, 2.8, 13.0 / 21.0, 7.0 / 3.0),
    "H2": (-7.0 / 6.0, -0.5, 2.0, 5.0 / 6.0, 9.0 / 4.0),
}
# two-dimensional variants sized for a desk machine
DESK = {
    "H0": dict(m=1.0, n=2, p=2.0, rho=3.0, alpha=1.0),
    "H1": dict(m=1.5, n=2, p=2.0, rho=6.5, alpha=1.0),
    "H2": dict(m=2.0, n=2, p=3.0, rho=4.5, alpha=1.0),
}
DESIGNATED = {"POW_SMALL": "H0", "BILIN_M1": "H0", "DIFF": "H2", "BILIN": "H2", "BILIN_DIFF": "H2"}


class TestExponentArithmetic:
    @pytest.mark.parametrize("label", sorted(WORKED))
    def test_worked_values(self, label):
        h = check_hypotheses(**WORKED[label])
        s, s_tilde, rho_tilde, s0, p0 = WORKED_VALUES[label]
        assert h.label == label
        assert abs(h.s - s) < 1e-12
        assert abs(h.s_tilde - s_tilde) < 1e-12
        assert abs(h.rho_tilde - rho_tilde) < 1e-12
        assert abs(h.s0 - s0) < 1e-12
        assert abs(h.p0 - p0) < 1e-12

    @pytest.mark.parametrize("label", sorted(WORKED))
    def test_derive_tuple_matches_fields(self, label):
        h = check_hypotheses(**WORKED[label])
        assert derive_exponents(h) == pytest.approx((h.s, h.s_tilde, h.rho_tilde, h.s0, h.p0))

    @pytest.mark.parametrize("label", sorted(DESK))
    def test_desk_variants_admissible(self, label):
        h = check_hypotheses(**DESK[label])
        assert h.label == label

    def test_data_index_consistency(self):
        # s0 = n/p0 - (2 alpha - 1)/m is an identity of the construction
        for kw in list(WORKED.values()) + list(DESK.values()):
            h = check_hypotheses(**kw)
            assert abs(h.s0 - (h.n / h.p0 - (2 * h.alpha - 1) / h.m)) < 1e-12

    def test_margins_on_worked_sets(self):
        # strict bounds need positive slack; closed ones may sit on the edge
        for kw in WORKED.values():
            h = check_hypotheses(**kw)
            for name, margin in hypothesis_margins(h).items():
                if "<" in name:
                    assert margin > 0.0, name
                else:
                    assert margin >= 0.0, name
            w = window_margins(h)
            assert w["lower"] > 0.0 and w["upper"] > 0.0
            assert abs(w["equality_defect"]) < 1e-12

    def test_report_is_json_ready(self):
        import json

        rep = hypothesis_report(check_hypotheses(**WORKED["H2"]))
        text = json.dumps(rep)
        assert '"H2"' in text


class TestHypothesisRejection:
    def test_integrability_ceiling(self):
        with pytest.raises(HypothesisError) as err:
            check_hypotheses(m=2.0, n=3, p=7.0, rho=6.0, alpha=1.0)
        names = [name for name, _ in err.value.violations]
        assert any("p < 2n" in name for name in names)

    def test_borderline_equality_rejected(self):
        # middle family at rho = 6 lands exactly on a strict bound
        with pytest.raises(HypothesisError) as err:
            check_hypotheses(m=1.5, n=2, p=2.0, rho=6.0, alpha=1.0)
        assert err.value.violations

    def test_p0_override_must_stay_below_p(self):
        with pytest.raises(HypothesisError):
            check_hypotheses(m=1.0, n=3, p=2.0, rho=4.0, alpha=1.0, p0=3.0)

    def test_preconditions(self):
        with pytest.raises(ParameterError):
            check_hypotheses(m=0.0, n=3, p=2.0, rho=4.0, alpha=1.0)
        with pytest.raises(ParameterError):
            check_hypotheses(m=1.0, n=4, p=2.0, rho=4.0, alpha=1.0)
        with pytest.raises(ParameterError):
            check_hypotheses(m=1.0, n=3, p=2.0, rho=4.0, alpha=0.4)
        with pytest.raises(ParameterError):
            check_hypotheses(m=2.0, n=3, p=3.0, rho=2.5, alpha=1.0)  # rho <= m + 1

    @pytest.mark.parametrize("bad", [dict(m="1"), dict(n=3.0), dict(p=True), dict(rho=[4.0]),
                                     dict(alpha=None), dict(r="2"), dict(p0="2")])
    def test_non_numbers_are_parameter_errors(self, bad):
        args = dict(m=1.0, n=3, p=2.0, rho=4.0, alpha=1.0)
        args.update(bad)
        with pytest.raises(ParameterError, match=f"^{next(iter(bad))} must be"):
            check_hypotheses(**args)


class TestRandomFields:
    def test_band_limited_support(self):
        g = Grid(2, 64, TWO_PI)
        c = build_cutoff(g)
        f = random_field(g, c, np.random.default_rng(0))
        lo, hi = c.safe_band()
        assert f.max_index() * g.k0 <= hi + 1e-9

    def test_solenoidal_option(self):
        g = Grid(2, 64, TWO_PI)
        f = random_field(g, build_cutoff(g), np.random.default_rng(1), ncomp=2, solenoidal=True)
        div = divergence(f)
        assert np.max(np.abs(div.coeffs)) < 1e-10 * (1 + np.max(np.abs(f.coeffs)))

    def test_sigma_steepens_block_decay(self):
        # same noise draw, larger decay exponent: higher blocks lose more
        from gnslab import block_lp_norms

        g = Grid(2, 64, TWO_PI)
        c = build_cutoff(g)
        a = random_field(g, c, np.random.default_rng(2), sigma=1.0)
        b = random_field(g, c, np.random.default_rng(2), sigma=3.0)
        ratios = block_lp_norms(b, c, 2.0) / block_lp_norms(a, c, 2.0)
        assert np.all(np.diff(ratios) < 0.0)
        assert ratios[-1] < 0.25 * ratios[0]


class TestEstimateConstant:
    def setup_method(self):
        self.grid = Grid(2, 64, TWO_PI)
        self.spec = SampleSpec(grid=self.grid, time_nodes=9)
        self.sets = {k: check_hypotheses(**v) for k, v in DESK.items()}

    def test_id_menu(self):
        assert len(ESTIMATE_IDS) == 12
        assert ESTIMATE_IDS[0] == "lemma-ab"

    def test_unknown_id_rejected(self):
        with pytest.raises(ParameterError):
            estimate_constant("NOPE", self.sets["H0"], 3, self.spec)

    def test_sample_floor(self):
        with pytest.raises(ParameterError):
            estimate_constant("PROD1", self.sets["H0"], 0, self.spec)

    def test_pointwise_menu_run(self):
        rep = estimate_constant("lemma-ab", self.sets["H2"], 2000, self.spec, seed=3)
        assert rep.violations == 0
        assert rep.params["m"] == "menu"
        assert math.isfinite(rep.max_ratio)

    def test_pointwise_fixed_exponent(self):
        spec = SampleSpec(grid=self.grid, time_nodes=9, m_override=0.5)
        rep = estimate_constant("lemma-ab", self.sets["H2"], 2000, spec, seed=3)
        assert rep.violations == 0
        assert rep.params["m"] == 0.5

    def test_pointwise_last_chunk_is_partial(self):
        rep = estimate_constant("lemma-ab", self.sets["H2"], LEMMA_AB_CHUNK + 5, self.spec, seed=3)
        assert rep.pairs.shape == (LEMMA_AB_CHUNK + 5, 2)
        assert rep.params["amplitude"] == 10.0

    def test_difference_law_reports_the_default_range(self):
        rep = estimate_constant("DIFF", self.sets["H1"], 1, self.spec, seed=3)
        assert rep.params["weak_range"] is False

    @pytest.mark.parametrize("ineq_id", [i for i in ESTIMATE_IDS if i != "lemma-ab"])
    def test_every_id_reports_finite_ratio(self, ineq_id):
        h = self.sets[DESIGNATED.get(ineq_id, "H1")]
        rep = estimate_constant(ineq_id, h, 2, self.spec, seed=1)
        assert rep.violations == 0
        assert math.isfinite(rep.max_ratio) and rep.max_ratio > 0.0
        assert rep.pairs.shape == (2, 2)

    def test_side_conditions(self):
        with pytest.raises(SideConditionError):
            estimate_constant("BILIN", self.sets["H0"], 2, self.spec)
        with pytest.raises(SideConditionError):
            estimate_constant("BILIN_M1", self.sets["H2"], 2, self.spec)
        with pytest.raises(SideConditionError):
            estimate_constant("POW_SMALL", self.sets["H2"], 2, self.spec)
        with pytest.raises(SideConditionError):
            estimate_constant("DIFF", self.sets["H0"], 2, self.spec)

    def test_seed_determinism(self):
        a = estimate_constant("SEMI", self.sets["H1"], 4, self.spec, seed=9)
        b = estimate_constant("SEMI", self.sets["H1"], 4, self.spec, seed=9)
        c = estimate_constant("SEMI", self.sets["H1"], 4, self.spec, seed=10)
        assert np.array_equal(a.pairs, b.pairs)
        assert not np.array_equal(a.pairs, c.pairs)

    def test_worker_count_does_not_change_results(self, monkeypatch):
        monkeypatch.setenv("GNS_THREADS", "1")
        a = estimate_constant("PROD2", self.sets["H1"], 6, self.spec, seed=2)
        monkeypatch.setenv("GNS_THREADS", "4")
        b = estimate_constant("PROD2", self.sets["H1"], 6, self.spec, seed=2)
        assert np.array_equal(a.pairs, b.pairs)

    def test_worker_count_does_not_change_factored_results(self, monkeypatch):
        monkeypatch.setenv("GNS_THREADS", "1")
        a = estimate_constant("BILIN_DIFF", self.sets["H2"], 4, self.spec, seed=2)
        monkeypatch.setenv("GNS_THREADS", "2")
        b = estimate_constant("BILIN_DIFF", self.sets["H2"], 4, self.spec, seed=2)
        assert np.array_equal(a.pairs, b.pairs)

    def test_line_is_flat_and_complete(self):
        rep = estimate_constant("PROD1", self.sets["H0"], 3, self.spec, seed=5)
        line = rep.line()
        for key in ("ineq_id", "hypothesis_label", "samples", "max_ratio",
                    "median_ratio", "violations", "skipped", "params"):
            assert key in line
        assert line["samples"] == 3


def _reference_bilinear(h, spec, cutoff, rng, difference):
    """The per-node BILIN evaluator: every node of every trajectory is
    materialized and convected on its own by convective_term."""
    grid = cutoff.grid
    times = log_nodes(spec.horizon, spec.time_nodes)
    pl = PowerLaw(h.m)
    sol = BesovIndex(h.s + 2.0 * h.alpha, h.p, 1.0)
    weak = BesovIndex(h.s_tilde, h.p, math.inf)
    lor = LorentzIndex(h.rho, h.r)
    lor_t = LorentzIndex(h.rho_tilde, h.r)

    def random_step_coeffs():
        weights, (f1, f2) = random_step_factors(grid, cutoff, rng, times, spec.sigma, ncomp=grid.n)
        extra = (1,) * (1 + grid.n)
        return (
            weights[:, 0].reshape((-1,) + extra) * f1[None]
            + weights[:, 1].reshape((-1,) + extra) * f2[None]
        )

    u1 = random_step_coeffs()
    v = random_step_coeffs()
    if difference:
        u2 = random_step_coeffs()

    def convection(j):
        vf = SpectralField(grid, v[j])
        term = convective_term(SpectralField(grid, u1[j]), vf, pl)
        if difference:
            term = term - convective_term(SpectralField(grid, u2[j]), vf, pl)
        return term.with_zero_mean().coeffs

    terms = (convection(j) for j in range(len(times)))
    lhs = _lorentz_besov(times, terms, weak, lor_t, cutoff)
    xu1 = _lorentz_besov(times, u1, sol, lor, cutoff)
    xv = _lorentz_besov(times, v, sol, lor, cutoff)
    if difference:
        xu2 = _lorentz_besov(times, u2, sol, lor, cutoff)
        xd = _lorentz_besov(times, u1 - u2, sol, lor, cutoff)
        rhs = (xu1 ** (h.m - 1.0) + xu2 ** (h.m - 1.0)) * xd * xv
    else:
        rhs = xu1**h.m * xv
    return lhs, rhs


class TestFactoredBilinear:
    """The BILIN ids transform each basis field of a step trajectory once."""

    GRIDS = {2: Grid(2, 64, TWO_PI), 3: Grid(3, 32, 4.0 * TWO_PI / 3.0)}
    SETS = {2: DESK, 3: WORKED}

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize(
        "label, difference",
        [("H0", False), ("H1", False), ("H2", False), ("H1", True), ("H2", True)],
    )
    def test_pairs_match_the_per_node_evaluator(self, n, label, difference):
        # guard: m = 1, 1.5 and 2 (BILIN_M1, BILIN, BILIN_DIFF) against the node-by-node form
        h = check_hypotheses(**self.SETS[n][label])
        spec = SampleSpec(grid=self.GRIDS[n], time_nodes=5)
        cutoff = build_cutoff(spec.grid)
        for seed in (0, 1):
            got = _ev_bilinear(h, spec, cutoff, np.random.default_rng(seed), {}, difference)
            want = _reference_bilinear(h, spec, cutoff, np.random.default_rng(seed), difference)
            assert np.max(np.abs(np.subtract(got, want)) / np.abs(want)) <= 1e-13

    @pytest.mark.parametrize("which", ["u", "v", "u2"])
    def test_non_real_basis_field_rejected(self, which):
        grid = self.GRIDS[2]
        cutoff = build_cutoff(grid)
        rng = np.random.default_rng(3)
        times = log_nodes(1.0, 3)
        factors = {
            name: random_step_factors(grid, cutoff, rng, times, ncomp=grid.n)
            for name in ("u", "v", "u2")
        }
        factors[which][1][1, 0, 1, 2] += 1.0  # its mirror at (-1, -2) is left alone
        terms = _step_convection(grid, PowerLaw(1.5), factors["u"], factors["v"], factors["u2"])
        with pytest.raises(ParameterError, match="field is not real-valued in physical space"):
            next(terms)


class TestScalingInvariance:
    def _semigroup_pair(self, amp=1.0):
        g = Grid(2, 64, 2.0 * TWO_PI)
        x = g.axis_coordinates()
        vals = amp * np.stack([
            np.broadcast_to(np.cos(1.5 * x)[None, :], g.shape),
            np.broadcast_to(np.cos(1.5 * x)[:, None], g.shape),
        ])
        a = SpectralField.from_physical(g, vals)
        h = check_hypotheses(**DESK["H2"])
        times = log_nodes(1.0, 5)
        fields = [semigroup_apply(a, float(t), h.alpha) for t in times]
        return (times, fields), a, h

    def test_critical_ratios_are_unity(self):
        traj, a, h = self._semigroup_pair()
        out = scaling_invariance_check(traj, a, h, 2.0)
        assert out["initial_ratio"] == pytest.approx(1.0, abs=1e-10)
        assert out["temporal_ratio"] == pytest.approx(1.0, abs=1e-10)

    def test_identity_dilation(self):
        traj, a, h = self._semigroup_pair()
        out = scaling_invariance_check(traj, a, h, 1.0)
        assert out["initial_ratio"] == pytest.approx(1.0, abs=1e-13)

    def test_only_dyadic_factors(self):
        traj, a, h = self._semigroup_pair()
        with pytest.raises(ParameterError):
            scaling_invariance_check(traj, a, h, 3.0)

    def test_unresolvable_factor_raises(self):
        g = Grid(2, 64, TWO_PI)
        x = g.axis_coordinates()
        vals = np.stack([
            np.broadcast_to(np.cos(32 * x)[None, :], g.shape),
            np.broadcast_to(np.cos(32 * x)[:, None], g.shape),
        ])
        a = SpectralField.from_physical(g, vals)
        h = check_hypotheses(**DESK["H2"])
        times = log_nodes(1.0, 3)
        fields = [semigroup_apply(a, float(t), h.alpha) for t in times]
        with pytest.raises(RangeError):
            scaling_invariance_check((times, fields), a, h, 2.0)
