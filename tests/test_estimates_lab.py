"""Exponent bookkeeping and randomized inequality measurements."""

import dataclasses
import math
import os
import tracemalloc

import numpy as np
import pytest

from gnslab import (
    ESTIMATE_IDS,
    ConfigurationError,
    Grid,
    HypothesisError,
    ParameterError,
    RangeError,
    SampleSpec,
    SideConditionError,
    SpectralField,
    besov_norm,
    build_cutoff,
    check_hypotheses,
    dilate,
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
from gnslab import errors, nonlinearity, spectral_core
from gnslab.besov_analysis import BesovIndex, LorentzBesov, trajectory_norm
from gnslab.estimates_lab import (
    _ESTIMATES,
    LEMMA_AB_CHUNK,
    TIMED_IDS,
    family_label,
    random_step_factors,
)
from gnslab.lorentz_time import LorentzIndex
from gnslab.nonlinearity import PowerLaw, convective_term, step_convection

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
# each id's exponents in its report, on its designated DESK set
PINNED_PARAMS = {
    "lemma-ab": {"m": "menu", "amplitude": 10.0, "dimension": 2},
    "PROD1": {"s": 0.5, "r": 2.0, "p": 2.0, "split_p": 4.0, "delta": 0.25},
    "PROD2": {"s": 0.5, "r": 2.0, "p": 2.0, "split_p": 4.0, "delta": 0.25},
    "POW_SMALL": {"m": 1.0, "s": 0.5, "r": 2.0, "p": 2.0},
    "POW": {"m": 1.5, "s": 0.5, "r": 2.0, "p": 2.0},
    "DIFF": {"m": 2.0, "s": 0.3333333333333333, "r": 2.0, "r0": 2.0, "p": 3.0, "weak_range": False},
    "SEMI": {"gamma": 0.0, "time_nodes": 9, "horizon": 1.0},
    "MAXREG": {"gamma": 0.0, "time_nodes": 9, "horizon": 1.0, "q": 1.0},
    "DUHAMEL": {"gamma": 0.0, "time_nodes": 9, "horizon": 1.0},
    "BILIN_M1": {"time_nodes": 9, "horizon": 1.0},
    "BILIN": {"m": 2.0, "time_nodes": 9, "horizon": 1.0},
    "BILIN_DIFF": {"m": 2.0, "time_nodes": 9, "horizon": 1.0},
}


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

    @pytest.mark.parametrize("label", sorted(DESK))
    def test_desk_variants_admissible(self, label):
        h = check_hypotheses(**DESK[label])
        assert h.label == label

    @pytest.mark.parametrize("label", sorted(WORKED))
    def test_the_three_spaces(self, label):
        # data B^{s0}_{p0,r}, solution L^{rho,r}(B^{s+2a}_{p,1}), weak L^{rho~,r}(B^{s~}_{p,inf})
        h = check_hypotheses(**WORKED[label])
        assert h.data_space == BesovIndex(h.s0, h.p0, h.r)
        assert h.solution_class == LorentzBesov(
            BesovIndex(h.s + 2.0 * h.alpha, h.p, 1.0), LorentzIndex(h.rho, h.r)
        )
        assert h.weak_class == LorentzBesov(
            BesovIndex(h.s_tilde, h.p, math.inf), LorentzIndex(h.rho_tilde, h.r)
        )

    def test_family_label_follows_m(self):
        labels = [family_label(m) for m in (1.0, 1.0 + 1e-12, 1.5, 2.0 - 1e-12, 2.0, 3.0)]
        assert labels == ["H0", "H1", "H1", "H1", "H2", "H2"]

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
        f = random_field(g, np.random.default_rng(0))
        lo, hi = c.safe_band()
        assert f.max_index() * g.k0 <= hi + 1e-9

    def test_solenoidal_option(self):
        g = Grid(2, 64, TWO_PI)
        f = random_field(g, np.random.default_rng(1), ncomp=2, solenoidal=True)
        div = divergence(f)
        assert np.max(np.abs(div.coeffs)) < 1e-10 * (1 + np.max(np.abs(f.coeffs)))

    def test_sigma_steepens_block_decay(self):
        # same noise draw, larger decay exponent: higher blocks lose more
        from gnslab import block_lp_norms

        g = Grid(2, 64, TWO_PI)
        a = random_field(g, np.random.default_rng(2), sigma=1.0)
        b = random_field(g, np.random.default_rng(2), sigma=3.0)
        ratios = block_lp_norms(b, 2.0) / block_lp_norms(a, 2.0)
        assert np.all(np.diff(ratios) < 0.0)
        assert ratios[-1] < 0.25 * ratios[0]


class TestEstimateConstant:
    def setup_method(self):
        self.grid = Grid(2, 64, TWO_PI)
        self.spec = SampleSpec(grid=self.grid, time_nodes=9)
        self.sets = {k: check_hypotheses(**v) for k, v in DESK.items()}

    def test_id_menu(self):
        assert ESTIMATE_IDS == (
            "lemma-ab", "PROD1", "PROD2", "POW_SMALL", "POW", "DIFF", "SEMI",
            "MAXREG", "DUHAMEL", "BILIN_M1", "BILIN", "BILIN_DIFF",
        )

    def test_every_scalar_field_has_a_kind(self):
        # each field but the grid is checked by its annotation
        for f in dataclasses.fields(SampleSpec):
            if f.name != "grid":
                assert f.type in errors._ANNOTATION_KINDS, f.name

    @pytest.mark.parametrize("name, value", [("sigma", True), ("time_nodes", 5.5), ("horizon", "1")])
    def test_scalar_field_of_another_kind_rejected(self, name, value):
        with pytest.raises(ParameterError, match=f"^{name} must be"):
            SampleSpec(grid=self.grid, **{name: value})

    @pytest.mark.parametrize(
        "name, value", [("samples", True), ("samples", 2.0), ("seed", 1.5), ("seed", True)]
    )
    def test_non_integer_count_rejected(self, name, value):
        args = {"samples": 3, "seed": 0, name: value}
        with pytest.raises(ParameterError, match=f"^{name} must be an integer"):
            estimate_constant("PROD1", self.sets["H0"], args["samples"], self.spec, seed=args["seed"])

    def test_node_count_numpy_cannot_size_rejected(self):
        # numpy refuses np.arange(10**20) outright
        with pytest.raises(ParameterError, match="^time_nodes must leave arrays numpy can size"):
            SampleSpec(grid=self.grid, time_nodes=10**20)

    @pytest.mark.parametrize("iid", ["lemma-ab", "SEMI"])
    def test_sample_count_numpy_cannot_size_rejected(self, iid):
        # the (samples, 2) pairs array; the seed tree is spawned only after this
        with pytest.raises(ParameterError, match="^samples must leave arrays numpy can size"):
            estimate_constant(iid, self.sets["H0"], 10**20, self.spec)
        with pytest.raises(ParameterError, match="^samples must leave"):
            estimate_constant(iid, self.sets["H0"], np.iinfo(np.intp).max // 16 + 1, self.spec)

    def test_unknown_id_rejected(self):
        with pytest.raises(ParameterError):
            estimate_constant("NOPE", self.sets["H0"], 3, self.spec)

    def test_sample_floor(self):
        with pytest.raises(ParameterError):
            estimate_constant("PROD1", self.sets["H0"], 0, self.spec)

    def test_too_coarse_grid_rejected(self):
        spec = SampleSpec(grid=Grid(2, 16, 8.0 * math.pi / 3.0), time_nodes=9)
        with pytest.raises(ConfigurationError):
            estimate_constant("SEMI", self.sets["H2"], 2, spec)

    def test_pointwise_menu_run(self):
        rep = estimate_constant("lemma-ab", self.sets["H2"], 2000, self.spec, seed=3)
        assert rep.violations == 0
        assert rep.params["m"] == "menu"
        assert math.isfinite(rep.max_ratio)

    def test_pointwise_last_chunk_is_partial(self):
        rep = estimate_constant("lemma-ab", self.sets["H2"], LEMMA_AB_CHUNK + 5, self.spec, seed=3)
        assert rep.pairs.shape == (LEMMA_AB_CHUNK + 5, 2)
        assert rep.params["amplitude"] == 10.0

    def test_difference_law_reports_the_default_range(self):
        rep = estimate_constant("DIFF", self.sets["H1"], 1, self.spec, seed=3)
        assert rep.params["weak_range"] is False

    @pytest.mark.parametrize("ineq_id", ESTIMATE_IDS)
    def test_timed_ids_are_those_whose_params_carry_nodes(self, ineq_id):
        # gns verify builds SampleSpec.times() up front for exactly these ids
        h = self.sets[DESIGNATED.get(ineq_id, "H1")]
        params, _ = _ESTIMATES[ineq_id](h, self.spec)
        assert ("time_nodes" in params) == (ineq_id in TIMED_IDS)

    @pytest.mark.parametrize("ineq_id", ESTIMATE_IDS)
    def test_params_are_pinned(self, ineq_id):
        # the verify line's params on the designated 2-D desk set at N = 32:
        # the id's own exponents in report order, then the sampling record
        spec = SampleSpec(grid=Grid(2, 32, 8.0 * math.pi / 3.0), time_nodes=9)
        rep = estimate_constant(ineq_id, self.sets[DESIGNATED.get(ineq_id, "H1")], 1, spec)
        record = {"sigma": 1.0, "grid_n": 2, "grid_N": 32, "grid_L": 8.377580409572781, "seed": 0}
        assert list(rep.params.items()) == list({**PINNED_PARAMS[ineq_id], **record}.items())

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

    def test_tables_first_built_in_workers_match_a_sequential_run(self, monkeypatch):
        # each run starts from a fresh grid and empty index caches; the
        # derivative rows and the fine-grid indices are first read by the
        # sampled convections, so the threaded run builds them in its workers
        def run(threads):
            spectral_core._fine_indices.cache_clear()
            spectral_core._negation_index.cache_clear()
            spec = SampleSpec(grid=Grid(2, 64, TWO_PI), time_nodes=9)
            monkeypatch.setenv("GNS_THREADS", threads)
            return estimate_constant("BILIN_DIFF", self.sets["H2"], 4, spec, seed=2)

        assert np.array_equal(run("1").pairs, run("2").pairs)

    def test_line_is_flat_and_complete(self):
        rep = estimate_constant("PROD1", self.sets["H0"], 3, self.spec, seed=5)
        line = rep.line()
        assert list(line) == ["ineq_id", "hypothesis_label", "params", "samples",
                              "max_ratio", "median_ratio", "violations", "skipped"]
        assert line["samples"] == 3


def _bilinear_sample(h, spec, rng, difference):
    """One sample of BILIN_DIFF, or of BILIN_M1 or BILIN by h's power."""
    ineq_id = "BILIN_DIFF" if difference else "BILIN_M1" if h.m == 1.0 else "BILIN"
    return _ESTIMATES[ineq_id](h, spec)[1](rng)


def _reference_bilinear(h, spec, rng, difference):
    """The per-node BILIN evaluator: every node of every trajectory is
    materialized and convected on its own by convective_term."""
    grid = spec.grid
    times = log_nodes(spec.horizon, spec.time_nodes)
    pl = PowerLaw(h.m)
    sol = LorentzBesov(BesovIndex(h.s + 2.0 * h.alpha, h.p, 1.0), LorentzIndex(h.rho, h.r))
    weak = LorentzBesov(BesovIndex(h.s_tilde, h.p, math.inf), LorentzIndex(h.rho_tilde, h.r))

    def random_step_coeffs():
        weights, (f1, f2) = random_step_factors(grid, rng, times, spec.sigma, ncomp=grid.n)
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
    lhs = trajectory_norm(grid, times, terms, weak)
    xu1 = trajectory_norm(grid, times, u1, sol)
    xv = trajectory_norm(grid, times, v, sol)
    if difference:
        xu2 = trajectory_norm(grid, times, u2, sol)
        xd = trajectory_norm(grid, times, u1 - u2, sol)
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
        for seed in (0, 1):
            got = _bilinear_sample(h, spec, np.random.default_rng(seed), difference)
            want = _reference_bilinear(h, spec, np.random.default_rng(seed), difference)
            assert np.max(np.abs(np.subtract(got, want)) / np.abs(want)) <= 1e-13

    @pytest.mark.parametrize("p, rho", [(2.0, 3.0), (3.0, 2.5)])
    def test_m1_lhs_equals_the_per_node_products(self, p, rho):
        # the factored lhs against one step_convection product a node; at
        # p = 3 the nodes' blocks are mixed in physical space
        h = check_hypotheses(m=1.0, n=2, p=p, rho=rho, alpha=1.0)
        grid = self.GRIDS[2]
        spec = SampleSpec(grid=grid)
        times = log_nodes(spec.horizon, spec.time_nodes)
        for seed in range(5):
            got = _bilinear_sample(h, spec, np.random.default_rng(seed), False)[0]
            rng = np.random.default_rng(seed)
            u = random_step_factors(grid, rng, times, spec.sigma, ncomp=2)
            v = random_step_factors(grid, rng, times, spec.sigma, ncomp=2)
            terms = step_convection(grid, PowerLaw(1.0), u, v)
            want = trajectory_norm(grid, times, terms, h.weak_class)
            assert abs(got - want) <= 1e-13 * want

    @pytest.mark.parametrize("label, products", [("H0", 4), ("H1", 33)])
    def test_m1_convects_the_four_basis_pairs_only(self, monkeypatch, label, products):
        # m = 1 forms u1_r . grad v_s once per basis pair; m != 1 one product a node
        calls = []

        def counted(*args):
            calls.append(None)
            return advect(*args)

        advect = nonlinearity._advect
        monkeypatch.setattr(nonlinearity, "_advect", counted)
        spec = SampleSpec(grid=self.GRIDS[2], time_nodes=33)
        _bilinear_sample(check_hypotheses(**DESK[label]), spec, np.random.default_rng(0), False)
        assert len(calls) == products

    @pytest.mark.parametrize("which", ["u", "v", "u2"])
    def test_non_real_basis_field_rejected(self, which):
        grid = self.GRIDS[2]
        rng = np.random.default_rng(3)
        times = log_nodes(1.0, 3)
        factors = {
            name: random_step_factors(grid, rng, times, ncomp=grid.n)
            for name in ("u", "v", "u2")
        }
        # on the last-axis plane 0, which holds both z and -z; the mirror
        # at (-1, 0) is left alone
        factors[which][1][1, 0, 1, 0] += 1.0
        terms = step_convection(grid, PowerLaw(1.5), factors["u"], factors["v"], factors["u2"])
        with pytest.raises(ParameterError, match="field is not real-valued in physical space"):
            next(terms)


class TestTrajectoryMemory:
    """SEMI and DUHAMEL read the Duhamel kernel's nodes as it yields them."""

    GRIDS = {2: Grid(2, 64, TWO_PI), 3: Grid(3, 32, 4.0 * TWO_PI / 3.0)}
    SETS = {2: DESK, 3: WORKED}

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("iid", ["SEMI", "DUHAMEL"])
    def test_one_sample_peaks_under_three_quarters_of_a_stack(self, n, iid):
        # one node at a time beside the factored right-hand side (1.35 to
        # 1.67 stacks when the kernel returned a J-node stack); tracemalloc
        # counts allocations, so the bound does not depend on the heap layout
        h = check_hypotheses(**self.SETS[n]["H2"])
        spec = SampleSpec(grid=self.GRIDS[n], time_nodes=33)
        stack_bytes = spec.time_nodes * n * math.prod(spec.grid.half_shape) * 16
        estimate_constant(iid, h, 1, spec)  # per-grid tables are built outside the trace
        tracemalloc.start()
        try:
            estimate_constant(iid, h, 1, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * stack_bytes

    @pytest.mark.parametrize("n", [2, 3])
    def test_maxreg_sample_peaks_under_one_stack(self, n):
        # A u streams beside u' node by node (1.73 stacks when it was kept
        # as one (J, c, lattice) block)
        h = check_hypotheses(**self.SETS[n]["H2"])
        spec = SampleSpec(grid=self.GRIDS[n], time_nodes=33)
        stack_bytes = spec.time_nodes * n * math.prod(spec.grid.half_shape) * 16
        estimate_constant("MAXREG", h, 1, spec)
        tracemalloc.start()
        try:
            estimate_constant("MAXREG", h, 1, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.0 * stack_bytes


class TestScalingInvariance:
    def _cosine_data(self, amp=1.0):
        g = Grid(2, 64, 2.0 * TWO_PI)
        x = g.axis_coordinates()
        vals = amp * np.stack([
            np.broadcast_to(np.cos(1.5 * x)[None, :], g.shape),
            np.broadcast_to(np.cos(1.5 * x)[:, None], g.shape),
        ])
        a = SpectralField.from_physical(g, vals)
        h = check_hypotheses(**DESK["H2"])
        return a, h, log_nodes(1.0, 5)

    def test_critical_ratios_are_unity(self):
        a, h, times = self._cosine_data()
        out = scaling_invariance_check(a, h, 2.0, times)
        assert out["initial_ratio"] == pytest.approx(1.0, abs=1e-10)
        assert out["temporal_ratio"] == pytest.approx(1.0, abs=1e-10)

    def test_identity_dilation(self):
        a, h, times = self._cosine_data()
        out = scaling_invariance_check(a, h, 1.0, times)
        assert out["initial_ratio"] == pytest.approx(1.0, abs=1e-13)

    def test_only_dyadic_factors(self):
        a, h, times = self._cosine_data()
        with pytest.raises(ParameterError):
            scaling_invariance_check(a, h, 3.0, times)

    def test_unresolvable_factor_raises(self):
        g = Grid(2, 64, TWO_PI)
        x = g.axis_coordinates()
        vals = np.stack([
            np.broadcast_to(np.cos(32 * x)[None, :], g.shape),
            np.broadcast_to(np.cos(32 * x)[:, None], g.shape),
        ])
        a = SpectralField.from_physical(g, vals)
        h = check_hypotheses(**DESK["H2"])
        with pytest.raises(RangeError):
            scaling_invariance_check(a, h, 2.0, log_nodes(1.0, 3))

    def test_too_coarse_grid_reported_before_unresolvable_factor(self):
        g = Grid(2, 16, TWO_PI)
        a = SpectralField.from_modes(g, {(3, 0): 1.0})
        h = check_hypotheses(**DESK["H2"])
        with pytest.raises(ConfigurationError):
            scaling_invariance_check(a, h, 4.0, log_nodes(1.0, 3))

    GRID_3D = Grid(3, 32, 4.0 * TWO_PI / 3.0)

    @pytest.mark.parametrize("label", ["H0", "H1", "H2"])
    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_ratios_equal_the_semigroup_list_bit_for_bit(self, label, lam):
        # the reference forms every node with semigroup_apply and dilates each
        # one, as the check did before it streamed the kernel
        h = check_hypotheses(**WORKED[label])
        a = random_field(self.GRID_3D, np.random.default_rng(3), ncomp=3, solenoidal=True)
        times = log_nodes(1.0, 9)
        j = int(math.log2(lam))
        prefactor = lam ** ((2.0 * h.alpha - 1.0) / h.m)
        sol = h.solution_class
        init_ratio = (besov_norm(dilate(a, j) * prefactor, h.data_space)
                      / besov_norm(a, h.data_space))
        nodes = [semigroup_apply(a, t, h.alpha) for t in times]
        dilated = [dilate(f, j) * prefactor for f in nodes]
        temp_ratio = (trajectory_norm(dilated[0].grid, times * lam ** (-2.0 * h.alpha),
                                      [f.coeffs for f in dilated], sol)
                      / trajectory_norm(a.grid, times, [f.coeffs for f in nodes], sol))
        out = scaling_invariance_check(a, h, lam, times)
        assert out == {"initial_ratio": init_ratio, "temporal_ratio": temp_ratio}

    def test_peak_memory_does_not_grow_with_the_node_count(self):
        # both trajectories stream from the kernel one node at a time; a
        # list of J nodes and J dilates peaked at 45.6 node arrays for
        # J = 17 and 141.7 for J = 65
        h = check_hypotheses(**WORKED["H2"])
        a = random_field(self.GRID_3D, np.random.default_rng(3), ncomp=3, solenoidal=True)
        node_bytes = 3 * math.prod(self.GRID_3D.half_shape) * 16
        scaling_invariance_check(a, h, 2.0, log_nodes(1.0, 17))  # per-grid tables
        peaks = []
        for nodes in (17, 65):
            tracemalloc.start()
            try:
                scaling_invariance_check(a, h, 2.0, log_nodes(1.0, nodes))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < node_bytes
