"""End-to-end acceptance checks.

Each test prints exactly one verdict line (run pytest with -s or -rA to see
them on passing runs).  The numbered checks exercise the full surface at
desk scale: two space dimensions unless a check explicitly needs three,
grids of at most 128 points per axis, at most 256 time nodes.
"""

import json
import math
import time

import numpy as np

from gnslab import (
    ESTIMATE_IDS,
    BesovIndex,
    Grid,
    LorentzIndex,
    PowerLaw,
    SampleSpec,
    SolverConfig,
    SolverConstants,
    SpectralField,
    TimeSamples,
    besov_norm,
    build_cutoff,
    check_hypotheses,
    convective_term,
    estimate_constant,
    estimate_solver_constants,
    log_nodes,
    lorentz_norm,
    partition_sum,
    picard_solve,
    pressure_recover,
    random_field,
    reconstruct,
    scaling_invariance_check,
    smallness_gate,
    solution_norm,
)
from gnslab.cli import main as cli_main

TWO_PI = 2.0 * math.pi

WORKED = {
    "H0": dict(m=1.0, n=3, p=2.0, rho=4.0, alpha=1.0),
    "H1": dict(m=1.5, n=3, p=3.0, rho=7.0, alpha=1.0),
    "H2": dict(m=2.0, n=3, p=3.0, rho=6.0, alpha=1.0),
}
WORKED_VALUES = {
    "H0": (-1.0, -0.5, 2.0, 1.0, 1.5),
    "H1": (-29.0 / 21.0, -20.0 / 21.0, 2.8, 13.0 / 21.0, 7.0 / 3.0),
    "H2": (-7.0 / 6.0, -0.5, 2.0, 5.0 / 6.0, 9.0 / 4.0),
}
DESK = {
    "H0": dict(m=1.0, n=2, p=2.0, rho=3.0, alpha=1.0),
    "H1": dict(m=1.5, n=2, p=2.0, rho=6.5, alpha=1.0),
    "H2": dict(m=2.0, n=2, p=3.0, rho=4.5, alpha=1.0),
}
DESIGNATED = {"POW_SMALL": "H0", "BILIN_M1": "H0", "DIFF": "H2", "BILIN": "H2", "BILIN_DIFF": "H2"}


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


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


def test_criterion_01_pointwise_increment_sweep():
    # a million random increments across both exponent branches, no
    # violations, in under thirty seconds
    grid = Grid(2, 64, TWO_PI)
    h = check_hypotheses(**DESK["H2"])
    spec = SampleSpec(grid=grid, time_nodes=9)
    t0 = time.perf_counter()
    rep = estimate_constant("lemma-ab", h, 10**6, spec, seed=2024)
    wall = time.perf_counter() - t0
    ok = rep.violations == 0 and rep.params["m"] == "menu" and wall < 30.0
    _verdict(1, ok, f"{rep.samples} increments, {rep.violations} violations, {wall:.1f}s")


def test_criterion_02_partition_and_reconstruction():
    grid = Grid(2, 64, TWO_PI)
    cutoff = build_cutoff(grid)
    lo, hi = cutoff.safe_band()
    radii = np.exp(np.linspace(math.log(lo * 1.0001), math.log(hi * 0.9999), 5000))
    part_dev = float(np.max(np.abs(partition_sum(radii) - 1.0)))
    rng = np.random.default_rng(2024)
    recon_dev = 0.0
    for i in range(100):
        f = random_field(grid, rng, sigma=0.5 + (i % 4) * 0.5, ncomp=1 + (i % 2))
        back = reconstruct(f)
        scale = 1.0 + float(np.max(np.abs(f.coeffs)))
        recon_dev = max(recon_dev, float(np.max(np.abs(back.coeffs - f.coeffs))) / scale)
    ok = part_dev < 1e-10 and recon_dev < 1e-10
    _verdict(2, ok, f"partition dev {part_dev:.2e}, reconstruction dev {recon_dev:.2e} over 100 fields")


def test_criterion_03_scaling_invariance_of_critical_norms():
    grid = Grid(3, 64, 2.0 * TWO_PI)
    rng = np.random.default_rng(7)
    worst = 0.0
    for label in ("H0", "H1", "H2"):
        h = check_hypotheses(**WORKED[label])
        a = random_field(grid, rng, ncomp=3, solenoidal=True)
        out = scaling_invariance_check(a, h, 2.0, log_nodes(1.0, 9))
        worst = max(worst, abs(out["initial_ratio"] - 1.0), abs(out["temporal_ratio"] - 1.0))
    ok = worst < 0.02
    _verdict(3, ok, f"lambda=2 ratio deviation {worst:.2e} across H0/H1/H2 (allowed 2e-2)")


def test_criterion_04_exponent_arithmetic():
    worst = 0.0
    strict_ok = True
    for label, want in WORKED_VALUES.items():
        h = check_hypotheses(**WORKED[label])
        got = (h.s, h.s_tilde, h.rho_tilde, h.s0, h.p0)
        worst = max(worst, max(abs(a - b) for a, b in zip(got, want)))
        from gnslab import hypothesis_margins, window_margins

        for name, margin in hypothesis_margins(h).items():
            if "<" in name and margin <= 0.0:
                strict_ok = False
        w = window_margins(h)
        if w["lower"] <= 0.0 or w["upper"] <= 0.0 or abs(w["equality_defect"]) > 1e-12:
            strict_ok = False
    ok = worst < 1e-12 and strict_ok
    _verdict(4, ok, f"worked exponents off by {worst:.1e} (allowed 1e-12), strict margins hold")


def test_criterion_05_time_norm_identities():
    rng = np.random.default_rng(11)
    # power identity over a thousand random step trajectories
    worst_rel = 0.0
    idx = LorentzIndex(2.0, 1.5)
    for _ in range(1000):
        size = int(rng.integers(4, 24))
        t = np.sort(rng.uniform(0.01, 2.0, size=size))
        t[-1] = 2.0
        ts = TimeSamples(t, rng.uniform(0.0, 3.0, size=size))
        m = float(rng.uniform(1.0, 3.0))
        from gnslab import power_identity_check

        lhs, rhs = power_identity_check(ts, m, idx)
        if rhs > 0:
            worst_rel = max(worst_rel, abs(lhs - rhs) / rhs)
    # indicator value against direct quadrature of the defining integral
    rho, r, T, v = 3.0, 2.0, 1.0, 2.0
    ts = TimeSamples([T / 2, T], [v, v])
    got = lorentz_norm(ts, LorentzIndex(rho, r))
    tq = np.exp(np.linspace(math.log(T * 1e-12), math.log(T), 200001))
    integrand = (tq ** (1.0 / rho) * v) ** r / tq
    quad = float(np.trapezoid(integrand, tq) ** (1.0 / r))
    quad_rel = abs(got - quad) / quad
    # diagonal index against the plain integral norm
    diag_rel = 0.0
    for _ in range(50):
        size = int(rng.integers(3, 16))
        t = np.sort(rng.uniform(0.05, 1.0, size=size))
        ts2 = TimeSamples(t, rng.uniform(0.0, 2.0, size=size))
        for rho2 in (1.5, 2.0, 3.0):
            direct = float(np.sum(ts2.v**rho2 * ts2.lengths())) ** (1.0 / rho2)
            val = lorentz_norm(ts2, LorentzIndex(rho2, rho2))
            diag_rel = max(diag_rel, abs(val - direct) / (direct or 1.0))
    ok = worst_rel < 1e-9 and quad_rel < 1e-3 and diag_rel < 1e-12
    _verdict(
        5,
        ok,
        f"power identity {worst_rel:.1e} (1e-9), quadrature {quad_rel:.1e} (1e-3), "
        f"diagonal {diag_rel:.1e} (1e-12)",
    )


def test_criterion_06_estimator_stability():
    grid = Grid(2, 64, TWO_PI)
    sets = {k: check_hypotheses(**v) for k, v in DESK.items()}
    spec = SampleSpec(grid=grid, time_nodes=9)
    worst_factor = 1.0
    finite = True
    for ineq_id in ESTIMATE_IDS:
        if ineq_id == "lemma-ab":
            continue
        h = sets[DESIGNATED.get(ineq_id, "H1")]
        r1 = estimate_constant(ineq_id, h, 100, spec, seed=1)
        r2 = estimate_constant(ineq_id, h, 100, spec, seed=2)
        if not (math.isfinite(r1.max_ratio) and math.isfinite(r2.max_ratio)):
            finite = False
            break
        factor = max(r1.max_ratio / r2.max_ratio, r2.max_ratio / r1.max_ratio)
        worst_factor = max(worst_factor, factor)
    ok = finite and worst_factor < 2.0
    _verdict(6, ok, f"11 estimates, two 100-sample runs, worst seed-to-seed factor {worst_factor:.3f} (allowed 2)")


def test_criterion_07_cellular_flow_regression():
    grid = Grid(2, 64, 2.0 * TWO_PI)
    h = check_hypotheses(**DESK["H0"])
    constants = SolverConstants(1.0, 1.0, 1.0)
    a = _taylor_green(grid)
    x = grid.axis_coordinates()
    u1 = np.sin(x)[:, None] * np.cos(x)[None, :]
    u2 = -np.cos(x)[:, None] * np.sin(x)[None, :]
    base = np.stack([np.broadcast_to(u1, grid.shape), np.broadcast_to(u2, grid.shape)])

    cfg = SolverConfig(h, grid, 1.0, 128, constants=constants)
    traj, diag = picard_solve(a, None, cfg)
    decay_err = 0.0
    for j, t in enumerate(cfg.times()):
        got = traj.field_at(j).to_physical()
        decay_err = max(decay_err, float(np.max(np.abs(got - math.exp(-2.0 * t) * base))))
    power = PowerLaw(1.0)
    pressure_err = 0.0

    def check_pressure(j, gp):
        nonlocal pressure_err
        if j % 16 == 0:
            u_j = traj.field_at(j)
            conv = convective_term(u_j, u_j, power)
            pressure_err = max(pressure_err, float(np.max(np.abs(gp.coeffs + conv.coeffs))))

    pressure_recover(traj, None, cfg, check_pressure)

    residuals = []
    for nodes in (64, 128, 256):
        cfg_j = SolverConfig(h, grid, 1.0, nodes, constants=constants)
        _, diag_j = picard_solve(a, None, cfg_j)
        residuals.append(diag_j.residual)
    r1 = residuals[0] / residuals[1]
    r2 = residuals[1] / residuals[2]
    first_order = 1.6 < r1 < 2.4 and 1.6 < r2 < 2.4

    ok = (diag.iterations <= 2 and decay_err < 1e-8 and pressure_err < 1e-8 and first_order)
    _verdict(
        7,
        ok,
        f"{diag.iterations} iteration(s), decay err {decay_err:.1e}, pressure err "
        f"{pressure_err:.1e}, residual halving {r1:.2f}/{r2:.2f}",
    )


def test_criterion_08_small_data_contraction():
    grid = Grid(2, 64, TWO_PI)
    h = check_hypotheses(**DESK["H2"])
    base_cfg = SolverConfig(h, grid, 5e-6, 256, tolerance=1e-30, max_iterations=12,
                            const_samples=12, const_nodes=17, const_seed=2024)
    constants = estimate_solver_constants(base_cfg)
    cfg = SolverConfig(h, grid, 5e-6, 256, tolerance=1e-30, max_iterations=12,
                       constants=constants, gate_abort=True)

    unit = _shear(grid, 3)
    unit_norm = besov_norm(unit, BesovIndex(h.s0, h.p0, h.r))
    eta = 1.0 / (16.0 * constants.k2)
    amp = eta / (2.0 * constants.k0 * unit_norm)
    a = _shear(grid, 3, amplitude=amp)
    diag0 = smallness_gate(a, None, cfg, constants)
    for _ in range(8):
        if diag0.K0 <= eta / 2.0 + 1e-18:
            break
        amp = math.nextafter(amp, 0.0)
        a = _shear(grid, 3, amplitude=amp)
        diag0 = smallness_gate(a, None, cfg, constants)

    traj, diag = picard_solve(a, None, cfg)
    ratios = diag.ratios()
    contraction_ok = diag.converged and all(r <= 0.5 for r in ratios)

    residual = diag.residual

    norm_total = solution_norm(traj, h)
    apriori_ok = norm_total <= 1.1 * 2.0 * diag.K0

    # default start is the full linear solution; pit it against a zero start
    from gnslab import Trajectory

    zero = Trajectory(grid, cfg.times(),
                      np.zeros((cfg.time_nodes, grid.n) + grid.half_shape, dtype=np.complex128))
    traj_b, _ = picard_solve(a, None, cfg, start=zero)
    span = float(np.max(np.abs(traj.u)))
    agree = float(np.max(np.abs(traj.u - traj_b.u)))
    two_start_ok = agree <= 10.0 * np.finfo(float).eps * span

    ok = (contraction_ok and residual < 1e-4 and apriori_ok and two_start_ok)
    _verdict(
        8,
        ok,
        f"K0 {diag.K0:.2e} <= eta/2, d-ratios max {max(ratios) if ratios else 0.0:.1e}, "
        f"residual {residual:.1e}, norm/(2K0) {norm_total / (2.0 * diag.K0):.3f}, "
        f"two-start gap {agree:.1e} vs {10.0 * np.finfo(float).eps * span:.1e}",
    )


def test_criterion_09_gate_arithmetic():
    grid = Grid(2, 64, TWO_PI)
    h = check_hypotheses(**DESK["H2"])
    constants = SolverConstants(1.0, 1.0, 1.0)
    cfg = SolverConfig(h, grid, 1e-5, 8, constants=constants)
    unit = _shear(grid, 3)
    unit_norm = besov_norm(unit, BesovIndex(h.s0, h.p0, h.r))

    def gate_at(target):
        return smallness_gate(_shear(grid, 3, amplitude=target / unit_norm), None, cfg, constants)

    worst = 0.0
    # open case
    diag = gate_at(0.01)
    root = min(np.roots([constants.k2, -1.0, diag.K0]).real)
    worst = max(worst, abs(diag.lambda1 - root))
    open_ok = diag.gate and abs(diag.lambda1 - (1.0 - math.sqrt(0.96)) / 2.0) < 1e-9

    # boundary case, walked onto the admissible side
    amp = (1.0 / 16.0) / unit_norm
    bound = gate_at(1.0 / 16.0)
    for _ in range(8):
        if bound.K0 <= bound.eta:
            break
        amp = math.nextafter(amp, 0.0)
        bound = smallness_gate(_shear(grid, 3, amplitude=amp), None, cfg, constants)
    root = min(np.roots([constants.k2, -1.0, bound.K0]).real)
    worst = max(worst, abs(bound.lambda1 - root))
    boundary_ok = bound.gate and abs(bound.lambda1 - (1.0 - math.sqrt(0.75)) / 2.0) < 1e-9

    # discriminant failure
    big = gate_at(0.30)
    failure_ok = (not big.gate) and big.lambda1 is None and "discriminant negative" in big.gate_reason

    ok = open_ok and boundary_ok and failure_ok and worst < 1e-9
    _verdict(9, ok, f"pass/boundary/failure verdicts correct, quadratic-root gap {worst:.1e} (allowed 1e-9)")


def test_criterion_10_deterministic_reports(tmp_path, capsys):
    config = {
        "hypothesis": {"m": 1.0, "n": 2, "p": 2.0, "rho": 3.0, "alpha": 1.0, "r": 2.0},
        "grid": {"n": 2, "N": 64, "L": 2.0 * TWO_PI},
        "horizon": 1e-4,
        "time_nodes": 8,
        "constants": {"k0": 1.0, "k1": 1.0, "k2": 1.0},
        "seed": 7,
        "data": {"type": "taylor-green", "amplitude": 1.0},
        "residual_threshold": 1e-3,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert cli_main(["solve", str(cfg_path), "--output", str(tmp_path / "a")]) == 0
    assert cli_main(["solve", str(cfg_path), "--output", str(tmp_path / "b")]) == 0
    capsys.readouterr()  # drop the two solve reports
    cli_main(["verify", "--ineq", "SEMI", "--samples", "4", "--seed", "3", "--nodes", "9"])
    first = capsys.readouterr().out
    cli_main(["verify", "--ineq", "SEMI", "--samples", "4", "--seed", "3", "--nodes", "9"])
    second = capsys.readouterr().out

    diag_same = (tmp_path / "a/diagnostics.json").read_bytes() == (tmp_path / "b/diagnostics.json").read_bytes()
    norms_same = (tmp_path / "a/norms.csv").read_bytes() == (tmp_path / "b/norms.csv").read_bytes()
    stdout_same = len(first) > 0 and first == second
    ok = diag_same and norms_same and stdout_same
    _verdict(10, ok, "identical seed and config reproduce diagnostics, norm table, and stdout byte for byte")
