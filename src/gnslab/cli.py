"""Command-line interface: subcommand dispatch and report emission.

Subcommands
-----------
hypotheses   validate an exponent set and print derived indices
verify       run inequality checks and print one report line per id
solve        run the mild solver from a JSON configuration
scaling      check critical-norm invariance under box dilation
norms        evaluate Besov / Lorentz norms of stored data

Exit codes: 0 success; 1 usage, parse, or I/O failure; 2 validation
failure or unresolvable dilation; 3 gate abort or out-of-tolerance
ratios; 4 non-convergence.  All reports are canonical JSON, so a fixed
seed and configuration reproduce them byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from importlib import resources

import numpy as np

from .besov_analysis import BesovIndex, besov_norm, build_cutoff
from .errors import (
    BlowupError,
    DivergenceError,
    GateError,
    GnsError,
    HypothesisError,
    ParameterError,
    RangeError,
    SideConditionError,
)
from .estimates_lab import (
    ESTIMATE_IDS,
    SampleSpec,
    check_hypotheses,
    estimate_constant,
    hypothesis_report,
    random_field,
    scaling_invariance_check,
)
from .lorentz_time import LorentzIndex, log_nodes, lorentz_norm, read_trajectory_csv
from .mild_solver import (
    SolverConfig,
    SolverConstants,
    picard_solve,
    pressure_recover,
    residual_check,
    save_trajectory,
    write_norm_csv,
)
from .nonlinearity import PowerLaw
from .reports import jdump, write_json, write_json_lines
from .spectral_core import Grid, SpectralField, read_field, semigroup_apply

# family-wise desk defaults used to complete partial hypothesis flags
_DESK = {
    2: {
        "H0": dict(m=1.0, p=2.0, rho=3.0, alpha=1.0),
        "H1": dict(m=1.5, p=2.0, rho=6.5, alpha=1.0),
        "H2": dict(m=2.0, p=3.0, rho=4.5, alpha=1.0),
    },
    3: {
        "H0": dict(m=1.0, p=2.0, rho=4.0, alpha=1.0),
        "H1": dict(m=1.5, p=3.0, rho=7.0, alpha=1.0),
        "H2": dict(m=2.0, p=3.0, rho=6.0, alpha=1.0),
    },
}

# inequality ids whose side conditions pin the exponent family; used to
# substitute a compliant set when running the full suite
_FALLBACK_FAMILY = {
    "POW_SMALL": "H0",
    "BILIN_M1": "H0",
    "DIFF": "H2",
    "BILIN": "H2",
    "BILIN_DIFF": "H2",
}


# every top-level key cmd_solve reads, plus a free-text description
_SOLVE_KEYS = frozenset({
    "description", "hypothesis", "grid", "horizon", "time_nodes", "tolerance",
    "max_iterations", "dealias_factor", "constants", "const_samples", "const_nodes",
    "const_seed", "floor_factor", "project_data", "gate_abort", "seed", "data",
    "forcing", "output_dir", "save_fields", "residual_threshold",
})


def _family_label(m: float) -> str:
    if m == 1.0:
        return "H0"
    return "H1" if m < 2.0 else "H2"


def _desk_hypothesis(label: str, n: int, r: float = 2.0):
    base = _DESK[n][label]
    return check_hypotheses(
        m=base["m"], n=n, p=base["p"], rho=base["rho"], alpha=base["alpha"], r=r
    )


def _fill_hypothesis(ns):
    """Complete partial hypothesis flags from the desk defaults."""
    n = 2 if ns.n is None else ns.n
    m = 2.0 if ns.m is None else ns.m
    base = _DESK[n][_family_label(m)]
    return check_hypotheses(
        m=m,
        n=n,
        p=base["p"] if ns.p is None else ns.p,
        rho=base["rho"] if ns.rho is None else ns.rho,
        alpha=base["alpha"] if ns.alpha is None else ns.alpha,
        r=2.0 if ns.r is None else ns.r,
        p0=ns.p0,
    )


def _preset_path(name: str):
    if os.path.exists(name):
        return name
    stem = name[:-5] if name.endswith(".json") else name
    return resources.files("gnslab").joinpath("presets", f"{stem}.json")


def _load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _data_field(spec: dict, grid: Grid, rng) -> SpectralField:
    """Build initial data or forcing from its configuration block."""
    kind = spec.get("type", "zero")
    amplitude = float(spec.get("amplitude", 1.0))
    if kind == "zero":
        return SpectralField.zeros(grid, grid.n)
    if kind == "taylor-green":
        if grid.n != 2:
            raise ParameterError("taylor-green data is two-dimensional")
        x = grid.axis_coordinates()[:, None]
        y = grid.axis_coordinates()[None, :]
        u1 = amplitude * np.sin(x) * np.cos(y)
        u2 = -amplitude * np.cos(x) * np.sin(y)
        return SpectralField.from_physical(grid, np.stack([u1, u2]))
    if kind == "shear":
        # component i rides on the next coordinate, so the divergence
        # vanishes identically and the spectrum sits on one wavenumber
        q = float(spec.get("wavenumber", 3))
        axes = [grid.axis_coordinates() for _ in range(grid.n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        comps = [amplitude * np.cos(q * mesh[(i + 1) % grid.n]) for i in range(grid.n)]
        return SpectralField.from_physical(grid, np.stack(comps))
    if kind == "random":
        cutoff = build_cutoff(grid)
        f = random_field(
            grid,
            cutoff,
            rng,
            sigma=float(spec.get("sigma", 1.0)),
            ncomp=grid.n,
            solenoidal=True,
        )
        return SpectralField(grid, amplitude * f.coeffs)
    if kind == "file":
        f = read_field(spec["path"])
        if f.grid != grid:
            raise ParameterError(f"field in {spec['path']} lives on a different grid")
        return f
    raise ParameterError(f"unknown data type {kind!r}")


def _forcing_field(spec, grid: Grid, rng):
    if spec is None:
        return None
    f = _data_field(spec, grid, rng)
    if not np.any(f.coeffs):
        return None
    return f


# -- subcommands -----------------------------------------------------------


def cmd_hypotheses(ns) -> int:
    if ns.preset is not None:
        try:
            flags = _load_json(_preset_path(ns.preset))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for key in ("m", "n", "p", "rho", "alpha", "r", "p0"):
            if getattr(ns, key) is None and key in flags:
                setattr(ns, key, flags[key])
    missing = [k for k in ("m", "n", "p", "rho", "alpha") if getattr(ns, k) is None]
    if missing:
        print(f"error: missing required flags: {', '.join('--' + k for k in missing)}", file=sys.stderr)
        return 1
    try:
        h = check_hypotheses(
            m=ns.m, n=ns.n, p=ns.p, rho=ns.rho, alpha=ns.alpha,
            r=2.0 if ns.r is None else ns.r, p0=ns.p0,
        )
    except HypothesisError as exc:
        report = {
            "valid": False,
            "violations": [{"name": name, "message": msg} for name, msg in exc.violations],
        }
        print(jdump(report))
        return 2
    except ParameterError as exc:
        print(jdump({"valid": False, "violations": [{"name": "preconditions", "message": str(exc)}]}))
        return 2
    report = {"valid": True}
    report.update(hypothesis_report(h))
    print(jdump(report))
    return 0


def cmd_verify(ns) -> int:
    lookup = {iid.lower(): iid for iid in ESTIMATE_IDS}
    if ns.ineq.lower() != "all" and ns.ineq.lower() not in lookup:
        print(f"error: unknown inequality id {ns.ineq!r}; known: all, {', '.join(ESTIMATE_IDS)}", file=sys.stderr)
        return 1
    try:
        h = _fill_hypothesis(ns)
    except (HypothesisError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    n = h.n
    length = ns.grid_length if ns.grid_length is not None else (2.0 if n == 2 else 4.0) * math.pi
    try:
        grid = Grid(n, ns.grid_size, length)
        spec = SampleSpec(
            grid=grid,
            sigma=ns.sigma,
            time_nodes=ns.nodes,
            horizon=ns.horizon,
        )
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    run_all = ns.ineq.lower() == "all"
    ids = ESTIMATE_IDS if run_all else (lookup[ns.ineq.lower()],)
    lines = []
    ok = True
    for iid in ids:
        used, substituted = h, False
        try:
            report = estimate_constant(iid, used, ns.samples, spec, seed=ns.seed)
        except SideConditionError as exc:
            if not run_all:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            used = _desk_hypothesis(_FALLBACK_FAMILY.get(iid, "H2"), n, r=h.r)
            substituted = True
            report = estimate_constant(iid, used, ns.samples, spec, seed=ns.seed)
        line = report.line()
        line["substituted"] = substituted
        lines.append(line)
        print(jdump(line))
        if report.violations > 0 or not math.isfinite(report.max_ratio):
            ok = False
    if ns.out is not None:
        os.makedirs(ns.out, exist_ok=True)
        for line in lines:
            write_json_lines(os.path.join(ns.out, f"verify_{line['ineq_id']}.jsonl"), [line])
    return 0 if ok else 2


def cmd_solve(ns) -> int:
    try:
        path = _preset_path(ns.preset) if ns.preset is not None else ns.config
        if path is None:
            print("error: provide a config path or --preset", file=sys.stderr)
            return 1
        config = _load_json(path)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not isinstance(config, dict):
        print("error: invalid configuration: the top level must be a JSON object", file=sys.stderr)
        return 1
    if ns.gate is not None:
        config["gate_abort"] = ns.gate == "abort"
    if ns.save_fields:
        config["save_fields"] = True
    out_dir = ns.output if ns.output is not None else config.get("output_dir", "gns-out")
    try:
        unknown = sorted(set(config) - _SOLVE_KEYS)
        if unknown:
            raise ParameterError(f"unknown key(s) {', '.join(map(repr, unknown))}")
        h = check_hypotheses(**config["hypothesis"])
        g = config["grid"]
        grid = Grid(g["n"], g["N"], g.get("L", 2.0 * math.pi))
        raw = config.get("constants")
        constants = None if raw is None else SolverConstants(raw["k0"], raw["k1"], raw["k2"])
        cfg = SolverConfig(
            hypothesis=h,
            grid=grid,
            horizon=config["horizon"],
            time_nodes=config["time_nodes"],
            tolerance=config.get("tolerance", 1e-10),
            max_iterations=config.get("max_iterations", 12),
            power=PowerLaw(h.m, config.get("dealias_factor", 2)),
            constants=constants,
            const_samples=config.get("const_samples", 12),
            const_nodes=config.get("const_nodes", 17),
            const_seed=config.get("const_seed", 2024),
            floor_factor=config.get("floor_factor", 1e-6),
            project_data=config.get("project_data", False),
            gate_abort=config.get("gate_abort", False),
        )
        seed = int(config.get("seed", 0))
        rng = np.random.default_rng(seed)
        a = _data_field(config.get("data", {"type": "zero"}), grid, rng)
        f = _forcing_field(config.get("forcing"), grid, rng)
    except (KeyError, GnsError, TypeError, ValueError) as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 1
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = {"seed": seed, "config": config}
    try:
        traj, diag = picard_solve(a, f, cfg)
    except GateError as exc:
        report["gate"] = exc.diagnostics.document()
        report["outcome"] = "gate-abort"
        write_json(os.path.join(out_dir, "diagnostics.json"), report)
        print(jdump(report))
        return 3
    except (DivergenceError, BlowupError) as exc:
        report["outcome"] = "no-convergence"
        report["detail"] = str(exc)
        if isinstance(exc, DivergenceError):
            report["d_history"] = exc.d_history
        write_json(os.path.join(out_dir, "diagnostics.json"), report)
        print(jdump(report))
        return 4
    traj = pressure_recover(traj, f, cfg)
    residual = None
    if cfg.time_nodes >= 3:
        residual = residual_check(traj, a, f, cfg)
    report["gate"] = diag.document()
    report["outcome"] = "converged"
    report["residual"] = residual
    report["divergence_defect"] = traj.divergence_defect()
    write_json(os.path.join(out_dir, "diagnostics.json"), report)
    write_norm_csv(traj, os.path.join(out_dir, "norms.csv"))
    if config.get("save_fields", False):
        save_trajectory(traj, os.path.join(out_dir, "fields"))
    print(jdump(report))
    threshold = config.get("residual_threshold")
    if threshold is not None and residual is not None and residual > threshold:
        return 4
    return 0


def cmd_scaling(ns) -> int:
    try:
        if ns.preset is not None:
            preset = _load_json(_preset_path(ns.preset))
            hyp = preset["hypothesis"]
            h = check_hypotheses(**hyp)
            g = preset["grid"]
            grid = Grid(g["n"], g["N"], g.get("L", 2.0 * math.pi))
            data_spec = dict(preset["data"])
            if ns.wavenumber is not None:
                data_spec["wavenumber"] = ns.wavenumber
            a = _data_field(data_spec, grid, np.random.default_rng(ns.seed))
        elif ns.field is not None:
            a = read_field(ns.field)
            h = _fill_hypothesis(ns)
        else:
            print("error: provide --field or --preset", file=sys.stderr)
            return 1
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (HypothesisError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    times = log_nodes(ns.horizon, ns.nodes)
    fields = [semigroup_apply(a, t, h.alpha) for t in times]
    try:
        ratios = scaling_invariance_check((times, fields), a, h, ns.lam)
    except RangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    within = all(abs(v - 1.0) <= ns.tolerance for v in ratios.values())
    report = {
        "lambda": ns.lam,
        "initial_ratio": ratios["initial_ratio"],
        "temporal_ratio": ratios["temporal_ratio"],
        "tolerance": ns.tolerance,
        "within_tolerance": within,
    }
    print(jdump(report))
    return 0 if within else 3


def cmd_norms(ns) -> int:
    if (ns.field is None) == (ns.trajectory is None):
        print("error: provide exactly one of --field or --trajectory", file=sys.stderr)
        return 1
    try:
        if ns.field is not None:
            f = read_field(ns.field)
            index = BesovIndex(ns.s, ns.p, ns.r)
            value = besov_norm(f, index, build_cutoff(f.grid))
            report = {
                "file": os.path.basename(ns.field),
                "kind": "besov",
                "s": ns.s,
                "p": ns.p,
                "r": ns.r,
                "grid": {"n": f.grid.n, "N": f.grid.N, "L": f.grid.L},
                "norm": value,
            }
        else:
            ts = read_trajectory_csv(ns.trajectory)
            value = lorentz_norm(ts, LorentzIndex(ns.rho, ns.r))
            report = {
                "file": os.path.basename(ns.trajectory),
                "kind": "lorentz",
                "rho": ns.rho,
                "r": ns.r,
                "nodes": int(ts.t.size),
                "norm": value,
            }
    except (OSError, GnsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(jdump(report))
    return 0


# -- parser ----------------------------------------------------------------


def _add_hypothesis_flags(parser, required: bool = False) -> None:
    parser.add_argument("--m", type=float, required=required)
    parser.add_argument("--n", type=int, choices=(2, 3), required=required)
    parser.add_argument("--p", type=float, required=required)
    parser.add_argument("--alpha", type=float, required=required)
    parser.add_argument("--rho", type=float, required=required)
    parser.add_argument("--r", type=float, default=None)
    parser.add_argument("--p0", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gns",
        description="Pseudo-spectral laboratory for a generalized dissipative flow model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_hyp = sub.add_parser("hypotheses", help="validate an exponent set")
    _add_hypothesis_flags(p_hyp)
    p_hyp.add_argument("--preset", help="preset name or JSON path supplying the flags")
    p_hyp.set_defaults(func=cmd_hypotheses)

    p_ver = sub.add_parser("verify", help="run inequality checks")
    p_ver.add_argument("--ineq", required=True, help="inequality id or 'all'")
    p_ver.add_argument("--samples", type=int, default=100)
    p_ver.add_argument("--seed", type=int, default=0)
    _add_hypothesis_flags(p_ver)
    p_ver.add_argument("--grid-size", type=int, default=64)
    p_ver.add_argument("--grid-length", type=float, default=None)
    p_ver.add_argument("--sigma", type=float, default=1.0)
    p_ver.add_argument("--nodes", type=int, default=33)
    p_ver.add_argument("--horizon", type=float, default=1.0)
    p_ver.add_argument("--out", help="directory for per-inequality report files")
    p_ver.set_defaults(func=cmd_verify)

    p_sol = sub.add_parser("solve", help="run the mild solver")
    p_sol.add_argument("config", nargs="?", help="JSON configuration path")
    p_sol.add_argument("--preset", help="shipped preset name")
    p_sol.add_argument("--output", help="output directory (default from config)")
    p_sol.add_argument("--gate", choices=("abort", "warn"), default=None)
    p_sol.add_argument("--save-fields", action="store_true")
    p_sol.set_defaults(func=cmd_solve)

    p_sca = sub.add_parser("scaling", help="check dilation invariance of critical norms")
    p_sca.add_argument("--field", help="stored field file")
    p_sca.add_argument("--preset", help="shipped data preset name")
    p_sca.add_argument("--lambda", dest="lam", type=float, required=True)
    p_sca.add_argument("--wavenumber", type=float, default=None)
    _add_hypothesis_flags(p_sca)
    p_sca.add_argument("--nodes", type=int, default=9)
    p_sca.add_argument("--horizon", type=float, default=1.0)
    p_sca.add_argument("--tolerance", type=float, default=0.02)
    p_sca.add_argument("--seed", type=int, default=0)
    p_sca.set_defaults(func=cmd_scaling)

    p_nrm = sub.add_parser("norms", help="evaluate stored-field / trajectory norms")
    p_nrm.add_argument("--field", help="stored field file")
    p_nrm.add_argument("--trajectory", help="trajectory CSV")
    p_nrm.add_argument("--s", type=float, default=0.0)
    p_nrm.add_argument("--p", type=float, default=2.0)
    p_nrm.add_argument("--r", type=float, default=2.0)
    p_nrm.add_argument("--rho", type=float, default=2.0)
    p_nrm.set_defaults(func=cmd_norms)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return ns.func(ns)
    except GnsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
