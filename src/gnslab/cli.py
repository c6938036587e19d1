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
ratios; 4 non-convergence or blow-up.  All reports are canonical JSON,
so a fixed seed and configuration reproduce them byte for byte.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import inspect
import json
import math
import os
import re
import shutil
import sys
import tempfile
from collections import namedtuple
from importlib import resources

import numpy as np

from .besov_analysis import BesovIndex, besov_norm
from .errors import (
    BlowupError,
    ConfigurationError,
    DivergenceError,
    GateError,
    GnsError,
    HypothesisError,
    ParameterError,
    RangeError,
    SideConditionError,
    check_kind,
)
from .estimates_lab import (
    ESTIMATE_IDS,
    TIMED_IDS,
    SampleSpec,
    check_hypotheses,
    estimate_constant,
    family_label,
    hypothesis_report,
    random_field,
    scaling_invariance_check,
)
from .lorentz_time import LorentzIndex, log_nodes, lorentz_norm, read_trajectory_csv
from .mild_solver import (
    SolverConfig,
    SolverConstants,
    picard_solve,
    save_trajectory,
    write_norm_csv,
)
from .reports import jdump, write_json
from .spectral_core import Grid, SpectralField, read_field, write_field

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


# the keys of a solve document that only the command line reads; the
# others are SolverConfig's fields
_CLI_KEYS = frozenset({
    "description", "seed", "data", "forcing", "output_dir", "save_fields",
    "residual_threshold",
})

# the keys each data (or forcing) type takes besides "type", with their kinds
_DATA_KEYS = {
    "zero": {},
    "taylor-green": {"amplitude": "real"},
    "shear": {"amplitude": "real", "wavenumber": "real"},
    "random": {"amplitude": "real", "sigma": "real"},
    "file": {"path": "text"},
}


def _fill_hypothesis(ns):
    """Complete partial hypothesis flags from the desk defaults."""
    n = 2 if ns.n is None else ns.n
    m = 2.0 if ns.m is None else ns.m
    given = {k: getattr(ns, k) for k in ("p", "rho", "alpha", "r", "p0") if getattr(ns, k) is not None}
    return check_hypotheses(**{**_DESK[n][family_label(m)], "m": m, "n": n, **given})


def _fail(message, code: int = 1) -> int:
    """Print message as an error line and return the exit code."""
    print(f"error: {message}", file=sys.stderr)
    return code


def _preset_path(name: str):
    if os.path.exists(name):
        return name
    stem = name[:-5] if name.endswith(".json") else name
    return resources.files("gnslab").joinpath("presets", f"{stem}.json")


def _load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _object(value, name: str, known=None, required=()) -> dict:
    """value, once it is a JSON object holding every required key and,
    unless known is None, no key outside known."""
    if not isinstance(value, dict):
        raise ConfigurationError(f"{name} must be a JSON object, got {value!r}")
    unknown = [] if known is None else sorted(set(value) - set(known))
    if unknown:
        raise ConfigurationError(f"unknown key(s) in {name}: {', '.join(map(repr, unknown))}")
    missing = [key for key in required if key not in value]
    if missing:
        raise ConfigurationError(f"{name} is missing {', '.join(map(repr, missing))}")
    return value


def _parameters(func):
    """func's parameter names, and those of them without a default."""
    params = inspect.signature(func).parameters.values()
    return [p.name for p in params], [p.name for p in params if p.default is p.empty]


def _from_block(func, block, name: str):
    """func(**block) for a block whose keys are func's parameters."""
    return func(**_object(block, name, *_parameters(func)))


def _data_field(spec, grid: Grid, rng, name: str = "data") -> SpectralField:
    """Build initial data or forcing from its configuration block."""
    kind = _object(spec, name).get("type", "zero")
    if not isinstance(kind, str) or kind not in _DATA_KEYS:
        raise ConfigurationError(f"{name}.type: unknown data type {kind!r}")
    keys = _DATA_KEYS[kind]
    _object(spec, name, ("type", *keys), ("path",) if kind == "file" else ())
    for key, key_kind in keys.items():
        if key in spec:
            check_kind(f"{name}.{key}", spec[key], key_kind)
    amplitude = float(spec.get("amplitude", 1.0))
    if kind == "zero":
        return SpectralField.zeros(grid, grid.n)
    if kind == "taylor-green":
        if grid.n != 2:
            raise ParameterError(f"{name}.type: taylor-green data is two-dimensional")
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
        sigma = float(spec.get("sigma", 1.0))
        f = random_field(grid, rng, sigma=sigma, ncomp=grid.n, solenoidal=True)
        return SpectralField(grid, amplitude * f.coeffs)
    # kind == "file"
    try:
        f = read_field(spec["path"])
    except OSError as exc:
        raise ConfigurationError(f"{name}.path: {exc}") from exc
    if f.grid != grid:
        raise ParameterError(f"{name}.path: field in {spec['path']} lives on a different grid")
    return f


# everything gns solve reads from its configuration document
SolveSetup = namedtuple("SolveSetup", "cfg seed data forcing output_dir save_fields residual_threshold")


def load_solve_config(config) -> SolveSetup:
    """Check a solve document and build what it describes, writing nothing.

    Raises a GnsError that names the first bad key.  A key left out takes
    the default of its owner: SolverConfig, Grid, or the data builder
    here.
    """
    fields = {f.name: f for f in dataclasses.fields(SolverConfig)}
    required = [name for name, f in fields.items() if f.default is dataclasses.MISSING]
    _object(config, "the configuration", fields.keys() | _CLI_KEYS, required)
    for key, kind in (("description", "text"), ("seed", "integer"),
                      ("output_dir", "text"), ("save_fields", "flag")):
        if key in config:
            check_kind(key, config[key], kind)
    seed = config.get("seed", 0)
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    threshold = config.get("residual_threshold")
    if threshold is not None:
        check_kind("residual_threshold", threshold, "real")
    h = _from_block(check_hypotheses, config["hypothesis"], "hypothesis")
    blocks = {"hypothesis": h, "grid": _from_block(Grid, config["grid"], "grid"), "constants": None}
    if config.get("constants") is not None:
        k = ("k0", "k1", "k2")
        blocks["constants"] = SolverConstants(**_object(config["constants"], "constants", k, k))
    settings = {key: config[key] for key in fields.keys() - blocks.keys() if key in config}
    cfg = SolverConfig(**blocks, **settings)
    rng = np.random.default_rng(seed)
    data = _data_field(config.get("data", {}), cfg.grid, rng)
    forcing = None
    if config.get("forcing") is not None:
        forcing = _data_field(config["forcing"], cfg.grid, rng, "forcing")
        if not np.any(forcing.coeffs):
            forcing = None
    return SolveSetup(cfg, seed, data, forcing, config.get("output_dir", "gns-out"),
                      config.get("save_fields", False), threshold)


# -- subcommands -----------------------------------------------------------


def cmd_hypotheses(ns) -> int:
    names, required = _parameters(check_hypotheses)
    given = {k: getattr(ns, k) for k in names if getattr(ns, k) is not None}
    if ns.preset is not None:
        try:
            flags = _object(_load_json(_preset_path(ns.preset)), "the preset")
        except (OSError, json.JSONDecodeError) as exc:
            return _fail(exc)
        given = {**{k: flags[k] for k in names if k in flags}, **given}
    missing = [k for k in required if k not in given]
    if missing:
        return _fail(f"missing required flags: {', '.join('--' + k for k in missing)}")
    try:
        h = check_hypotheses(**given)
    except (HypothesisError, ParameterError) as exc:
        pairs = exc.violations if isinstance(exc, HypothesisError) else [("preconditions", str(exc))]
        print(jdump({"valid": False, "violations": [{"name": n, "message": m} for n, m in pairs]}))
        return 2
    report = {"valid": True}
    report.update(hypothesis_report(h))
    print(jdump(report))
    return 0


def cmd_verify(ns) -> int:
    lookup = {iid.lower(): iid for iid in ESTIMATE_IDS}
    if ns.ineq.lower() != "all" and ns.ineq.lower() not in lookup:
        return _fail(f"unknown inequality id {ns.ineq!r}; known: all, {', '.join(ESTIMATE_IDS)}")
    try:
        h = _fill_hypothesis(ns)
    except (HypothesisError, ParameterError) as exc:
        return _fail(exc, 2)
    n = h.n
    length = ns.grid_length
    if length is None:
        # 8 pi / 3 puts the fundamental wavenumber 3/4 on the lowest annulus, so
        # N = 32 resolves the 3 blocks a norm needs; from N = 64 up the sides
        # stay 2 pi and 4 pi, so those reports keep their bytes
        length = 8.0 * math.pi / 3.0 if ns.grid_size < 64 else (2.0 if n == 2 else 4.0) * math.pi
    try:
        grid = Grid(n, ns.grid_size, length)
        spec = SampleSpec(
            grid=grid,
            sigma=ns.sigma,
            time_nodes=ns.nodes,
            horizon=ns.horizon,
        )
    except ParameterError as exc:
        return _fail(exc)
    run_all = ns.ineq.lower() == "all"
    ids = ESTIMATE_IDS if run_all else (lookup[ns.ineq.lower()],)
    if any(iid in TIMED_IDS for iid in ids):
        # built before the first id runs, so a node count no memory holds
        # fails before any report line is printed
        spec.times()
    if ns.out is not None:
        # made before sampling, so a bad path fails before the samples run
        os.makedirs(ns.out, exist_ok=True)
    # the full suite runs an id whose side conditions refuse h on the first
    # desk set they admit, H2 then H0; they are checked before any draw
    desks = [check_hypotheses(n=n, r=h.r, **_DESK[n][k]) for k in ("H2", "H0")] if run_all else []
    lines = []
    ok = True
    for iid in ids:
        for used in (h, *desks):
            try:
                report = estimate_constant(iid, used, ns.samples, spec, seed=ns.seed)
                break
            except SideConditionError as exc:
                refused = exc
        else:
            return _fail(refused, 1 if run_all else 2)
        line = report.line()
        line["substituted"] = used is not h
        lines.append(line)
        print(jdump(line))
        if report.violations > 0:  # estimate_constant raises on a non-finite max_ratio
            ok = False
    if ns.out is not None:
        for line in lines:
            write_json(os.path.join(ns.out, f"verify_{line['ineq_id']}.jsonl"), line)
    return 0 if ok else 2


class _GradientStage:
    """The --save-fields callback: each pressure gradient a sweep hands
    over is written to gradpi_<j>.gnsf in a staging directory under the
    output directory, made on the first call, so a later sweep overwrites
    an earlier one's files and a gate abort makes none.  publish moves
    the files into fields/ once the solve has converged and returns their
    names; discard removes what is left, so a failed solve leaves no
    gradient file."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.path = None

    def __call__(self, j, grad_pi):
        if self.path is None:
            os.makedirs(self.out_dir, exist_ok=True)
            self.path = tempfile.mkdtemp(dir=self.out_dir, prefix=".gradpi-")
        write_field(grad_pi, os.path.join(self.path, f"gradpi_{j:04d}.gnsf"))

    def publish(self, fields_dir) -> list:
        names = sorted(os.listdir(self.path))
        for name in names:
            os.replace(os.path.join(self.path, name), os.path.join(fields_dir, name))
        return names

    def discard(self):
        if self.path is not None:
            shutil.rmtree(self.path, ignore_errors=True)


# the node files of a --save-fields solve
_NODE_FILE = re.compile(r"(u|gradpi)_\d{4,}\.gnsf")


def cmd_solve(ns) -> int:
    try:
        path = _preset_path(ns.preset) if ns.preset is not None else ns.config
        if path is None:
            return _fail("provide a config path or --preset")
        config = _load_json(path)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(exc)
    # the overrides land in the document, so the report echoes them
    if isinstance(config, dict) and ns.gate is not None:
        config["gate_abort"] = ns.gate == "abort"
    if isinstance(config, dict) and ns.save_fields:
        config["save_fields"] = True
    try:
        cfg, seed, a, f, output_dir, save_fields, threshold = load_solve_config(config)
    except GnsError as exc:
        return _fail(f"invalid configuration: {exc}")
    out_dir = ns.output if ns.output is not None else output_dir
    report = {"seed": seed, "config": config}
    stage = _GradientStage(out_dir) if save_fields else None
    try:
        try:
            traj, diag = picard_solve(a, f, cfg, on_gradient=stage)
        except GateError as exc:
            report.update(gate=exc.diagnostics.document(), outcome="gate-abort")
            code = 3
        except (DivergenceError, BlowupError) as exc:
            report.update(outcome="no-convergence", detail=str(exc))
            if isinstance(exc, DivergenceError):
                report["d_history"] = exc.d_history
            code = 4
        else:
            residual = diag.residual
            report.update(gate=diag.document(), outcome="converged", residual=residual,
                          divergence_defect=traj.divergence_defect())
            code = 4 if threshold is not None and residual is not None and residual > threshold else 0
        # made only now that there is a report, so rejected input leaves no directory
        os.makedirs(out_dir, exist_ok=True)
        if report["outcome"] == "converged":
            fields_dir = os.path.join(out_dir, "fields")
            if save_fields:  # made first, so a path that cannot hold it fails before any report file
                os.makedirs(fields_dir, exist_ok=True)
            write_norm_csv(traj, os.path.join(out_dir, "norms.csv"))
            if save_fields:
                kept = {os.path.basename(path) for path in save_trajectory(traj, fields_dir)}
                kept.update(stage.publish(fields_dir))
                for name in set(os.listdir(fields_dir)) - kept:  # an earlier run's node files go
                    if _NODE_FILE.fullmatch(name):
                        os.remove(os.path.join(fields_dir, name))
        write_json(os.path.join(out_dir, "diagnostics.json"), report)
    finally:
        if stage is not None:
            stage.discard()
    print(jdump(report))
    return code


def cmd_scaling(ns) -> int:
    if ns.seed < 0:
        return _fail(f"seed must be >= 0, got {ns.seed}")
    if not (math.isfinite(ns.tolerance) and ns.tolerance >= 0.0):
        return _fail(f"tolerance must be finite and >= 0, got {ns.tolerance}")
    try:
        if ns.preset is not None:
            preset = _object(_load_json(_preset_path(ns.preset)), "the preset")
            h = _from_block(check_hypotheses, preset.get("hypothesis"), "hypothesis")
            grid = _from_block(Grid, preset.get("grid"), "grid")
            spec = preset.get("data")
            if ns.wavenumber is not None and isinstance(spec, dict):
                spec = dict(spec, wavenumber=ns.wavenumber)
            a = _data_field(spec, grid, np.random.default_rng(ns.seed))
        elif ns.field is not None:
            a = read_field(ns.field)
            h = _fill_hypothesis(ns)
        else:
            return _fail("provide --field or --preset")
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(exc)
    except (HypothesisError, ParameterError) as exc:
        return _fail(exc, 2)
    times = log_nodes(ns.horizon, ns.nodes)
    try:
        ratios = scaling_invariance_check(a, h, ns.lam, times)
    except RangeError as exc:
        return _fail(exc, 2)
    except ParameterError as exc:
        return _fail(exc)
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
        return _fail("provide exactly one of --field or --trajectory")
    if ns.field is not None:
        f = read_field(ns.field)
        index = BesovIndex(ns.s, ns.p, ns.r)
        value = besov_norm(f, index)
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
    print(jdump(report))
    return 0


# -- parser ----------------------------------------------------------------


def _add_hypothesis_flags(parser) -> None:
    parser.add_argument("--m", type=float)
    parser.add_argument("--n", type=int, choices=(2, 3))
    parser.add_argument("--p", type=float)
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--rho", type=float)
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


def _pin_heap() -> None:
    """Fix glibc's heap trim and mmap thresholds at 64 and 32 MiB, the
    ceilings its dynamic rule reaches after one large free.

    Under the dynamic rule, once no large array pins the heap, each
    node's temporaries are handed back to the kernel at the heap top and
    faulted in again at the next node, which can cost a solve or a sweep
    of estimates more time than its arithmetic.  Does nothing where libc
    has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


def main(argv=None) -> int:
    _pin_heap()
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return ns.func(ns)
    except (GnsError, OSError) as exc:  # one error line for every failed read or write
        return _fail(exc)
    except MemoryError as exc:  # a size no address space holds, refused before allocating
        return _fail(str(exc) or "out of memory")
