"""Seeded inputs for each workload, and the checks on what gns wrote.

A workload turns a seed into the argument list of one `gnslab.cli.main`
call, writing any generated config first; the program sees only those
files and arguments.  `check()` judges one call from its exit code,
stdout and output directory, against fixed expectations and, where the
seed has one, a stored reference.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

TWO_PI = 2.0 * math.pi

# Samples per id in verify-suite: 12 ids x 6 samples take 5-10 s per
# call on a shared 2-core VM, so a 40 s run holds four to seven calls.
VERIFY_SAMPLES = 6

# Relative tolerance for reference values.  It admits the last-digit
# drift of a changed FFT path and nothing that changes a result.
REL_TOL = 1e-6
# The divergence defect is rounding dust (~1e-21); it is held to an
# absolute ceiling, since a relative match of dust means nothing.
DIV_DEFECT_MAX = 1e-12


def solve_2d_config(seed: int) -> dict:
    """Norm-bound solve: 2-D, H0 exponents, N=64, 128 nodes."""
    return {
        "description": "perfbench solve-2d",
        "hypothesis": {"m": 1.0, "n": 2, "p": 2.0, "rho": 3.0, "alpha": 1.0, "r": 2.0},
        "grid": {"n": 2, "N": 64, "L": TWO_PI},
        "horizon": 1e-3,
        "time_nodes": 128,
        # d_1 sits near 1e-10 and d_2 near 1e-16: a tolerance between them
        # fixes the iteration count at 2 for every seed
        "tolerance": 1e-12,
        "max_iterations": 8,
        "dealias_factor": 2,
        "constants": {"k0": 1.0, "k1": 1.0, "k2": 1.0},
        "gate_abort": True,
        "seed": seed,
        "data": {"type": "random", "sigma": 1.0, "amplitude": 1e-3},
        "forcing": None,
    }


def solve_3d_config(seed: int) -> dict:
    """Convection-bound solve: 3-D, H2 exponents (m=2), N=32, 8 nodes.

    L = 8 pi / 3 is the smallest box that resolves the 3 dyadic blocks
    the norms need at N = 32.
    """
    return {
        "description": "perfbench solve-3d",
        "hypothesis": {"m": 2.0, "n": 3, "p": 3.0, "rho": 6.0, "alpha": 1.0, "r": 2.0},
        "grid": {"n": 3, "N": 32, "L": 4.0 * TWO_PI / 3.0},
        "horizon": 1e-5,
        "time_nodes": 8,
        "tolerance": 1e-10,
        "max_iterations": 8,
        "dealias_factor": 2,
        "constants": {"k0": 2.0, "k1": 2.0, "k2": 4.0},
        "gate_abort": True,
        "seed": seed,
        "data": {"type": "random", "sigma": 1.0, "amplitude": 1e-4},
        "forcing": None,
    }


class Workload:
    """One benchmark workload: its inputs and what a correct call yields."""

    def __init__(self, name, kind, config=None, iterations=None, save_fields=False):
        self.name = name
        self.kind = kind  # "solve" or "verify"
        self.config = config
        self.iterations = iterations
        self.save_fields = save_fields

    def prepare(self, seed: int, directory: str) -> list:
        """Write the generated inputs under directory; return main() argv."""
        os.makedirs(directory, exist_ok=True)
        if self.kind == "verify":
            argv = ["verify", "--ineq", "all", "--seed", str(seed),
                    "--samples", str(VERIFY_SAMPLES)]
            write_text(os.path.join(directory, "argv.json"), json.dumps(argv) + "\n")
            return argv
        path = os.path.join(directory, "config.json")
        write_text(path, config_text(self.config(seed)))
        argv = ["solve", path]
        if self.save_fields:
            argv.append("--save-fields")
        return argv

    def input_sizes(self) -> dict:
        if self.kind == "verify":
            return {"n": 2, "N": 64, "J": 33, "samples_per_id": VERIFY_SAMPLES,
                    "field_bytes_per_node": 2 * 64**2 * 16}
        cfg = self.config(0)
        g = cfg["grid"]
        return {"n": g["n"], "N": g["N"], "J": cfg["time_nodes"],
                "field_bytes_per_node": g["n"] * g["N"] ** g["n"] * 16}

    def outputs(self, stdout: str, out_dir: str) -> dict:
        """Values and digests of one call's outputs."""
        if self.kind == "verify":
            lines = [json.loads(s) for s in stdout.splitlines() if s.strip()]
            return {
                "ids": {ln["ineq_id"]: {"max_ratio": ln["max_ratio"],
                                        "median_ratio": ln["median_ratio"],
                                        "samples": ln["samples"],
                                        "violations": ln["violations"]} for ln in lines},
                "sha256": {"verify_lines": sha256_bytes(stdout.encode())},
            }
        with open(os.path.join(out_dir, "diagnostics.json"), "rb") as fh:
            raw = fh.read()
        diag = json.loads(raw)
        gate = diag.get("gate", {})
        return {
            "outcome": diag.get("outcome"),
            "iterations": gate.get("iterations"),
            "values": {
                "K0": gate.get("K0"),
                "solution_norm": gate.get("norms", {}).get("solution"),
                "residual": diag.get("residual"),
            },
            "divergence_defect": diag.get("divergence_defect"),
            "gate": gate,
            "sha256": {"diagnostics.json": sha256_bytes(raw)},
        }

    def check(self, rc: int, got: dict, reference: dict | None) -> list:
        """Reasons the call is wrong; empty when it is correct."""
        errors = []
        if rc != 0:
            errors.append(f"exit code {rc}, expected 0")
        if self.kind == "verify":
            errors += _check_verify(got)
        else:
            errors += self._check_solve(got)
        if reference is not None:
            errors += _check_reference(got, reference)
        return errors

    def _check_solve(self, got):
        errors = []
        if got["outcome"] != "converged":
            errors.append(f"outcome {got['outcome']!r}, expected 'converged'")
        if got["iterations"] != self.iterations:
            errors.append(f"{got['iterations']} iterations, expected {self.iterations}")
        gate = got["gate"]
        k = gate.get("constants", {})
        K0 = gate.get("K0")
        if None in (K0, k.get("k0"), k.get("k2"), gate.get("lambda1")):
            return errors + ["gate numbers missing from diagnostics.json"]
        # with no forcing the gate arithmetic is K0 = k0 ||a||,
        # eta = 1/(16 k2), lambda1 = (1 - sqrt(1 - 4 k2 K0)) / (2 k2)
        norm_a = gate["norms"]["initial_data"]
        lam = (1.0 - math.sqrt(1.0 - 4.0 * k["k2"] * K0)) / (2.0 * k["k2"])
        for label, value, want in (("K0", K0, k["k0"] * norm_a),
                                   ("eta", gate["eta"], 1.0 / (16.0 * k["k2"])),
                                   ("lambda1", gate["lambda1"], lam)):
            if not _close(value, want, 1e-12):
                errors.append(f"gate {label} = {value!r}, arithmetic gives {want!r}")
        if not gate.get("apriori", {}).get("ok"):
            errors.append("solution norm exceeds the a-priori bound")
        defect = got["divergence_defect"]
        if not (isinstance(defect, float) and 0.0 <= defect <= DIV_DEFECT_MAX):
            errors.append(f"divergence defect {defect!r} above {DIV_DEFECT_MAX}")
        return errors


def _check_verify(got):
    ids = got["ids"]
    errors = []
    if len(ids) != 12:
        errors.append(f"{len(ids)} verify lines, expected 12")
    for iid, line in ids.items():
        if line["samples"] != VERIFY_SAMPLES:
            errors.append(f"{iid}: {line['samples']} samples, expected {VERIFY_SAMPLES}")
        if line["violations"] != 0:
            errors.append(f"{iid}: {line['violations']} violations")
        mx, md = line["max_ratio"], line["median_ratio"]
        if not (isinstance(mx, float) and isinstance(md, float) and 0.0 < md <= mx < math.inf):
            errors.append(f"{iid}: ratios max {mx!r}, median {md!r} out of order")
    return errors


def _check_reference(got, ref):
    errors = []
    if "outcome" in ref and got.get("outcome") != ref["outcome"]:
        errors.append(f"outcome {got.get('outcome')!r}, reference {ref['outcome']!r}")
    if "iterations" in ref and got.get("iterations") != ref["iterations"]:
        errors.append(f"{got.get('iterations')} iterations, reference {ref['iterations']}")
    for key, want in ref.get("values", {}).items():
        value = got["values"].get(key)
        if not _close(value, want, REL_TOL):
            errors.append(f"{key} = {value!r}, reference {want!r}")
    for iid, want in ref.get("ids", {}).items():
        line = got["ids"].get(iid)
        if line is None:
            errors.append(f"{iid}: missing from the verify lines")
            continue
        for key in ("max_ratio", "median_ratio"):
            if not _close(line[key], want[key], REL_TOL):
                errors.append(f"{iid} {key} = {line[key]!r}, reference {want[key]!r}")
    return errors


def drift(got, ref):
    """Output digests that differ from the reference (not a failure)."""
    if ref is None:
        return []
    return [k for k, v in ref.get("sha256", {}).items() if got["sha256"].get(k) != v]


def reference_entry(got: dict) -> dict:
    """The part of a call's outputs that is stored as its reference."""
    keep = ("outcome", "iterations", "values", "sha256")
    entry = {k: got[k] for k in keep if k in got}
    if "ids" in got:
        entry["ids"] = {i: {"max_ratio": v["max_ratio"], "median_ratio": v["median_ratio"]}
                        for i, v in got["ids"].items()}
    return entry


def _close(value, want, rel):
    return (isinstance(value, float) and isinstance(want, float)
            and abs(value - want) <= rel * abs(want))


def config_text(config: dict) -> str:
    return json.dumps(config, indent=1, sort_keys=True) + "\n"


def write_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


WORKLOADS = {
    w.name: w
    for w in (
        Workload("solve-2d", "solve", solve_2d_config, iterations=2),
        Workload("solve-3d", "solve", solve_3d_config, iterations=1, save_fields=True),
        Workload("verify-suite", "verify"),
    )
}
