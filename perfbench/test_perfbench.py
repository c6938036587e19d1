"""Tests of the benchmark itself: inputs, metric tables and the tracer.

    python3 -m pytest -q perfbench
"""

import contextlib
import io
import json
import os
import re
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, config_text, solve_2d_config  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", ["solve-2d", "solve-3d", "verify-suite"])
def test_same_seed_same_input_bytes(tmp_path, name):
    w = WORKLOADS[name]
    argv_a = w.prepare(5, str(tmp_path / "a"))
    argv_b = w.prepare(5, str(tmp_path / "b"))
    argv_c = w.prepare(6, str(tmp_path / "c"))
    for sub in ("config.json", "argv.json"):
        if (tmp_path / "a" / sub).exists():
            assert (tmp_path / "a" / sub).read_bytes() == (tmp_path / "b" / sub).read_bytes()
            assert (tmp_path / "a" / sub).read_bytes() != (tmp_path / "c" / sub).read_bytes()
    assert len(argv_a) == len(argv_b) == len(argv_c)


@pytest.mark.parametrize("make", [solve_2d_config, WORKLOADS["solve-3d"].config])
def test_different_seed_different_data(make):
    from gnslab.cli import _data_field
    from gnslab.spectral_core import Grid

    fields = []
    for seed in (0, 0, 1):
        cfg = json.loads(config_text(make(seed)))
        g = cfg["grid"]
        grid = Grid(g["n"], g["N"], g["L"])
        fields.append(_data_field(cfg["data"], grid, np.random.default_rng(cfg["seed"])).coeffs)
    assert np.array_equal(fields[0], fields[1])
    assert not np.allclose(fields[0], fields[2])


def test_metric_names_and_tables_agree():
    bench = load(os.path.join(ROOT, "BENCHMARK.json"))
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == layers.metric_specs()
    predicted = load(os.path.join(HERE, "predictions.json"))["modules"]
    assert {n.split(".", 1)[0] for n in names[len(bench["end_to_end"]):]} <= set(predicted)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def small_solve_config(tmp_path):
    cfg = solve_2d_config(3)
    cfg["time_nodes"] = 6
    path = tmp_path / "small.json"
    path.write_text(config_text(cfg))
    return path


def call_main(argv):
    import gnslab.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = gnslab.cli.main(argv)
    return rc, out.getvalue()


def test_wrappers_leave_report_bytes_unchanged(tmp_path):
    config = small_solve_config(tmp_path)
    plain = call_main(["solve", str(config), "--output", str(tmp_path / "plain")])
    t = tracer.Tracer().install()
    try:
        traced = t.call_root(call_main, ["solve", str(config), "--output", str(tmp_path / "traced")])
        verify_traced = call_main(["verify", "--ineq", "semi", "--samples", "2"])
    finally:
        t.uninstall()
    verify_plain = call_main(["verify", "--ineq", "semi", "--samples", "2"])
    assert plain[0] == 0 and plain == traced
    assert verify_plain[0] == 0 and verify_plain == verify_traced
    for name in ("diagnostics.json", "norms.csv"):
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "traced" / name).read_bytes()
    names = set(t.names)
    assert {"besov_analysis.besov_norm", "mild_solver.phi_map",
            "estimates_lab.estimate_constant", "spectral_core.hermitian_defect"} <= names
    assert t.fft["calls"] > 0


def test_install_patches_every_holder_and_uninstall_restores():
    import gnslab
    import gnslab.besov_analysis as ba
    import gnslab.mild_solver as ms

    original = ba.besov_norm
    t = tracer.Tracer().install()
    try:
        for mod in (ba, ms, gnslab):
            assert mod.besov_norm is not original
            assert mod.besov_norm.__wrapped__ is original
    finally:
        t.uninstall()
    assert ba.besov_norm is original and ms.besov_norm is original and gnslab.besov_norm is original


def test_self_time_subtracts_children():
    doc = {
        "names": ["cli.main", "mild_solver.phi_map", "besov_analysis.besov_norm"],
        "spans": [[0, 0, 100, -1], [1, 10, 60, 0], [2, 20, 50, 1], [2, 70, 80, 0]],
        "tags": {},
        "fft": {},
    }
    s = tracer.summarize(doc)
    assert s["functions"]["mild_solver.phi_map"]["self_s"] == pytest.approx(20e-9)
    assert s["functions"]["besov_analysis.besov_norm"]["calls"] == 2
    assert s["functions"]["besov_analysis.besov_norm"]["busy_s"] == pytest.approx(40e-9)
    assert s["modules"]["cli"] == pytest.approx(40e-9)
