"""Command-line surface: exit codes, report layout, reproducibility."""

import copy
import json
import math
import os
import shlex
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnslab import GnsError, Grid, SpectralField, write_field
from gnslab.cli import load_solve_config, main
from gnslab.mild_solver import SETTING_KINDS

TWO_PI = 2.0 * math.pi


def _solve_presets() -> dict:
    presets = resources.files("gnslab").joinpath("presets")
    docs = {p.name: json.loads(p.read_text()) for p in presets.iterdir() if p.name.endswith(".json")}
    return {name: doc for name, doc in docs.items() if "time_nodes" in doc}


def _solve_config(tmp_path, **overrides):
    config = {
        "hypothesis": {"m": 1.0, "n": 2, "p": 2.0, "rho": 3.0, "alpha": 1.0, "r": 2.0},
        "grid": {"n": 2, "N": 64, "L": 2.0 * TWO_PI},
        "horizon": 1e-4,
        "time_nodes": 8,
        "tolerance": 1e-10,
        "max_iterations": 12,
        "constants": {"k0": 1.0, "k1": 1.0, "k2": 1.0},
        "gate_abort": False,
        "seed": 7,
        "data": {"type": "taylor-green", "amplitude": 1.0},
        "forcing": None,
        "residual_threshold": 1e-3,
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


class TestHypothesesCommand:
    def test_admissible_parameters(self, capsys):
        code = main(["hypotheses", "--m", "2", "--n", "3", "--p", "3",
                     "--rho", "6", "--alpha", "1"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["valid"] is True
        assert out["s0"] == pytest.approx(5.0 / 6.0, abs=1e-12)

    def test_violation_exit_code(self, capsys):
        code = main(["hypotheses", "--m", "2", "--n", "3", "--p", "7",
                     "--rho", "6", "--alpha", "1"])
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert out["valid"] is False
        assert any("p < 2n" in v["name"] for v in out["violations"])

    def test_parse_failure(self, capsys):
        code = main(["hypotheses", "--m", "abc", "--n", "2"])
        assert code == 1

    def test_preset_parameters(self, capsys):
        code = main(["hypotheses", "--preset", "worked-h1"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["s"] == pytest.approx(-29.0 / 21.0, abs=1e-12)


class TestVerifyCommand:
    def test_single_inequality(self, capsys):
        code = main(["verify", "--ineq", "lemma-ab", "--samples", "2000", "--seed", "1"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["ineq_id"] == "lemma-ab"
        assert out["violations"] == 0

    def test_unknown_id(self, capsys):
        assert main(["verify", "--ineq", "NOPE"]) == 1

    def test_incompatible_regime(self, capsys):
        # quadratic default regime rejects the small-exponent estimate
        assert main(["verify", "--ineq", "POW_SMALL", "--samples", "2"]) == 2

    def test_full_sweep_with_substitution(self, capsys, tmp_path):
        code = main(["verify", "--ineq", "all", "--samples", "2", "--seed", "1",
                     "--nodes", "9", "--out", str(tmp_path)])
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert code == 0
        assert len(lines) == 12
        by_id = {l["ineq_id"]: l for l in lines}
        assert by_id["BILIN_M1"]["substituted"] is True
        assert by_id["SEMI"]["substituted"] is False
        assert all(l["violations"] == 0 for l in lines)
        assert (tmp_path / "verify_BILIN.jsonl").exists()

    def test_explicit_regime_flags(self, capsys):
        code = main(["verify", "--ineq", "POW", "--samples", "3", "--m", "1.5",
                     "--n", "2", "--p", "2", "--rho", "6.5", "--alpha", "1"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["hypothesis_label"] == "H1"


class TestSolveCommand:
    def test_converged_run_writes_reports(self, capsys, tmp_path):
        cfg = _solve_config(tmp_path)
        out_dir = tmp_path / "run"
        code = main(["solve", str(cfg), "--output", str(out_dir)])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["outcome"] == "converged"
        assert report["gate"]["converged"] is True
        assert report["residual"] < 1e-3
        assert (out_dir / "diagnostics.json").exists()
        assert (out_dir / "norms.csv").exists()

    def test_gate_abort_exit(self, capsys, tmp_path):
        code = main(["solve", "--preset", "large-amplitude",
                     "--output", str(tmp_path / "run")])
        report = json.loads(capsys.readouterr().out)
        assert code == 3
        assert report["outcome"] == "gate-abort"

    def test_nonconvergence_exit(self, capsys, tmp_path):
        cfg = _solve_config(tmp_path, max_iterations=1, tolerance=1e-30)
        code = main(["solve", str(cfg), "--output", str(tmp_path / "run")])
        report = json.loads(capsys.readouterr().out)
        assert code == 4
        assert report["outcome"] == "no-convergence"
        assert len(report["d_history"]) == 1

    def test_missing_config(self, capsys, tmp_path):
        assert main(["solve", str(tmp_path / "absent.json")]) == 1

    def test_save_fields(self, capsys, tmp_path):
        cfg = _solve_config(tmp_path, time_nodes=4)
        out_dir = tmp_path / "run"
        code = main(["solve", str(cfg), "--output", str(out_dir), "--save-fields"])
        assert code == 0
        stored = sorted(os.listdir(out_dir / "fields"))
        assert "u_0000.gnsf" in stored
        assert "gradpi_0000.gnsf" in stored

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = _solve_config(tmp_path, max_iteration=1)
        code = main(["solve", str(cfg), "--output", str(tmp_path / "run")])
        assert code == 1
        assert "'max_iteration'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_float_dealias_factor_rejected(self, capsys, tmp_path):
        cfg = _solve_config(tmp_path, dealias_factor=2.0)
        code = main(["solve", str(cfg), "--output", str(tmp_path / "run")])
        assert code == 1
        assert "error: invalid configuration: dealias_factor" in capsys.readouterr().err

    def test_non_object_config_rejected(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        monkeypatch.chdir(tmp_path)
        assert main(["solve", str(path)]) == 1
        assert "JSON object" in capsys.readouterr().err

    def test_shipped_solve_presets_use_known_keys(self):
        solve = _solve_presets()
        assert len(solve) == 5
        for preset in solve.values():
            # an unknown key anywhere in the document is an error
            setup = load_solve_config(preset)
            for key in SETTING_KINDS.keys() & preset.keys():
                assert getattr(setup.cfg, key) == preset[key]

    @pytest.mark.parametrize("overrides, message", [
        # projection lets the datum past the divergence check
        (dict(project_data=True, data={"type": "shear", "amplitude": math.nan}),
         "initial data has non-finite coefficients"),
        (dict(data={"type": "shear", "amplitude": math.nan}),
         "initial data has non-finite coefficients"),
        (dict(forcing={"type": "shear", "amplitude": math.nan}),
         "forcing has non-finite coefficients"),
    ], ids=["projected-data", "data", "forcing"])
    def test_non_finite_input_rejected(self, capsys, tmp_path, overrides, message):
        cfg = _solve_config(tmp_path, **overrides)
        code = main(["solve", str(cfg), "--output", str(tmp_path / "run")])
        assert code == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, key", [
        (dict(data={"type": "file", "path": "missing.gnsf"}), "data.path"),
        (dict(forcing=[1, 2]), "forcing"),
        (dict(data=[1]), "data"),
        (dict(residual_threshold="x"), "residual_threshold"),
        (dict(time_nodes=8.5), "time_nodes"),
        (dict(max_iterations=2.5), "max_iterations"),
        (dict(time_nodes="8"), "time_nodes"),
        (dict(grid=[2, 64]), "grid"),
        (dict(hypothesis={"m": 1.0, "n": 2, "p": 2.0, "rho": 3.0, "alpha": 1.0, "zz": 1}), "'zz'"),
        (dict(gate_abort="false", data={"type": "taylor-green", "amplitude": 1.0}), "gate_abort"),
        (dict(save_fields="no"), "save_fields"),
        (dict(data={"type": "zero", "amplitud": 3}), "'amplitud'"),
        (dict(constants=None, const_nodes=2), "const_nodes"),
        (dict(floor_factor=2.0), "floor_factor"),
    ])
    def test_bad_setting_is_named_before_anything_is_written(self, capsys, tmp_path,
                                                             monkeypatch, overrides, key):
        config = _solve_presets()["zero-data.json"]
        config.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        monkeypatch.chdir(tmp_path)
        code = main(["solve", str(path), "--output", str(tmp_path / "run")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: invalid configuration:")
        assert key in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not (tmp_path / "run").exists()

    def test_estimated_constants_report_raw_ratios(self, capsys, tmp_path):
        cfg = _solve_config(tmp_path, constants=None, time_nodes=4,
                            const_samples=2, const_nodes=3)
        code = main(["solve", str(cfg), "--output", str(tmp_path / "run")])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        constants = report["gate"]["constants"]
        assert constants["mode"] == "estimated"
        detail = constants["detail"]
        assert (detail["samples"], detail["bilinear_id"]) == (2, "BILIN_M1")
        for k in ("k0", "k1", "k2"):
            assert constants[k] == max(1.0, detail["max_ratios"][k])

    def test_supplied_constants_report_no_detail(self, capsys, tmp_path):
        cfg = _solve_config(tmp_path, time_nodes=4)
        assert main(["solve", str(cfg), "--output", str(tmp_path / "run")]) == 0
        constants = json.loads(capsys.readouterr().out)["gate"]["constants"]
        assert list(constants) == ["k0", "k1", "k2", "mode"]


@st.composite
def _mutated_presets(draw):
    """One shipped solve preset with one key mutated, at the top level or
    inside a block."""
    doc = copy.deepcopy(draw(st.sampled_from(sorted(_solve_presets().items())))[1])
    paths = [(key,) for key in doc]
    paths += [(key, sub) for key, block in doc.items() if isinstance(block, dict) for sub in block]
    *parents, key = draw(st.sampled_from(paths))
    target = doc
    for parent in parents:
        target = target[parent]
    value = target[key]
    mutation = draw(st.sampled_from(
        ["wrong type", "non-finite", "negative", "missing", "nested", "unknown key"]))
    if mutation == "wrong type":
        target[key] = draw(st.sampled_from(["x", "1", [1], {}, None, True, 1, 1.5]))
    elif mutation == "non-finite":
        target[key] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif mutation == "negative":
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        target[key] = -value if number else -1
    elif mutation == "missing":
        del target[key]
    elif mutation == "nested":
        target[key] = draw(st.sampled_from([{key: value}, [value]]))
    else:
        target["zz"] = 1
    return doc


# non-finite amplitudes make numpy warn while the data are built
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=500, deadline=None)
@given(doc=_mutated_presets())
def test_mutated_preset_loads_or_raises_gns_error(doc):
    try:
        load_solve_config(doc)
    except GnsError:
        pass


class TestScalingCommand:
    def test_preset_within_tolerance(self, capsys):
        code = main(["scaling", "--preset", "single-mode", "--lambda", "2"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["within_tolerance"] is True
        assert out["initial_ratio"] == pytest.approx(1.0, abs=1e-10)

    def test_unresolvable_mode_is_reported(self, capsys):
        code = main(["scaling", "--preset", "single-mode", "--lambda", "2",
                     "--wavenumber", "32"])
        assert code == 2

    def test_stored_field_input(self, capsys, tmp_path):
        grid = Grid(2, 64, TWO_PI)
        x = grid.axis_coordinates()
        vals = np.stack([
            np.broadcast_to(np.cos(3 * x)[None, :], grid.shape),
            np.broadcast_to(np.cos(3 * x)[:, None], grid.shape),
        ])
        path = tmp_path / "data.gnsf"
        write_field(SpectralField.from_physical(grid, vals), path)
        code = main(["scaling", "--field", str(path), "--lambda", "2",
                     "--m", "2", "--n", "2", "--p", "3", "--rho", "4.5",
                     "--alpha", "1"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["temporal_ratio"] == pytest.approx(1.0, abs=1e-10)

    def test_non_dyadic_factor(self, capsys):
        assert main(["scaling", "--preset", "single-mode", "--lambda", "3"]) == 1


class TestNormsCommand:
    def test_field_norm(self, capsys, tmp_path):
        grid = Grid(2, 64, TWO_PI)
        x = grid.axis_coordinates()
        vals = np.stack([
            np.broadcast_to(np.cos(3 * x)[None, :], grid.shape),
            np.broadcast_to(np.cos(3 * x)[:, None], grid.shape),
        ])
        field = SpectralField.from_physical(grid, vals)
        path = tmp_path / "data.gnsf"
        write_field(field, path)
        code = main(["norms", "--field", str(path), "--s", "0.5", "--p", "2", "--r", "1"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        # single active block: 2^s ||f||_2 with ||f||_2 = 2 pi
        assert out["norm"] == pytest.approx(2.0**0.5 * TWO_PI, rel=1e-12)

    def test_trajectory_norm(self, capsys, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("t,value\n0.5,2\n1,2\n")
        code = main(["norms", "--trajectory", str(path), "--rho", "3", "--r", "2"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["norm"] == pytest.approx(2.0 * (1.5) ** 0.5, rel=1e-12)

    def test_requires_exactly_one_input(self, capsys, tmp_path):
        assert main(["norms", "--s", "0.5", "--p", "2", "--r", "1"]) == 1

    @pytest.mark.parametrize("text, line", [
        ("t,value\n0.5,2\nabc,1\n", 3),
        ("t,value\n0.5\n", 2),
    ], ids=["not-a-number", "one-column"])
    def test_bad_trajectory_row_is_named(self, capsys, tmp_path, text, line):
        path = tmp_path / "traj.csv"
        path.write_text(text)
        code = main(["norms", "--trajectory", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:")
        assert f"traj.csv, line {line}" in err
        assert "Traceback" not in err


def _readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```")[1]
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
    return [shlex.join(words[1:]) for words in lines
            if words[:1] == ["gns"] and words[1] in ("hypotheses", "scaling", "norms")]


@pytest.mark.parametrize("command", _readme_commands())
def test_readme_command_runs(capsys, tmp_path, monkeypatch, command):
    argv = shlex.split(command)
    if argv[0] == "norms":
        grid = Grid(2, 64, TWO_PI)
        x = grid.axis_coordinates()
        vals = np.stack([np.broadcast_to(np.cos(3 * x)[None, :], grid.shape),
                         np.broadcast_to(np.cos(3 * x)[:, None], grid.shape)])
        write_field(SpectralField.from_physical(grid, vals), tmp_path / "u.gnsf")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0


def test_readme_lists_each_cheap_subcommand():
    assert {shlex.split(c)[0] for c in _readme_commands()} == {"hypotheses", "scaling", "norms"}


class TestReproducibility:
    def test_verify_stdout_is_stable(self, capsys):
        main(["verify", "--ineq", "SEMI", "--samples", "4", "--seed", "3", "--nodes", "9"])
        first = capsys.readouterr().out
        main(["verify", "--ineq", "SEMI", "--samples", "4", "--seed", "3", "--nodes", "9"])
        second = capsys.readouterr().out
        assert first == second

    def test_solve_artifacts_are_byte_identical(self, capsys, tmp_path):
        cfg = _solve_config(tmp_path)
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        assert main(["solve", str(cfg), "--output", str(dir_a)]) == 0
        assert main(["solve", str(cfg), "--output", str(dir_b)]) == 0
        capsys.readouterr()
        diag_a = (dir_a / "diagnostics.json").read_bytes()
        diag_b = (dir_b / "diagnostics.json").read_bytes()
        assert diag_a == diag_b
        assert (dir_a / "norms.csv").read_bytes() == (dir_b / "norms.csv").read_bytes()
