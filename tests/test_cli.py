"""Command-line surface: exit codes, report layout, reproducibility."""

import json
import math
import os

import numpy as np
import pytest

from gnslab import Grid, SpectralField, write_field
from gnslab.cli import main

TWO_PI = 2.0 * math.pi


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

    def test_non_object_config_rejected(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        monkeypatch.chdir(tmp_path)
        assert main(["solve", str(path)]) == 1
        assert "JSON object" in capsys.readouterr().err

    def test_shipped_solve_presets_use_known_keys(self):
        from importlib import resources

        from gnslab.cli import _SOLVE_KEYS

        presets = resources.files("gnslab").joinpath("presets")
        solve = [json.loads(p.read_text()) for p in presets.iterdir() if p.name.endswith(".json")]
        solve = [preset for preset in solve if "time_nodes" in preset]
        assert len(solve) == 5
        for preset in solve:
            assert set(preset) <= _SOLVE_KEYS

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
