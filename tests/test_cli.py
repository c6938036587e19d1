"""Command-line surface: exit codes, report layout, reproducibility."""

import copy
import dataclasses
import json
import math
import os
import platform
import shlex
import struct
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gnslab
from gnslab import (
    GnsError,
    Grid,
    SpectralField,
    Trajectory,
    besov_norm,
    leray_project,
    random_field,
    read_field,
    write_field,
)
from gnslab.cli import load_solve_config, main
from test_mild_solver import _iterate_before, _pressure_reference

TWO_PI = 2.0 * math.pi

# SolverConfig's scalar settings: every field but its three blocks
_SETTINGS = {f.name for f in dataclasses.fields(gnslab.SolverConfig)} - {
    "hypothesis", "grid", "constants"}


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

    @pytest.mark.parametrize("ineq", ["lemma-ab", "SEMI"])
    def test_negative_seed_rejected(self, capsys, ineq):
        code = main(["verify", "--ineq", ineq, "--samples", "2", "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: seed must be >= 0, got -1\n"
        assert captured.out == ""

    def test_incompatible_regime(self, capsys):
        # quadratic default regime rejects the small-exponent estimate, and
        # a single id is never substituted
        assert main(["verify", "--ineq", "POW_SMALL", "--samples", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: small-power law needs 0 < m ≤ 1, got 2\n"

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

    @pytest.mark.parametrize("m, own, substituted, label", [
        ("1", "H0", {"DIFF", "BILIN", "BILIN_DIFF"}, "H2"),
        ("1.5", "H1", {"POW_SMALL", "BILIN_M1"}, "H0"),
        ("2", "H2", {"POW_SMALL", "BILIN_M1"}, "H0"),
    ])
    def test_full_sweep_substitutes_the_first_desk_set_an_id_admits(self, capsys, m, own,
                                                                     substituted, label):
        code = main(["verify", "--ineq", "all", "--grid-size", "32", "--samples", "1",
                     "--nodes", "3", "--n", "2", "--m", m])
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert code == 0
        assert {l["ineq_id"] for l in lines if l["substituted"]} == substituted
        for line in lines:
            assert line["hypothesis_label"] == (label if line["substituted"] else own)

    def test_id_no_desk_set_admits_stops_the_sweep(self, capsys, monkeypatch):
        h2_only = {2: dict(gnslab.cli._DESK[2], H0=gnslab.cli._DESK[2]["H2"])}
        monkeypatch.setattr(gnslab.cli, "_DESK", h2_only)
        code = main(["verify", "--ineq", "all", "--grid-size", "32", "--samples", "1",
                     "--nodes", "3", "--n", "2", "--m", "2"])
        captured = capsys.readouterr()
        assert code == 1
        ran = [json.loads(l)["ineq_id"] for l in captured.out.splitlines()]
        assert ran == ["lemma-ab", "PROD1", "PROD2"]
        assert captured.err == "error: small-power law needs 0 < m ≤ 1, got 2\n"

    def test_node_count_numpy_cannot_size_is_an_error_line(self, capsys):
        code = main(["verify", "--ineq", "semi", "--samples", "1", "--nodes", str(10**20)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "error: time_nodes must leave arrays numpy can size, "
            f"got {10**20}\n"
        )

    @pytest.mark.parametrize("ineq", ["semi", "lemma-ab", "all"])
    def test_sample_count_numpy_cannot_size_is_an_error_line(self, capsys, ineq):
        # refused before the seed tree is spawned, which takes memory per sample
        code = main(["verify", "--ineq", ineq, "--samples", str(10**20)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: samples must leave arrays numpy can size, got {10**20}\n"

    def test_out_files_are_the_stdout_lines(self, capsys, tmp_path):
        code = main(["verify", "--ineq", "all", "--samples", "1", "--seed", "2",
                     "--grid-size", "32", "--nodes", "3", "--out", str(tmp_path)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        files = {p.name: p.read_text(encoding="utf-8") for p in tmp_path.iterdir()}
        assert files == {f"verify_{json.loads(l)['ineq_id']}.jsonl": l + "\n" for l in lines}
        assert len(files) == 12

    def test_explicit_regime_flags(self, capsys):
        code = main(["verify", "--ineq", "POW", "--samples", "3", "--m", "1.5",
                     "--n", "2", "--p", "2", "--rho", "6.5", "--alpha", "1"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["hypothesis_label"] == "H1"

    @pytest.mark.parametrize("n", ["2", "3"])
    def test_default_box_resolves_grid_size_32(self, capsys, n):
        # the default side below N = 64 is 8 pi / 3, where N = 32 resolves 3 blocks
        code = main(["verify", "--ineq", "SEMI", "--samples", "1", "--n", n, "--grid-size", "32"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["params"]["grid_L"] == 8.0 * math.pi / 3.0

    def test_node_count_no_memory_holds_fails_before_any_line(self, capsys):
        # 10**18 nodes pass the size check, but numpy refuses their times at
        # once; they are built before lemma-ab runs, so stdout stays empty
        code = main(["verify", "--ineq", "all", "--nodes", str(10**18), "--samples", "1"])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err.startswith("error: Unable to allocate")

    def test_node_count_is_not_built_for_an_id_without_nodes(self, capsys):
        code = main(["verify", "--ineq", "lemma-ab", "--nodes", str(10**18), "--samples", "10"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["ineq_id"] == "lemma-ab"

    def test_too_coarse_grid_stops_the_sweep_after_lemma_ab(self, capsys):
        # lemma-ab samples no field, so it reports before PROD1 reaches the grid
        code = main(["verify", "--ineq", "all", "--n", "2", "--grid-size", "16",
                     "--grid-length", "8.377580409572781"])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == (
            '{"ineq_id": "lemma-ab", "hypothesis_label": "H2", "params": {"m": "menu", '
            '"amplitude": 10.0, "dimension": 2, "sigma": 1.0, "grid_n": 2, "grid_N": 16, '
            '"grid_L": 8.3775804095727811, "seed": 0}, "samples": 100, '
            '"max_ratio": 0.56771262144814683, "median_ratio": 0.25405881622772059, '
            '"violations": 0, "skipped": 0, "substituted": false}\n'
        )
        assert err == (
            "error: grid Grid(n=2, N=16, L=8.377580409572781) resolves only 2 dyadic blocks; "
            "at least 3 required\n"
        )


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

    @pytest.mark.parametrize("amplitude, detail", [
        (1e100, "update norm not finite at node 0 (t = 1e-06)"),
        (1e160, "non-finite field at node 0 (t = 1e-06)"),
    ])
    def test_overflow_is_a_blowup_report(self, capsys, tmp_path, amplitude, detail):
        # an update whose norm overflows ends the solve as a field that
        # overflows does: a no-convergence report, not an error line
        cfg = _solve_config(tmp_path, hypothesis={"m": 2.0, "n": 2, "p": 3.0, "rho": 4.5, "alpha": 1.0},
                            grid={"n": 2, "N": 64, "L": TWO_PI}, horizon=1.0,
                            data={"type": "shear", "amplitude": amplitude})
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["solve", str(cfg), "--output", str(tmp_path / "run")])
        report = json.loads(capsys.readouterr().out)
        assert code == 4
        assert report["outcome"] == "no-convergence"
        assert report["detail"] == detail
        assert json.loads((tmp_path / "run" / "diagnostics.json").read_text()) == report

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

    def test_saved_pressure_gradients_are_the_gradient_parts(self, capsys, tmp_path):
        # node j <= J - 2 holds the gradient part of the source the last
        # sweep held, formed from the iterate that sweep read; node J - 1,
        # which no step holds, that of the saved velocity; every file lies
        # within 1e-12 relative of the saved velocity's own pressure
        cfg_path = _solve_config(tmp_path, time_nodes=5, gate_abort=False,
                                 forcing={"type": "shear", "wavenumber": 2, "amplitude": 0.1})
        fields = tmp_path / "run" / "fields"
        assert main(["solve", str(cfg_path), "--output", str(tmp_path / "run"),
                     "--save-fields"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert sorted(os.listdir(tmp_path / "run")) == ["diagnostics.json", "fields", "norms.csv"]
        setup = load_solve_config(json.loads(cfg_path.read_text()))
        cfg, J = setup.cfg, setup.cfg.time_nodes
        assert sorted(os.listdir(fields)) == sorted(
            [f"gradpi_{j:04d}.gnsf" for j in range(J)] + [f"u_{j:04d}.gnsf" for j in range(J)]
        )
        u = np.stack([read_field(fields / f"u_{j:04d}.gnsf").coeffs for j in range(J)])
        traj = Trajectory(cfg.grid, cfg.times(), u)
        before = _iterate_before(traj, report["gate"]["iterations"], setup.data, setup.forcing, cfg)
        for j in range(J):
            got = read_field(fields / f"gradpi_{j:04d}.gnsf").coeffs
            read = before if j < J - 1 else traj
            assert got.tobytes() == _pressure_reference(read, setup.forcing, cfg, j).tobytes()
            exact = _pressure_reference(traj, setup.forcing, cfg, j)
            assert np.max(np.abs(got - exact)) <= 1e-12 * np.max(np.abs(exact))

    @pytest.mark.parametrize("save_fields", [False, True])
    def test_solve_convects_nothing_after_its_last_sweep(self, capsys, tmp_path, monkeypatch,
                                                         save_fields):
        # each sweep convects nodes 0 .. J - 2 and gives the residual and
        # the pressure gradients; --save-fields adds node J - 1 alone,
        # which no step holds
        calls = []
        convect = gnslab.mild_solver.solenoidal_convection

        def counted(u, power):
            calls.append(None)
            return convect(u, power)

        monkeypatch.setattr(gnslab.mild_solver, "solenoidal_convection", counted)
        cfg = _solve_config(tmp_path, time_nodes=6)
        argv = ["solve", str(cfg), "--output", str(tmp_path / "run")]
        assert main(argv + (["--save-fields"] if save_fields else [])) == 0
        report = json.loads(capsys.readouterr().out)
        J = report["config"]["time_nodes"]
        assert report["gate"]["iterations"] >= 1
        assert len(calls) == report["gate"]["iterations"] * (J - 1) + (1 if save_fields else 0)

    def test_saving_fields_leaves_the_residual(self, capsys, tmp_path):
        forcing = {"type": "shear", "wavenumber": 2, "amplitude": 0.1}
        cfg = _solve_config(tmp_path, time_nodes=6, forcing=forcing)
        reports = []
        for extra in ([], ["--save-fields"]):
            assert main(["solve", str(cfg), "--output", str(tmp_path / "run")] + extra) == 0
            reports.append(json.loads(capsys.readouterr().out))
        plain, saved = reports
        assert plain["residual"] > 0.0
        assert plain["residual"] == saved["residual"]
        assert plain["gate"] == saved["gate"]

    @pytest.mark.parametrize("failure", ["divergence", "blowup"])
    def test_failed_solve_leaves_no_gradient_file(self, capsys, tmp_path, failure):
        # the sweeps wrote gradients before the solve failed; the staging
        # directory goes with them, and the fields/ of an earlier run stays
        run = tmp_path / "run"
        assert main(["solve", str(_solve_config(tmp_path, time_nodes=4)), "--output", str(run),
                     "--save-fields"]) == 0
        earlier = {p.name: p.read_bytes() for p in (run / "fields").iterdir()}
        assert len(earlier) == 8
        if failure == "divergence":
            cfg = _solve_config(tmp_path, time_nodes=6, max_iterations=2, tolerance=1e-30)
        else:
            cfg = _solve_config(tmp_path, hypothesis={"m": 2.0, "n": 2, "p": 3.0, "rho": 4.5, "alpha": 1.0},
                                grid={"n": 2, "N": 64, "L": TWO_PI}, horizon=1.0,
                                data={"type": "shear", "amplitude": 1e100})
        capsys.readouterr()
        for out in (run, tmp_path / "fresh"):
            with np.errstate(over="ignore", invalid="ignore"):
                assert main(["solve", str(cfg), "--output", str(out), "--save-fields"]) == 4
            assert json.loads(capsys.readouterr().out)["outcome"] == "no-convergence"
        assert sorted(os.listdir(run)) == ["diagnostics.json", "fields", "norms.csv"]
        assert {p.name: p.read_bytes() for p in (run / "fields").iterdir()} == earlier
        assert os.listdir(tmp_path / "fresh") == ["diagnostics.json"]

    def test_gate_abort_makes_no_fields(self, capsys, tmp_path):
        run = tmp_path / "run"
        assert main(["solve", "--preset", "large-amplitude", "--gate", "abort", "--save-fields",
                     "--output", str(run)]) == 3
        assert json.loads(capsys.readouterr().out)["outcome"] == "gate-abort"
        assert os.listdir(run) == ["diagnostics.json"]

    def test_two_nodes_report_a_null_residual(self, capsys, tmp_path):
        cfg = _solve_config(tmp_path, time_nodes=2)
        assert main(["solve", str(cfg), "--output", str(tmp_path / "run")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["outcome"] == "converged"
        assert report["residual"] is None
        assert json.loads((tmp_path / "run" / "diagnostics.json").read_text())["residual"] is None

    def test_residual_above_threshold_exits_4(self, capsys, tmp_path):
        cfg = _solve_config(tmp_path, residual_threshold=1e-30)
        code = main(["solve", str(cfg), "--output", str(tmp_path / "run")])
        report = json.loads(capsys.readouterr().out)
        assert code == 4
        assert report["outcome"] == "converged"
        assert report["residual"] > 1e-30

    def test_projected_datum_reports_the_residual_of_its_projection(self, capsys, tmp_path):
        # a non-solenoidal file datum is solved as P a, and its residual is
        # divided by ||P a||, as the gate reports it, not by the larger ||a||
        grid = Grid(2, 64, TWO_PI)
        raw = random_field(grid, np.random.default_rng(11), ncomp=2)
        a = raw * (1e-4 / float(np.max(np.abs(raw.to_physical()))))
        write_field(a, tmp_path / "a.gnsf")
        write_field(leray_project(a), tmp_path / "pa.gnsf")

        def solve(name):
            cfg = _solve_config(tmp_path, grid={"n": 2, "N": 64, "L": TWO_PI}, horizon=1e-3,
                                time_nodes=64, tolerance=1e-12, project_data=True,
                                residual_threshold=1.0,
                                data={"type": "file", "path": str(tmp_path / name)})
            assert main(["solve", str(cfg), "--output", str(tmp_path / "run")]) == 0
            return json.loads(capsys.readouterr().out)

        raw_report, solved_report = solve("a.gnsf"), solve("pa.gnsf")
        data_space = load_solve_config(raw_report["config"]).cfg.hypothesis.data_space
        norm_pa = raw_report["gate"]["norms"]["initial_data"]
        assert norm_pa < 0.8 * besov_norm(a, data_space)
        assert raw_report["gate"] == solved_report["gate"]
        assert raw_report["residual"] == solved_report["residual"]

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
            for key in _SETTINGS & preset.keys():
                assert getattr(setup.cfg, key) == preset[key]

    def test_wide_node_ladder_solves(self, capsys, tmp_path):
        # floor_factor 1e-17 makes the first interval shorter than one ulp
        # of the rearranged ends' running sum, which ties two of them; the
        # solve converges, and its residual exceeds the preset's threshold
        # (exit 4) on a ladder this wide
        config = _solve_presets()["small-data-h2.json"]
        config["floor_factor"] = 1e-17
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = main(["solve", str(path), "--output", str(tmp_path / "run")])
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        assert report["outcome"] == "converged"
        assert code == (4 if report["residual"] > config["residual_threshold"] else 0)

    @pytest.mark.parametrize("overrides, message", [
        # projection lets the datum past the divergence check
        (dict(project_data=True, data={"type": "shear", "amplitude": math.nan}),
         "initial data has non-finite coefficients"),
        # the entry check comes before the gate, so an aborting gate never sees the datum
        (dict(project_data=True, gate_abort=True, data={"type": "shear", "amplitude": math.nan}),
         "initial data has non-finite coefficients"),
        (dict(data={"type": "shear", "amplitude": math.nan}),
         "initial data has non-finite coefficients"),
        (dict(forcing={"type": "shear", "amplitude": math.nan}),
         "forcing has non-finite coefficients"),
    ], ids=["projected-data", "projected-data-gate-abort", "data", "forcing"])
    def test_non_finite_input_rejected(self, capsys, tmp_path, overrides, message):
        cfg = _solve_config(tmp_path, **overrides)
        code = main(["solve", str(cfg), "--output", str(tmp_path / "run")])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("overrides, key", [
        (dict(data={"type": "file", "path": "missing.gnsf"}), "data.path"),
        (dict(forcing=[1, 2]), "forcing"),
        (dict(data=[1]), "data"),
        (dict(residual_threshold="x"), "residual_threshold"),
        (dict(time_nodes=8.5), "time_nodes"),
        (dict(max_iterations=2.5), "max_iterations"),
        (dict(time_nodes="8"), "time_nodes"),
        (dict(time_nodes=10**20), "time_nodes must leave arrays numpy can size"),
        (dict(grid=[2, 64]), "grid"),
        (dict(hypothesis={"m": 1.0, "n": 2, "p": 2.0, "rho": 3.0, "alpha": 1.0, "zz": 1}), "'zz'"),
        (dict(gate_abort="false", data={"type": "taylor-green", "amplitude": 1.0}), "gate_abort"),
        (dict(save_fields="no"), "save_fields"),
        (dict(data={"type": "zero", "amplitud": 3}), "'amplitud'"),
        (dict(constants=None, const_nodes=2), "const_nodes"),
        (dict(constants=None, const_samples=10**20), "const_samples"),
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

    def test_negative_seed_rejected(self, capsys):
        code = main(["scaling", "--preset", "single-mode", "--lambda", "2", "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: seed must be >= 0, got -1\n"
        assert captured.out == ""

    def test_node_count_numpy_cannot_size_is_an_error_line(self, capsys):
        code = main(["scaling", "--preset", "single-mode", "--lambda", "2",
                     "--nodes", str(10**20)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: node count must leave arrays numpy can size, got {10**20}\n"

    def test_node_count_no_address_space_holds_is_an_error_line(self, capsys):
        # numpy sizes 10**18 nodes and refuses them before allocating
        code = main(["scaling", "--preset", "single-mode", "--lambda", "2",
                     "--nodes", str(10**18)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: Unable to allocate")
        assert captured.err.count("\n") == 1

    def test_memory_error_without_a_message_is_an_error_line(self, capsys, monkeypatch):
        def exhausted(ns):
            raise MemoryError

        monkeypatch.setattr(gnslab.cli, "cmd_scaling", exhausted)
        code = main(["scaling", "--preset", "single-mode", "--lambda", "2"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, "", "error: out of memory\n")

    def test_non_dyadic_factor(self, capsys):
        assert main(["scaling", "--preset", "single-mode", "--lambda", "3"]) == 1

    @pytest.mark.parametrize("tol", ["nan", "inf", "-0.5"])
    def test_tolerance_it_cannot_judge_rejected(self, capsys, tol):
        code = main(["scaling", "--preset", "single-mode", "--lambda", "2", "--tolerance", tol])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: tolerance must be finite and >= 0, got {float(tol)}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("lam", ["0", "-2", "nan", "inf"])
    def test_non_positive_or_non_finite_factor_rejected(self, capsys, lam):
        code = main(["scaling", "--preset", "single-mode", "--lambda", lam])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "power of 2" in err
        assert "Traceback" not in err


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

    @pytest.mark.parametrize("n, N, ncomp, payload, message", [
        (3, 2**30, 3, 0, "the header implies"),
        (2, 2**20, 2, 0, "the header implies"),
        (2, 8, 2, 2 * 64 * 16 - 16, "payload of 2032 bytes, the header implies 2048"),
        (2, 8, 2, 2 * 64 * 16 + 1, "payload of 2049 bytes, the header implies 2048"),
        (2, 8, 3, 3 * 64 * 16, "component count must be 1 or 2"),
        (2, 12, 1, 144 * 16, "N must be a power of two"),
    ], ids=["3d-huge", "2d-huge", "short", "trailing-byte", "ncomp", "grid"])
    def test_bad_field_file_is_named(self, capsys, tmp_path, n, N, ncomp, payload, message):
        # the sizes in the header are checked against the file before anything
        # is allocated; the payload is zeros, the spectrum of a real field
        path = tmp_path / "bad.gnsf"
        path.write_bytes(struct.pack("<4sIIIId", b"GNSF", 1, n, N, ncomp, TWO_PI) + bytes(payload))
        code = main(["norms", "--field", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "bad.gnsf" in err and message in err
        assert "Traceback" not in err

    def test_non_real_field_file_rejected(self, capsys, tmp_path):
        grid = Grid(2, 64, TWO_PI)
        path = tmp_path / "complex.gnsf"
        write_field(SpectralField.zeros(grid, 2), path)
        raw = bytearray(path.read_bytes())
        # the imaginary part of mode (1, 3) of component 0, whose mirror keeps 0
        offset = 28 + (1 * 64 + 3) * 16 + 8
        raw[offset : offset + 8] = struct.pack("<d", 1.0)
        path.write_bytes(bytes(raw))
        code = main(["norms", "--field", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "complex.gnsf" in err and "not real-valued" in err

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


class TestUnwritableOutput:
    # each run ends in one error line and exit 1, not a traceback; verify
    # fails before it samples, solve before it writes a report file
    @pytest.mark.parametrize("argv, blocker", [
        (["verify", "--ineq", "SEMI", "--samples", "2", "--out", "{blocker}"], "blocker"),
        (["verify", "--ineq", "SEMI", "--samples", "2", "--out", "{blocker}/x"], "blocker"),
        (["solve", "--preset", "zero-data", "--save-fields", "--output", "{run}"], "run/fields"),
    ])
    def test_bad_output_path_is_an_error_line(self, capsys, tmp_path, argv, blocker):
        (tmp_path / blocker).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / blocker).write_text("")
        names = {"blocker": tmp_path / "blocker", "run": tmp_path / "run"}
        assert main([arg.format(**names) for arg in argv]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not (tmp_path / "run" / "norms.csv").exists()

    # a report file that cannot be written, after the solve, ends the same way
    @pytest.mark.parametrize("blocker", ["norms.csv", "diagnostics.json", "fields/u_0000.gnsf"])
    def test_report_path_that_is_a_directory_is_an_error_line(self, capsys, tmp_path, blocker):
        (tmp_path / "run" / blocker).mkdir(parents=True)
        argv = ["solve", "--preset", "zero-data", "--save-fields", "--output", str(tmp_path / "run")]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        # the staging directory of the pressure gradients goes with the failed write
        assert not [p for p in (tmp_path / "run").rglob("*") if p.name.startswith(".gradpi-")]


# stdout of `python -m gnslab` for these argument lists, recorded before the
# exponent report was formed from HypothesisSet's fields and before the
# scaling check streamed the Duhamel kernel; a hypotheses report lists the
# record's fields in declaration order, so reordering them fails here too
_GOLDEN = {
    ("hypotheses", "--preset", "worked-h0"): (
        '{"valid": true, "label": "H0", "m": 1.0, "n": 3, "p": 2.0, "p0": 1.5, "rho": 4.0, '
        '"r": 2.0, "alpha": 1.0, "s": -1.0, "s_tilde": -0.5, "rho_tilde": 2.0, "s0": 1.0, '
        '"margins": {"α < 1 + n/(2p)": 0.75, "2α/ρ > 2α − 1 − n/(2p)": 0.25, '
        '"2α/ρ < 2α − 1": 0.5}, "window": {"lower": 0.5, "upper": 1.5, "equality_defect": 0.0}}\n'
    ),
    ("hypotheses", "--preset", "worked-h1"): (
        '{"valid": true, "label": "H1", "m": 1.5, "n": 3, "p": 3.0, "p0": 2.3333333333333335, '
        '"rho": 7.0, "r": 2.0, "alpha": 1.0, "s": -1.3809523809523809, '
        '"s_tilde": -0.95238095238095233, "rho_tilde": 2.7999999999999998, '
        '"s0": 0.61904761904761896, "margins": {"p > max{(m−1)n/(3−m), (4−m)/(3−m)}": '
        '1.3333333333333333, "p < n/(m−1)": 3.0, "α > 1/2 + m(2−m)n/(2(3−m)p)": 0.25, '
        '"α < (m+1)/2 + mn/(2p)": 1.0, "2α/ρ > (2α−1)/m − n/((m+1)p)": 0.019047619047619091, '
        '"2α/ρ < (2α−1)/m − (2−m)n/((3−m)p)": 0.047619047619047616}, '
        '"window": {"lower": 0.28571428571428559, "upper": 1.7142857142857144, '
        '"equality_defect": 0.0}}\n'
    ),
    ("hypotheses", "--preset", "worked-h2"): (
        '{"valid": true, "label": "H2", "m": 2.0, "n": 3, "p": 3.0, "p0": 2.25, "rho": 6.0, '
        '"r": 2.0, "alpha": 1.0, "s": -1.1666666666666667, "s_tilde": -0.50000000000000011, '
        '"rho_tilde": 2.0, "s0": 0.83333333333333326, "margins": {"p ≥ n": 0.0, "p < 2n": 3.0, '
        '"α < 1/2 + mn/p": 1.5, "2α/ρ > (2α−1)/m + (1−2n/p)/(m+1)": 0.16666666666666663, '
        '"2α/ρ < (2α−1)/m": 0.16666666666666669}, "window": {"lower": 0.33333333333333304, '
        '"upper": 1.666666666666667, "equality_defect": 4.4408920985006262e-16}}\n'
    ),
    ("scaling", "--preset", "single-mode", "--lambda", "2"): (
        '{"lambda": 2.0, "initial_ratio": 1.0, "temporal_ratio": 0.99999999999999989, '
        '"tolerance": 0.02, "within_tolerance": true}\n'
    ),
}


def test_cli_import_leaves_the_thread_pool_and_csv_modules_unloaded():
    # both are imported where they are used: pmap's threaded branch and the CSV reader
    src = str(Path(gnslab.__file__).resolve().parents[1])
    probe = "import sys, gnslab.cli; print(sorted({'concurrent.futures', 'csv'} & set(sys.modules)))"
    run = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stderr, run.stdout) == (0, "", "[]\n")


@pytest.mark.parametrize("argv", list(_GOLDEN), ids=" ".join)
def test_module_entry_point_prints_the_recorded_report(argv):
    src = str(Path(gnslab.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-m", "gnslab", *argv],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True, timeout=120)
    assert (run.returncode, run.stderr) == (0, b"")
    assert run.stdout.decode("utf-8") == _GOLDEN[argv]


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

    def test_equal_grids_in_one_process_write_what_fresh_processes_write(self, capsys, tmp_path):
        # the box sides differ by 1e-15 relative, so the grids compare and
        # hash equal; the second solve must still read its own grid's tables
        src = str(Path(gnslab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        for i, L in enumerate((TWO_PI, TWO_PI * (1.0 + 1e-15))):
            run = tmp_path / str(i)
            run.mkdir()
            cfg = _solve_config(run, grid={"n": 2, "N": 64, "L": L}, time_nodes=4,
                                data={"type": "random", "sigma": 1.0, "amplitude": 1e-3},
                                residual_threshold=1.0)
            argv = ["solve", str(cfg), "--save-fields", "--output"]
            assert main(argv + [str(run / "in")]) == 0
            fresh = subprocess.run([sys.executable, "-m", "gnslab"] + argv + [str(run / "fresh")],
                                   env=env, capture_output=True, timeout=300)
            assert fresh.returncode == 0, fresh.stderr
            assert capsys.readouterr().out.encode() == fresh.stdout
            written = {p.relative_to(run / "in"): p.read_bytes()
                       for p in (run / "in").rglob("*") if p.is_file()}
            assert len(written) == 2 + 2 * 4
            for rel, data in written.items():
                assert (run / "fresh" / rel).read_bytes() == data


# one main() call in a fresh process; its minor page faults go to stdout
_FAULT_PROBE = """
import resource, sys
from gnslab.cli import main
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
code = main(sys.argv[1:])
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print(code, after - before)
"""


class TestHeapPolicy:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the heap policy is set through glibc's mallopt")
    def test_fresh_solve_does_not_refault_its_node_temporaries(self, tmp_path):
        # with glibc's dynamic thresholds the heap top is trimmed and
        # regrown for every node's temporaries: about 24k faults a call
        # at 2-D N = 64, J = 128, against 1.4k with the thresholds pinned
        cfg = _solve_config(tmp_path, grid={"n": 2, "N": 64, "L": TWO_PI}, horizon=1e-3,
                            time_nodes=128, tolerance=1e-12, max_iterations=8, gate_abort=True,
                            data={"type": "random", "sigma": 1.0, "amplitude": 1e-3},
                            residual_threshold=None)
        src = str(Path(gnslab.__file__).resolve().parents[1])
        argv = ["solve", str(cfg), "--output", str(tmp_path / "out")]
        run = subprocess.run([sys.executable, "-c", _FAULT_PROBE] + argv,
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        code, faults = map(int, run.stdout.split()[-2:])
        assert code == 0
        assert faults < 6000
