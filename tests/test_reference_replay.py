"""The benchmark's stored references, replayed in-process at seed 0.

Each perfbench workload turns seed 0 into one `gns` argument list; the
call must pass the workload's own checks against perfbench/reference.json,
the values the benchmark holds every change to.  perfbench/ is only read.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from gnslab.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_0_matches_the_stored_reference(capsys, tmp_path, name):
    workload = WORKLOADS[name]
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    argv = workload.prepare(0, str(tmp_path / "inputs"))
    out_dir = tmp_path / "out"
    if workload.kind == "solve":
        argv += ["--output", str(out_dir)]
    rc = main(argv)
    outputs = workload.outputs(capsys.readouterr().out, str(out_dir))
    seed_ref = reference["workloads"][name]["seeds"]["0"]
    assert workload.check(rc, outputs, seed_ref) == []
