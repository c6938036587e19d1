"""The quick demos run to completion against the source tree."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# 05 (the full inequality survey) takes several times longer than all of
# these together and stays out of the quick suite
QUICK = [
    "01_spectral_fields.py",
    "02_dyadic_norms.py",
    "03_time_weighted_norms.py",
    "04_exponent_window.py",
    "06_small_data_solve.py",
]


@pytest.mark.parametrize("script", QUICK)
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
