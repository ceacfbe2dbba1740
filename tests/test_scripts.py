"""Smoke tests: each script in scripts/ runs end to end on tiny arguments.

The convergence script's epsilon ledger is also checked against its calibration.
"""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fedsgm.accountant import CALIBRATION_REL_TOL

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args, header",
    [
        ("privacy_tables.py", ["--eps", "1.6", "--T", "50"], "sigma_g (sketched)"),
        ("sketch_dim_sweep.py", ["--T", "50", "--b", "4000"], "sigma_g"),
        (
            "convergence_experiment.py",
            ["--rounds", "5", "--d", "20", "--b", "5"],
            "final loss",
        ),
    ],
)
def test_script_runs(tmp_path, script, args, header):
    proc = _run_script(tmp_path, script, args)
    assert any(header in line for line in proc.stdout.splitlines()[:3]), proc.stdout


def _run_script(tmp_path, script, args):
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        cwd=tmp_path,  # output files land under tmp_path
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_convergence_ledger_uses_the_calibration_delta(tmp_path):
    # sigma_g is calibrated to eps = 8 at delta = 1e-6; the CSV's epsilon
    # must be accounted at that delta too, not at FedConfig's default
    eps = 8.0
    _run_script(tmp_path, "convergence_experiment.py",
                ["--eps", str(eps), "--delta", "1e-6", "--rounds", "20", "--d", "20", "--b", "5"])
    with open(tmp_path / "runs" / "convergence-gd.csv") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    final = float(rows[-1][rows[0].index("epsilon_spent")])
    assert eps * (1 - CALIBRATION_REL_TOL) <= final <= eps
