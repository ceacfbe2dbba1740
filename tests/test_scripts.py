"""Smoke tests: each script in scripts/ runs end to end on tiny arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    assert any(header in line for line in proc.stdout.splitlines()[:3]), proc.stdout
