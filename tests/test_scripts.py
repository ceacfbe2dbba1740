"""Smoke tests: each script in scripts/ runs end to end on tiny arguments.

The calibration table is checked against the accountant, the convergence
script's epsilon ledger against its calibration, and the README's Scripts
block and this file against the files in scripts/.
"""

import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fedsgm.accountant import (
    CALIBRATION_REL_TOL,
    DpPoint,
    calibrate_baseline_sigma,
    calibrate_sgm_sigma,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


SMOKE_CASES = [
    ("privacy_tables.py", ["--eps", "1.6", "--T", "50"], "sigma_g (sketched)"),
    ("privacy_tables.py", ["--T", "50", "--b", "4000", "40000"], "sigma_g (sketched)"),
    (
        "convergence_experiment.py",
        ["--rounds", "5", "--d", "20", "--b", "5"],
        "final loss",
    ),
]


@pytest.mark.parametrize("script, args, header", SMOKE_CASES)
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


def test_convergence_refuses_a_dimension_past_the_dense_hessian(tmp_path):
    # refused right after parsing, by flag, before a task is built or sigma_g solved
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "convergence_experiment.py"),
         "--d", "600", "--rounds", "2"],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: --d = 600 > 500: the intrinsic dimension needs the dense Hessian\n"
    assert list(tmp_path.iterdir()) == []


REFUSALS = [
    ("convergence_experiment.py", ["--b", "0", "--d", "20"], 1, "error: sketch.b must be >= 1, got 0"),
    ("convergence_experiment.py", ["--eps", "0", "--d", "20"], 2,
     "infeasible: target epsilon must be positive and finite, got 0.0"),
    ("privacy_tables.py", ["--T", "0"], 1, "error: T must be >= 1, got 0"),
    ("privacy_tables.py", ["--eps", "0"], 2,
     "infeasible: target epsilon must be positive and finite, got 0.0"),
]


@pytest.mark.parametrize("script, args, code, line", REFUSALS)
def test_scripts_end_a_refused_value_as_the_cli_does(tmp_path, script, args, code, line):
    # one error: line and exit 1, or one infeasible: line and exit 2, not a traceback
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / script), *args],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120,
    )
    assert proc.returncode == code
    assert proc.stderr == line + "\n"


def test_privacy_tables_rows_are_the_calibrations(tmp_path):
    # one row per (eps, b), each to the 4 decimals the accountant gives
    eps_values, b_values, q, T, tau = (1.6, 0.42), (4000, 400_000), 0.01, 50, 2.0
    proc = _run_script(tmp_path, "privacy_tables.py",
                       ["--eps", *map(str, eps_values), "--b", *map(str, b_values),
                        "--q", str(q), "--T", str(T), "--tau", str(tau)])
    rows = [line.split() for line in proc.stdout.splitlines()[2:]]
    expected = []
    for eps in eps_values:
        target = DpPoint(eps, 1e-5)
        baseline = calibrate_baseline_sigma(target, q=q, T=T) * tau
        for b in b_values:
            sigma = calibrate_sgm_sigma(target, q=q, T=T, tau=tau, b=b)
            expected.append([f"{eps:.2f}", str(b), f"{sigma:.4f}", f"{baseline:.4f}",
                             f"{sigma / baseline:.4f}"])
    assert rows == expected


def test_readme_and_smoke_tests_name_every_script():
    scripts = {p.name for p in (REPO_ROOT / "scripts").glob("*.py")}
    readme = (REPO_ROOT / "README.md").read_text()
    block = readme.split("## Scripts", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    assert set(re.findall(r"scripts/(\w+\.py)", block)) == scripts
    assert {script for script, _, _ in SMOKE_CASES} == scripts
