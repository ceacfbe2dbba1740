"""The benchmark (perfbench/) still fits the package.

spans.py wraps fedsgm's functions by module attribute, and checks.py and
workload.py read names from the package namespace.  A refactor that renames,
stops calling or stops exporting one of them would otherwise break runs of
the benchmark without failing any test here.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# Runs a small simulate under the installed tracer and prints its call
# counts, sketch rows and span self times.
SCRIPT = """
import json, sys
from spans import Tracer
tracer = Tracer()
tracer.install()
from fedsgm.cli import main
code = main(["simulate", sys.argv[1], "--out-dir", sys.argv[2]])
print(json.dumps({"code": code, "calls": tracer.calls, "rows": tracer.sketch_rows,
                  "self_s": tracer.self_s}))
"""

# Every round of a sketched run passes through each of these spans.
ROUND_SPANS = (
    "fedsim.loop",
    "fedsim.streams",
    "fedsim.local_update",
    "mechanism.privatize",
    "sketch.generate",
    "sketch.apply",
    "sketch.desketch",
    "fedsim.server",
    "optim.step",
    "accountant.round_epsilon",
    "tasks.build",
    "tasks.client_grad",
    "tasks.eval",
)


def traced_simulate(tmp_path, d, b):
    """SCRIPT's report of a 3-round logreg run of dimension d, sketch size b."""
    config = {
        "task": {"kind": "logreg", "d": d, "n": 80},
        "federation": {"clients": 4, "clients_per_round": 2, "local_steps": 2, "rounds": 3,
                       "eta_local": 0.5, "eta_global": 0.1, "batch_size": 5},
        "mechanism": {"tau": 1.0, "sigma_g": 2.0},
        "sketch": {"mode": "gaussian", "b": b},
        "optimizer": {"kind": "amsgrad"},
        "accountant": {"delta": 1e-5},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(REPO_ROOT / "perfbench"), str(REPO_ROOT / "src")])}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(path), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr  # an AttributeError names the missing attribute
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["code"] == 0
    return report


def test_tracer_installs_and_sees_every_layer(tmp_path):
    report = traced_simulate(tmp_path, d=8, b=4)
    calls = report["calls"]
    missing = [name for name in ROUND_SPANS if calls.get(name, 0) == 0]
    assert missing == [], calls
    assert calls["fedsim.loop"] == 1
    # grad, loss and test_metric per window of rounds; a fused evaluation that
    # bypassed the wrapped attributes would drop the largest fed_dense layer
    # from the trace
    from fedsgm.tasks import make_logreg

    window = make_logreg(n=80, d=8, clients=4)[0].eval_window
    assert calls["tasks.eval"] == 3 * -(-3 // window)
    assert calls["sketch.generate"] == calls["sketch.apply"] == calls["sketch.desketch"] == 3
    assert report["rows"] == 3 * 4  # a kept sketch is generated once per round
    assert {name: s for name, s in report["self_s"].items() if s < 0} == {}


def test_tracer_on_the_draw_ahead_path(tmp_path):
    # b*d = 65536 draws rounds 1 and 2 on the worker thread, which opens no
    # span: a span opened there would corrupt the tracer's one span stack
    from fedsgm.fedsim import _AHEAD_MIN_ENTRIES

    assert 512 * 128 >= _AHEAD_MIN_ENTRIES
    report = traced_simulate(tmp_path, d=512, b=128)
    calls = report["calls"]
    assert calls["sketch.generate"] == calls["sketch.apply"] == calls["sketch.desketch"] == 3
    assert report["rows"] == 3 * 128
    assert {name: s for name, s in report["self_s"].items() if s < 0} == {}


# Runs one calibrate solve under the installed tracer and prints its call counts.
CALIBRATE_SCRIPT = """
import json
from spans import Tracer
tracer = Tracer()
tracer.install()
from fedsgm.cli import main
code = main(["calibrate", "--eps", "4.0", "--delta", "1e-5", "--q", "0.25", "--T", "100",
             "--tau", "1.0", "--b", "16", "--json"])
print(json.dumps({"code": code, "calls": tracer.calls}))
"""


def test_tracer_sees_the_calibrate_path():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(REPO_ROOT / "perfbench"), str(REPO_ROOT / "src")])}
    proc = subprocess.run(
        [sys.executable, "-c", CALIBRATE_SCRIPT], capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["code"] == 0
    calls = report["calls"]
    # an epsilon evaluation bound where the tracer cannot wrap it reads 0 here
    names = ("accountant.calibrate", "accountant.sgm_eval",
             "accountant.baseline_calibrate", "accountant.baseline_eval")
    assert [name for name in names if calls.get(name, 0) == 0] == [], calls
    assert calls["accountant.calibrate"] == calls["accountant.baseline_calibrate"] == 1


def test_benchmark_reads_only_names_the_package_exports():
    # each file's fedsgm.<name> reads, resolved after the fedsgm imports it
    # makes itself (checks.py gets the package from run.py's bare import)
    for name in ("checks.py", "workload.py"):
        tree = ast.parse((REPO_ROOT / "perfbench" / name).read_text())
        attrs = sorted({
            node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "fedsgm"
        })
        imports = sorted({
            alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names if alias.name.split(".")[0] == "fedsgm"
        } | {"fedsgm"})
        assert attrs, name
        script = "\n".join(
            [f"import {module}" for module in imports]
            + [f"print({attr!r}) if not hasattr(fedsgm, {attr!r}) else None" for attr in attrs]
        )
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [], f"{name} reads fedsgm.{proc.stdout.split()}"


def test_benchmark_bracket_tolerance_is_the_calibrations():
    # checks.py keeps its own copy of the calibrations' bisection tolerance
    # for its bracket check; a drift would make that check wrong silently
    from fedsgm.accountant import CALIBRATION_REL_TOL

    tree = ast.parse((REPO_ROOT / "perfbench" / "checks.py").read_text())
    values = [
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "REL_TOL" for t in node.targets)
    ]
    assert values == [CALIBRATION_REL_TOL]


# Prints the configs that run.py writes for the simulate workloads; run.py is
# imported in its own process because it sets BLAS thread variables in os.environ.
RUN_CONFIGS_SCRIPT = """
import json
import run
print(json.dumps({name: make(1) for name, make in run.FED_WORKLOADS.items()}))
"""


def test_benchmark_and_shipped_configs_load(tmp_path):
    # a schema change that rejects a benchmark config breaks every benchmark run
    from fedsgm.config import load_config

    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(REPO_ROOT / "perfbench"), str(REPO_ROOT / "src")])}
    proc = subprocess.run(
        [sys.executable, "-c", RUN_CONFIGS_SCRIPT], capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    configs = json.loads(proc.stdout)
    assert sorted(configs) == ["fed_dense", "fed_small"]
    paths = sorted((REPO_ROOT / "configs").glob("*.json"))
    assert len(paths) >= 2
    for name, cfg in configs.items():
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(cfg))
    for path in paths:
        load_config(str(path))


def test_calib_workload_smoke(tmp_path):
    # the benchmark's calib workload end to end, run from a directory whose
    # src links to this checkout, so perfbench_out/ is written under tmp_path
    (tmp_path / "src").symlink_to(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "perfbench" / "run.py"), "--workload", "calib",
         "--seed", "1", "--seconds", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    # ROADMAP item 1: the checks find 3 of the 10 solves unsound
    assert result["failed"] / result["attempted"] <= 0.3
    assert (tmp_path / "perfbench_out" / "calib" / "result.json").is_file()
