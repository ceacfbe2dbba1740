"""Run-config validation and the command-line front end.

The exit-code contract is load-bearing for shell scripts wrapping the
CLI: 0 success, 1 usage/configuration mistakes, 2 privacy-infeasible or
out-of-regime requests.  Numeric outputs are checked against the same
frozen oracles used in test_accountant.
"""

import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from fedsgm.accountant import DpPoint, calibrate_sgm_sigma
from fedsgm.cli import build_parser, main
from fedsgm.config import build_fed_config, build_task, load_config, validate_config
from fedsgm.errors import ConfigurationError


def small_config(**over):
    """A fast quadratic run: 4 clients, 3 rounds, d = 8, b = 4."""
    raw = {
        "task": {"kind": "quadratic", "d": 8, "seed": 3, "heterogeneity": 0.3},
        "federation": {
            "clients": 4,
            "clients_per_round": 2,
            "local_steps": 2,
            "rounds": 3,
            "eta_local": 0.1,
            "eta_global": 0.5,
            "master_seed": 11,
        },
        # r = 2 tau^2 / (b sigma_g^2) = 0.617 < 1, so epsilon stays finite
        "mechanism": {"tau": 1.0, "sigma_g": 0.9, "noise_seed": 5},
        "sketch": {"mode": "gaussian", "b": 4},
        "accountant": {"delta": 1e-5},
    }
    for section, kv in over.items():
        raw.setdefault(section, {}).update(kv)
    return raw


def write_config(tmp_path, raw, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


# 4/625 participation, 500 rounds: the image-classification accounting setup
VISION_ARGS = ["--delta", "1e-5", "--q", "0.0064", "--T", "500", "--tau", "1.0", "--b", "400000"]


# ---------------------------------------------------------------------------
# schema validation
# ---------------------------------------------------------------------------


def test_validate_fills_defaults():
    cfg = validate_config(small_config())
    assert cfg["optimizer"]["kind"] == "gd"
    assert cfg["optimizer"]["beta1"] == 0.9
    assert cfg["task"]["spectrum"] == "power_law"
    assert cfg["federation"]["batch_size"] == 1
    assert cfg["output"] == {"dir": ".", "prefix": "run"}


def test_unknown_section_rejected():
    raw = small_config()
    raw["privacy"] = {"epsilon": 1.0}
    with pytest.raises(ConfigurationError, match="unknown config section"):
        validate_config(raw)


def test_unknown_key_reported_with_dotted_path():
    raw = small_config(task={"dd": 3})
    with pytest.raises(ConfigurationError, match=r"task\.dd"):
        validate_config(raw)


def test_missing_required_section():
    raw = small_config()
    del raw["accountant"]
    with pytest.raises(ConfigurationError, match="missing required section"):
        validate_config(raw)


def test_missing_required_key():
    raw = small_config()
    del raw["mechanism"]["tau"]
    with pytest.raises(ConfigurationError, match=r"mechanism\.tau"):
        validate_config(raw)


def test_nan_rejected():
    raw = small_config(mechanism={"tau": float("nan")})
    with pytest.raises(ConfigurationError, match="NaN"):
        validate_config(raw)
    # infinities are rejected too, naming the field ...
    for section, key in (
        ("task", "center_scale"),
        ("task", "heterogeneity"),
        ("optimizer", "eps"),
        ("accountant", "delta"),
        ("mechanism", "sigma_g"),
    ):
        with pytest.raises(ConfigurationError, match=f"{section}.{key} must be finite"):
            validate_config(small_config(**{section: {key: math.inf}}))
    # ... except tau, where inf is the documented "clipping off"
    assert validate_config(small_config(mechanism={"tau": math.inf}))["mechanism"]["tau"] == math.inf


def test_bool_is_not_a_number():
    # JSON true would silently satisfy isinstance(..., int) without this check
    raw = small_config(mechanism={"tau": True})
    with pytest.raises(ConfigurationError, match="expected number"):
        validate_config(raw)


def test_bad_enum_choice():
    raw = small_config(task={"kind": "mlp"})
    with pytest.raises(ConfigurationError, match="not in"):
        validate_config(raw)


def test_fractional_integer_rejected():
    raw = small_config(federation={"rounds": 2.5})
    with pytest.raises(ConfigurationError, match="expected integer"):
        validate_config(raw)


def test_top_level_must_be_object():
    with pytest.raises(ConfigurationError, match="JSON object"):
        validate_config([1, 2, 3])


@pytest.mark.parametrize(
    "over, fragment",
    [
        ({"task": {"kind": "logreg"}}, "task.n is required"),
        ({"sketch": {"b": None}}, "sketch.b is required"),
        ({"mechanism": {"sigma_g": "calibrate"}}, "target_epsilon"),
        ({"mechanism": {"tau": 0.0}}, "must be positive"),
        ({"mechanism": {"sigma_g": -0.5}}, ">= 0"),
    ],
)
def test_cross_validation_errors(over, fragment):
    with pytest.raises(ConfigurationError, match=re.escape(fragment)):
        validate_config(small_config(**over))


@pytest.mark.parametrize(
    "section, key",
    [
        ("task", "d"),
        ("federation", "clients"),
        ("federation", "rounds"),
        ("federation", "eta_local"),
        ("mechanism", "tau"),
        ("mechanism", "sigma_g"),
        ("accountant", "delta"),
    ],
)
def test_null_is_rejected_with_the_key(tmp_path, capsys, section, key):
    path = write_config(tmp_path, small_config(**{section: {key: None}}))
    assert main(["diagnose", path]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{section}.{key}: null is not a valid value" in err


def test_null_means_absent_on_optional_keys():
    cfg = validate_config(small_config(task={"n": None}, accountant={"target_epsilon": None}))
    assert cfg["task"]["n"] is None and cfg["accountant"]["target_epsilon"] is None


def test_sigma_g_rejects_unknown_strings():
    raw = small_config(mechanism={"sigma_g": "auto"})
    with pytest.raises(ConfigurationError, match="calibrate"):
        validate_config(raw)


def test_load_config_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"task": }')
    with pytest.raises(ConfigurationError, match=r"broken\.json:1:"):
        load_config(str(path))


def test_load_config_missing_file():
    with pytest.raises(ConfigurationError, match="not found"):
        load_config("/nonexistent/run.json")


# ---------------------------------------------------------------------------
# overrides
# ---------------------------------------------------------------------------


def test_overrides_apply_with_native_types(tmp_path):
    path = write_config(tmp_path, small_config())
    cfg = load_config(path, ["federation.rounds=5", "mechanism.sigma_g=0.7", "output.prefix=alt"])
    assert cfg["federation"]["rounds"] == 5
    assert isinstance(cfg["federation"]["rounds"], int)
    assert cfg["mechanism"]["sigma_g"] == 0.7
    assert cfg["output"]["prefix"] == "alt"


def test_override_can_add_optional_section(tmp_path):
    raw = small_config(mechanism={"sigma_g": 0.0})
    del raw["sketch"]
    path = write_config(tmp_path, raw)
    cfg = load_config(path, ["sketch.b=4"])
    assert cfg["sketch"] == {"mode": "gaussian", "b": 4}


@pytest.mark.parametrize(
    "override, fragment",
    [
        ("federation.rounds", "section.key=value"),
        ("rounds=5", "section.key"),
        ("federation.bogus=1", "unknown override target"),
        ("federation.rounds=abc", "expected integer"),
    ],
)
def test_malformed_overrides(tmp_path, override, fragment):
    path = write_config(tmp_path, small_config())
    with pytest.raises(ConfigurationError, match=re.escape(fragment)):
        load_config(path, [override])


# ---------------------------------------------------------------------------
# config -> objects
# ---------------------------------------------------------------------------


def test_build_task_quadratic_shape():
    cfg = validate_config(small_config())
    task, partition = build_task(cfg)
    assert task.d == 8
    assert partition.num_clients == 4


def test_resolve_sigma_g_passthrough_and_calibration():
    explicit = validate_config(small_config())
    assert build_fed_config(explicit).mechanism.sigma_g == 0.9

    cfg = validate_config(
        small_config(
            mechanism={"sigma_g": "calibrate"},
            accountant={"target_epsilon": 2.0},
        )
    )
    sigma = build_fed_config(cfg).mechanism.sigma_g
    expected = calibrate_sgm_sigma(DpPoint(2.0, 1e-5), q=0.5, T=3, tau=1.0, b=4)
    assert sigma == expected
    assert math.isfinite(sigma) and sigma > 0


# ---------------------------------------------------------------------------
# accounting commands
# ---------------------------------------------------------------------------


def test_cli_calibrate_json_record(capsys):
    rc = main(["calibrate", "--eps", "1.60", *VISION_ARGS, "--json"])
    record = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert record["sigma_g"] == pytest.approx(0.10254222328800336, rel=1e-6)
    assert record["achieved_epsilon"] <= 1.60
    # sketching beats the unsketched Gaussian baseline on noise scale
    assert record["noise_ratio"] < 1.0
    assert record["baseline_noise_std"] > record["sigma_g"]


def test_cli_calibrate_human_readable(capsys):
    rc = main(["calibrate", "--eps", "1.0", *VISION_ARGS])
    out = capsys.readouterr().out
    assert rc == 0
    assert "sigma_g" in out
    assert "noise ratio" in out


def test_cli_calibrate_infeasible_target_exits_2(capsys):
    rc = main(["calibrate", "--eps", "0.0", *VISION_ARGS])
    assert rc == 2
    assert "infeasible" in capsys.readouterr().err


@pytest.mark.parametrize("eps", ["0", "nan", "inf", "1e309"])
def test_cli_calibrate_non_finite_or_zero_target_exits_2(capsys, eps):
    # an infinite target used to print the regime floor as sigma_g and a
    # non-JSON "Infinity" record
    rc = main(["calibrate", "--eps", eps, "--delta", "1e-5", "--q", "0.25", "--T", "100",
               "--tau", "1", "--b", "16", "--json"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err.startswith("infeasible: target epsilon must be positive and finite, got ")


def test_cli_calibrate_huge_tau(capsys):
    args = ["--eps", "4", "--delta", "1e-5", "--q", "0.25", "--T", "100", "--b", "16", "--json"]
    assert main(["calibrate", *args, "--tau", "1e300"]) == 0
    assert json.loads(capsys.readouterr().out)["sigma_g"] == 2.7788813126855115e300
    # sigma_g would be 2.78e308: refused, never printed as inf
    assert main(["calibrate", *args, "--tau", "1e308"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("infeasible: no sigma_g up to inf meets eps=4.0")


@pytest.mark.parametrize("b", ["0", "-5"])
def test_cli_calibrate_bad_sketch_dim_exits_1(capsys, b):
    rc = main(["calibrate", "--eps", "1", "--delta", "1e-5", "--q", "0.1", "--T", "10",
               "--tau", "1", "--b", b])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"b must be >= 1, got {b}" in err


def test_cli_calibrate_infinite_tau_exits_2(capsys):
    rc = main(["calibrate", "--eps", "1", "--delta", "1e-5", "--q", "0.1", "--T", "10",
               "--tau", "inf", "--b", "4"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "infeasible" in err and "regime" in err


def test_simulate_calibrated_with_zero_sketch_dim_exits_1(tmp_path, capsys):
    # sigma_g = "calibrate" runs the solver before anything checks sketch.b
    rc = main(["simulate", str(Path(__file__).resolve().parent.parent / "configs" / "quadratic.json"),
               "--override", "sketch.b=0", "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "b must be >= 1, got 0" in err
    assert list(tmp_path.iterdir()) == []


def test_cli_accountant_trace(capsys):
    rc = main(["accountant", "--sigma", "0.1013", *VISION_ARGS, "--json"])
    record = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert record["regime_ok"] is True
    assert record["alpha_star"] > 1.0
    assert record["epsilon"] == pytest.approx(1.6738158143034478, rel=1e-12)
    assert record["delta"] == pytest.approx(1e-5, rel=1e-12)
    assert [s["stage"] for s in record["pipeline_trace"]] == ["release", "subsampled", "composed"]
    # composed stage is the headline number
    assert record["pipeline_trace"][-1]["epsilon"] == record["epsilon"]


def test_cli_accountant_text_trace(capsys):
    rc = main(["accountant", "--sigma", "0.1013", *VISION_ARGS])
    out = capsys.readouterr().out
    assert rc == 0
    assert "alpha*" in out
    for stage in ("release", "subsampled", "composed"):
        assert stage in out


def test_cli_accountant_sigma_zero_is_nonprivate_ablation(capsys):
    rc = main(["accountant", "--sigma", "0.0", *VISION_ARGS])
    assert rc == 0
    assert "non-private ablation" in capsys.readouterr().out

    rc = main(["accountant", "--sigma", "0.0", *VISION_ARGS, "--json"])
    record = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert record["epsilon"] == "inf"
    assert record["alpha_star"] is None
    assert record["regime_ok"] is False
    assert record["pipeline_trace"] == []


def test_cli_accountant_regime_violation_exits_2(capsys):
    # 2 tau^2 / (b sigma^2) = 20 >= 1: the ratio-sensitivity analysis breaks
    rc = main(
        ["accountant", "--sigma", "0.1", "--delta", "1e-5", "--q", "0.1",
         "--T", "10", "--tau", "1.0", "--b", "10"]
    )
    assert rc == 2
    assert "infeasible" in capsys.readouterr().err


def test_cli_accountant_baseline(capsys):
    rc = main(["accountant", "--mechanism", "baseline", "--sigma", "1.0", *VISION_ARGS, "--json"])
    record = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert record["mechanism"] == "baseline"
    assert "sampled-gaussian" in record["method"]
    assert record["epsilon"] == pytest.approx(1.6320274630619949, rel=1e-12)


@pytest.mark.parametrize("q", ["1", "0.0064"])
def test_cli_accountant_baseline_nan_sigma_exits_1(capsys, q):
    args = ["--delta", "1e-5", "--q", q, "--T", "500", "--tau", "1", "--b", "400000"]
    assert main(["accountant", "--mechanism", "baseline", "--sigma", "nan", *args]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "sigma must be positive, got nan" in err


def test_cli_accountant_prints_alpha_star_in_six_significant_digits(capsys):
    assert main(["accountant", "--sigma", "1e75", *VISION_ARGS]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "alpha* = 2.31251e+153"
    assert main(["accountant", "--sigma", "0.2265", *VISION_ARGS]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "alpha* = 119.641"


@pytest.mark.parametrize(
    "sigma, tau",
    [("1e75", "1"), ("3e75", "1"), ("1e76", "1"), ("1e80", "1"), ("1", "1e-160")],
)
def test_cli_accountant_answers_where_the_closed_form_leaves_the_float_range(capsys, sigma, tau):
    # A = tau^4/(b sigma^4) underflows, makes log(1/delta0)/A overflow, or
    # sigma^4 itself overflows; the chain reports the limit eps -> 0
    args = ["--delta", "1e-5", "--q", "0.0064", "--T", "500", "--tau", tau, "--b", "400000"]
    assert main(["accountant", "--sigma", sigma, *args]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert re.search(r"composed +eps = 0 ", out)


def test_cli_missing_argument_exits_1(capsys):
    rc = main(["calibrate", "--eps", "1.0"])
    assert rc == 1
    assert "usage error" in capsys.readouterr().err


def test_cli_unknown_command_exits_1(capsys):
    rc = main(["frobnicate"])
    assert rc == 1
    assert "usage error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_writes_csv_and_manifest(tmp_path, capsys):
    out_dir = tmp_path / "out"
    path = write_config(tmp_path, small_config(output={"dir": str(out_dir), "prefix": "demo"}))
    rc = main(["simulate", path])
    out = capsys.readouterr().out
    assert rc == 0
    assert "final round 2" in out

    csv_path = out_dir / "demo.csv"
    manifest_path = out_dir / "demo-manifest.json"
    assert csv_path.exists() and manifest_path.exists()
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "# fed-sgm csv v1"
    assert lines[1].startswith("round,")
    assert len(lines) == 2 + 3  # header, columns, one row per round

    manifest = json.loads(manifest_path.read_text())
    mech = manifest["config"]["mechanism"]
    assert mech["sigma_g"] == 0.9
    assert mech["sigma_g_resolved"] == 0.9
    meta = manifest["accountant"]
    assert meta["q"] == 0.5
    assert meta["b_effective"] == 4
    assert math.isfinite(meta["epsilon_total"]) or isinstance(meta["epsilon_total"], str)


def test_simulate_rerun_is_byte_identical(tmp_path, capsys):
    out_dir = tmp_path / "out"
    path = write_config(tmp_path, small_config(output={"dir": str(out_dir), "prefix": "rerun"}))
    assert main(["simulate", path]) == 0
    first_csv = (out_dir / "rerun.csv").read_bytes()
    first_manifest = (out_dir / "rerun-manifest.json").read_bytes()

    assert main(["simulate", path]) == 0
    capsys.readouterr()
    assert (out_dir / "rerun.csv").read_bytes() == first_csv
    assert (out_dir / "rerun-manifest.json").read_bytes() == first_manifest


def test_simulate_rerun_bytes_do_not_depend_on_blas_threads(tmp_path):
    # d = 2000: the round's sketch product R @ [deltas] is summed over
    # 256-column pieces; as one GEMM of this shape it splits differently
    # between one and two threads and changes bits from round 0 on
    raw = small_config(
        task={"kind": "logreg", "d": 2000, "n": 400, "seed": 1},
        federation={"clients": 40, "clients_per_round": 20, "rounds": 2, "batch_size": 10,
                    "eta_local": 0.5},
        mechanism={"tau": 1.0, "sigma_g": 0.5, "noise_seed": 1},
        sketch={"b": 100},
    )
    path = write_config(tmp_path, raw)
    outputs = []
    for threads in ("1", "2"):
        out_dir = tmp_path / f"threads-{threads}"
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"), "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        subprocess.run([sys.executable, "-m", "fedsgm.cli", "simulate", path, "--out-dir",
                        str(out_dir)], env=env, capture_output=True, text=True, check=True)
        outputs.append((out_dir / "run.csv").read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("key", ["federation.master_seed", "mechanism.noise_seed", "task.seed"])
def test_simulate_negative_seed_exits_1(tmp_path, capsys, key):
    # a negative seed is named by its key, not raised from deep in the run
    out_dir = tmp_path / "out"
    rc = main(["simulate", str(REPO_ROOT / "configs" / "quadratic.json"),
               "--override", f"{key}=-1", "--out-dir", str(out_dir)])
    assert rc == 1
    assert f"{key} must be >= 0, got -1" in capsys.readouterr().err
    assert not out_dir.exists()


def test_simulate_override_recorded_in_manifest(tmp_path, capsys):
    path = write_config(tmp_path, small_config())
    rc = main(["simulate", path, "--override", "mechanism.sigma_g=0.8", "--out-dir", str(tmp_path / "o")])
    capsys.readouterr()
    assert rc == 0
    manifest = json.loads((tmp_path / "o" / "run-manifest.json").read_text())
    assert manifest["config"]["mechanism"]["sigma_g"] == 0.8
    assert manifest["config"]["mechanism"]["sigma_g_resolved"] == 0.8
    assert manifest["accountant"]["sigma_g"] == 0.8


def test_reused_parser_carries_nothing_between_calls(tmp_path, capsys):
    # main builds its parser once per process; an override or an option of
    # one call must not leak into the next
    assert build_parser() is build_parser()
    path = write_config(tmp_path, small_config())
    assert main(["simulate", path, "--override", "federation.rounds=2",
                 "--out-dir", str(tmp_path / "a")]) == 0
    assert main(["simulate", path, "--out-dir", str(tmp_path / "b")]) == 0
    first, second = (json.loads((tmp_path / d / "run-manifest.json").read_text()) for d in "ab")
    assert first["accountant"]["rounds"] == 2
    assert second["accountant"]["rounds"] == 3
    assert second["config"]["federation"]["rounds"] == 3
    capsys.readouterr()
    assert main(["accountant", "--mechanism", "baseline", "--sigma", "1.0", *VISION_ARGS,
                 "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["mechanism"] == "baseline"
    assert main(["accountant", "--sigma", "1.0", *VISION_ARGS, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["mechanism"] == "sgm"


def test_simulate_calibrated_sigma_recorded(tmp_path, capsys):
    raw = small_config(
        mechanism={"sigma_g": "calibrate"},
        accountant={"target_epsilon": 2.0},
        output={"dir": str(tmp_path / "cal"), "prefix": "run"},
    )
    path = write_config(tmp_path, raw)
    rc = main(["simulate", path])
    capsys.readouterr()
    assert rc == 0
    manifest = json.loads((tmp_path / "cal" / "run-manifest.json").read_text())
    expected = calibrate_sgm_sigma(DpPoint(2.0, 1e-5), q=0.5, T=3, tau=1.0, b=4)
    assert manifest["config"]["mechanism"]["sigma_g_resolved"] == expected
    assert manifest["config"]["mechanism"]["sigma_g"] == "calibrate"


def test_simulate_infeasible_calibration_exits_2(tmp_path, capsys):
    raw = small_config(
        mechanism={"sigma_g": "calibrate"},
        accountant={"target_epsilon": 0.0},
    )
    path = write_config(tmp_path, raw)
    rc = main(["simulate", path])
    assert rc == 2
    assert "infeasible" in capsys.readouterr().err


def test_simulate_bad_override_exits_1(tmp_path, capsys):
    path = write_config(tmp_path, small_config())
    rc = main(["simulate", path, "--override", "mechanism.bogus=1"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["eta_local", "eta_global"])
def test_simulate_non_finite_step_size_exits_1(tmp_path, capsys, name):
    out_dir = tmp_path / "out"
    path = write_config(tmp_path, small_config())
    rc = main(["simulate", path, "--override", f"federation.{name}=inf", "--out-dir", str(out_dir)])
    assert rc == 1
    assert f"{name} must be finite" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


def test_simulate_non_finite_iterate_exits_1(tmp_path, capsys):
    quadratic = str(REPO_ROOT / "configs" / "quadratic.json")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["simulate", quadratic, "--override", "federation.eta_global=1e200", "--out-dir", str(tmp_path)])
    assert rc == 1
    assert [str(w.message) for w in caught] == []  # no numpy overflow warning
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and re.match(r"error: the run diverged in round \d+", err[0])
    assert not list(tmp_path.iterdir())
    # large but finite growth is not an error
    rc = main(["simulate", quadratic, "--override", "federation.eta_global=1e6", "--out-dir", str(tmp_path)])
    capsys.readouterr()
    assert rc == 0


def test_simulate_tau_inf_turns_clipping_off(tmp_path, capsys):
    logreg = str(REPO_ROOT / "configs" / "logreg.json")
    with pytest.warns(UserWarning, match="epsilon = inf"):
        rc = main(["simulate", logreg, "--override", "mechanism.tau=inf", "--out-dir", str(tmp_path)])
    capsys.readouterr()
    assert rc == 0
    rows = (tmp_path / "logreg.csv").read_text().splitlines()[2:]
    assert all(row.split(",")[4] == "0.0" for row in rows)  # clip rate
    manifest = json.loads((tmp_path / "logreg-manifest.json").read_text())
    assert manifest["accountant"]["epsilon_total"] == "inf"


def test_simulate_missing_config_exits_1(capsys):
    rc = main(["simulate", "/nonexistent/run.json"])
    assert rc == 1
    assert "not found" in capsys.readouterr().err


def test_simulate_sigma_zero_ablation_recorded(tmp_path, capsys):
    # sigma_g = 0 is a legal non-private ablation: the run completes, warns,
    # and the manifest records the infinite budget.
    path = write_config(tmp_path, small_config())
    with pytest.warns(UserWarning, match="epsilon = inf"):
        rc = main(["simulate", path, "--override", "mechanism.sigma_g=0", "--out-dir", str(tmp_path / "z")])
    capsys.readouterr()
    assert rc == 0
    manifest = json.loads((tmp_path / "z" / "run-manifest.json").read_text())
    assert manifest["config"]["mechanism"]["sigma_g_resolved"] == 0.0
    assert manifest["accountant"]["epsilon_total"] == "inf"


@pytest.mark.parametrize("sigma", ["0.9", "calibrate", "0"])
def test_simulate_noisy_identity_mode_exits_1(tmp_path, capsys, sigma):
    # a run config always sketches: the unsketched release, noisy or not, is
    # reachable only from the library (FedConfig(sketch_b=None))
    path = write_config(tmp_path, small_config(accountant={"target_epsilon": 4.0}))
    overrides = ["--override", "sketch.mode=identity", "--override", f"mechanism.sigma_g={sigma}"]
    rc = main(["simulate", path, *overrides, "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert "sketch.mode: 'identity' not in ('gaussian',)" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


REPO_ROOT = Path(__file__).resolve().parent.parent


def test_readme_calibrate_example_matches_the_cli(capsys):
    # the README shows the command's stdout as the "# " lines right under it
    lines = (REPO_ROOT / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("fed-sgm calibrate "))
    shown = [line[2:] for line in itertools.takewhile(
        lambda line: line.startswith("# "), lines[start + 1:])]
    assert len(shown) == 3
    assert main(lines[start].split()[1:]) == 0
    assert capsys.readouterr().out.splitlines() == shown


def test_shipped_configs_validate():
    for name in ("quadratic.json", "logreg.json"):
        cfg = load_config(str(REPO_ROOT / "configs" / name))
        assert cfg["output"]["prefix"]


def test_shipped_quadratic_config_runs_fast(tmp_path, capsys):
    start = time.perf_counter()
    rc = main(["simulate", str(REPO_ROOT / "configs" / "quadratic.json"), "--out-dir", str(tmp_path)])
    capsys.readouterr()
    assert rc == 0
    assert time.perf_counter() - start < 60.0
    manifest = json.loads((tmp_path / "quadratic-manifest.json").read_text())
    # sigma_g was calibrated to the configured budget; the spend must respect it
    assert manifest["accountant"]["epsilon_total"] <= 4.0 + 1e-6


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_rows_per_value_and_aggregates(tmp_path, capsys):
    out_dir = tmp_path / "sw"
    path = write_config(tmp_path, small_config(output={"dir": str(out_dir), "prefix": "sweep"}))
    rc = main(["sweep", path, "--axis", "federation.eta_local", "--values", "0.05,0.1", "--reps", "2"])
    capsys.readouterr()
    assert rc == 0

    lines = (out_dir / "sweep-sweep.csv").read_text().splitlines()
    assert lines[0] == "# fed-sgm sweep csv v1"
    assert lines[1].split(",")[:4] == ["axis", "value", "rep", "master_seed"]
    rows = [ln.split(",") for ln in lines[2:]]
    # two values x (2 reps + mean + stderr)
    assert len(rows) == 2 * (2 + 2)
    assert all(r[0] == "federation.eta_local" for r in rows)
    assert [r[2] for r in rows[:4]] == ["0", "1", "mean", "stderr"]
    # rep seeds offset from the config's master seed
    assert [r[3] for r in rows[:2]] == ["11", "12"]
    # different eta_local values must produce different final losses
    assert rows[2][4] != rows[6][4]


def test_sweep_single_rep_has_zero_stderr(tmp_path, capsys):
    out_dir = tmp_path / "sw1"
    path = write_config(tmp_path, small_config(output={"dir": str(out_dir), "prefix": "s"}))
    rc = main(["sweep", path, "--axis", "mechanism.sigma_g", "--values", "0.9"])
    capsys.readouterr()
    assert rc == 0
    lines = (out_dir / "s-sweep.csv").read_text().splitlines()
    stderr_row = [ln for ln in lines if ",stderr," in ln][0].split(",")
    assert all(float(v) == 0.0 for v in stderr_row[4:])


def test_sweep_with_infinite_epsilon_in_every_rep(tmp_path, capsys):
    # sigma_g = 0 reports epsilon = inf in both reps: its stderr is 0.0, and
    # no numpy warning (inf - inf) escapes under filterwarnings = error
    out_dir = tmp_path / "sw"
    with pytest.warns(UserWarning, match="epsilon = inf"):
        rc = main(["sweep", str(REPO_ROOT / "configs" / "quadratic.json"), "--axis",
                   "mechanism.sigma_g", "--values", "0", "--reps", "2", "--out-dir", str(out_dir)])
    capsys.readouterr()
    assert rc == 0
    mean, stderr = (ln.split(",") for ln in
                    (out_dir / "quadratic-sweep.csv").read_text().splitlines()[-2:])
    assert (mean[2], mean[-1]) == ("mean", "inf")
    assert (stderr[2], stderr[-1]) == ("stderr", "0.0")


def test_sweep_empty_values_exits_1(tmp_path, capsys):
    path = write_config(tmp_path, small_config())
    rc = main(["sweep", path, "--axis", "federation.eta_local", "--values", " , "])
    assert rc == 1
    assert "at least one value" in capsys.readouterr().err


def test_sweep_zero_reps_exits_1(tmp_path, capsys):
    path = write_config(tmp_path, small_config())
    rc = main(["sweep", path, "--axis", "federation.eta_local", "--values", "0.1", "--reps", "0"])
    assert rc == 1


def test_sweep_unknown_axis_exits_1(tmp_path, capsys):
    path = write_config(tmp_path, small_config())
    rc = main(["sweep", path, "--axis", "federation.velocity", "--values", "1"])
    assert rc == 1
    assert "unknown override target" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------


def _intrinsic_dim_from(out: str) -> float:
    match = re.search(r"intrinsic dimension I = ([0-9.eE+-]+)", out)
    assert match is not None, out
    return float(match.group(1))


def test_diagnose_reports_identity_spectrum_as_full_rank(tmp_path, capsys):
    path = write_config(tmp_path, small_config(task={"spectrum": "identity"}))
    rc = main(["diagnose", path])
    out = capsys.readouterr().out
    assert rc == 0
    assert _intrinsic_dim_from(out) == pytest.approx(8.0)
    assert "clip" in out
    assert "E_s terms" in out


def test_diagnose_power_law_has_small_intrinsic_dimension(tmp_path, capsys):
    path = write_config(tmp_path, small_config())
    rc = main(["diagnose", path])
    out = capsys.readouterr().out
    assert rc == 0
    # sum(i^-2) converges: far below the ambient d = 8
    assert _intrinsic_dim_from(out) < 2.0


def test_diagnose_huge_dimension_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, small_config(task={"d": 600}))
    rc = main(["diagnose", path])
    assert rc == 2
    assert "infeasible" in capsys.readouterr().err


@pytest.mark.parametrize("b", [0, -3])
def test_diagnose_bad_sketch_dim_exits_1(capsys, b):
    rc = main(["diagnose", str(REPO_ROOT / "configs" / "logreg.json"), "--override", f"sketch.b={b}"])
    assert rc == 1
    assert f"sketch.b must be >= 1, got {b}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override, message",
    [
        ("federation.local_steps=0", "local_steps, rounds, batch_size must be >= 1"),
        ("federation.batch_size=0", "local_steps, rounds, batch_size must be >= 1"),
        ("federation.eta_local=0", "eta_local must be finite and positive, got 0.0"),
    ],
)
def test_diagnose_applies_the_run_checks(capsys, override, message):
    # diagnose reads the run from the same FedConfig that simulate runs
    quadratic = str(REPO_ROOT / "configs" / "quadratic.json")
    assert main(["diagnose", quadratic, "--override", override]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["diagnose", "simulate"])
@pytest.mark.parametrize(
    "kind, key, value, message",
    [
        ("adam", "beta1", "2", "beta1 must be in [0,1), got 2.0"),
        ("amsgrad", "beta2", "1", "beta2 must be in [0,1), got 1.0"),
        ("adam", "eps", "0", "eps must be positive, got 0.0"),
    ],
)
def test_optimizer_range_checks_apply_to_every_command(tmp_path, capsys, command, kind, key,
                                                       value, message):
    # the moment optimizers' ranges are checked by FedConfig, which both commands build
    quadratic = str(REPO_ROOT / "configs" / "quadratic.json")
    rc = main([command, quadratic, "--override", f"optimizer.kind={kind}",
               "--override", f"optimizer.{key}={value}",
               *(["--out-dir", str(tmp_path)] if command == "simulate" else [])])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["diagnose", "simulate"])
def test_more_clients_per_round_than_clients_exits_1(tmp_path, capsys, command):
    # caught by the config check before anything runs or prints
    logreg = str(REPO_ROOT / "configs" / "logreg.json")
    rc = main([command, logreg, "--override", "federation.clients_per_round=40",
               *(["--out-dir", str(tmp_path)] if command == "simulate" else [])])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert "federation.clients_per_round = 40 exceeds federation.clients = 20" in err
    assert list(tmp_path.iterdir()) == []


def test_diagnose_reports_bound_validity(capsys):
    quadratic = str(REPO_ROOT / "configs" / "quadratic.json")
    assert main(["diagnose", quadratic]) == 0
    out = capsys.readouterr().out
    assert "r = 2 tau^2/(b sigma_g^2) = 0.01619" in out
    assert "alpha* = 122.3, alpha*^2 r = 242.2" in out
    assert "rdp_bound_validity at alpha*: not valid" in out
    # the vision reference point (b = 4e5, sigma_g = 0.1025) sits inside the region
    overrides = ["--override", "sketch.b=400000", "--override", "mechanism.sigma_g=0.1025"]
    assert main(["diagnose", quadratic, *overrides]) == 0
    assert "rdp_bound_validity at alpha*: valid" in capsys.readouterr().out
    assert main(["diagnose", quadratic, "--override", "mechanism.sigma_g=0"]) == 0
    assert "n/a (sigma_g = 0" in capsys.readouterr().out


def test_diagnose_outside_accounting_regime(capsys):
    # tau = inf gives r = inf: no order alpha* exists, and diagnose says so
    logreg = str(REPO_ROOT / "configs" / "logreg.json")
    assert main(["diagnose", logreg, "--override", "mechanism.tau=inf"]) == 0
    out = capsys.readouterr().out
    assert "r = 2 tau^2/(b sigma_g^2) = inf" in out
    assert "alpha*: n/a (r >= 1, outside the accounting regime)" in out
    assert "rdp_bound_validity" not in out
