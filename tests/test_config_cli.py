"""Run-config validation and the command-line front end.

The exit-code contract is load-bearing for shell scripts wrapping the
CLI: 0 success, 1 usage/configuration mistakes, 2 privacy-infeasible or
out-of-regime requests.  Numeric outputs are checked against the same
frozen oracles used in test_accountant.
"""

import argparse
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

import numpy as np
import pytest

from fedsgm import cli
from fedsgm.accountant import DpPoint, calibrate_sgm_sigma
from fedsgm.cli import build_parser, main
from fedsgm.config import _SCHEMA, build_fed_config, build_task, load_config, validate_config
from fedsgm.errors import ConfigurationError
from fedsgm.fedsim import strict_json


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


def loads_strict(text):
    """json.loads that rejects Infinity, -Infinity and NaN, as strict parsers do."""

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


# 4/625 participation, 500 rounds: the image-classification accounting setup
VISION_ARGS = ["--delta", "1e-5", "--q", "0.0064", "--T", "500", "--tau", "1.0", "--b", "400000"]


# ---------------------------------------------------------------------------
# schema validation
# ---------------------------------------------------------------------------


def test_validate_fills_defaults():
    cfg = validate_config(small_config())
    assert cfg["optimizer"] == {"kind": "gd"}
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
    for section in ("accountant", "sketch"):
        raw = small_config()
        del raw[section]
        with pytest.raises(ConfigurationError, match=f"missing required section '{section}'"):
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
        ("accountant", "delta"),
        ("mechanism", "sigma_g"),
        ("federation", "eta_local"),
        ("federation", "eta_global"),
    ):
        with pytest.raises(ConfigurationError, match=f"{section}.{key} must be finite"):
            validate_config(small_config(**{section: {key: math.inf}}))
    for key in ("eta_local", "eta_global"):
        with pytest.raises(ConfigurationError, match=f"^federation.{key}: NaN is not a valid value"):
            validate_config(small_config(federation={key: math.nan}))
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
    with pytest.raises(ConfigurationError, match=r"^optimizer\.kind: 'lbfgs' not in \('gd', 'amsgrad', 'adam'\)$"):
        validate_config(small_config(optimizer={"kind": "lbfgs"}))
    with pytest.raises(ConfigurationError, match=r"^task\.partition: 'dirichlet' not in \('iid', 'label_skew'\)$"):
        validate_config(small_config(task={"kind": "logreg", "n": 40, "partition": "dirichlet"}))


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
        ({"sketch": {"b": None}}, "sketch.b: null is not a valid value"),
        ({"mechanism": {"sigma_g": "calibrate"}}, "target_epsilon"),
        ({"mechanism": {"tau": 0.0}}, "mechanism.tau must be > 0, got 0.0"),
        ({"mechanism": {"sigma_g": -0.5}}, ">= 0"),
    ],
)
def test_cross_validation_errors(over, fragment):
    with pytest.raises(ConfigurationError, match=re.escape(fragment)):
        validate_config(small_config(**over))


# JSON Schema's minimum, exclusiveMinimum, maximum and exclusiveMaximum
BOUND_OPS = {"minimum": ">=", "above": ">", "maximum": "<=", "below": "<"}
# a center may lie anywhere: the only numeric key that declares no range
UNBOUNDED = {"task.center_scale"}


@pytest.mark.parametrize("path", [f"{s}.{k}" for s in _SCHEMA for k, spec in _SCHEMA[s].items()
                                  if spec.typ != "str"])
def test_every_declared_bound_refuses_the_value_just_past_it(tmp_path, path):
    # the value just past a bound is refused naming the key and the bound,
    # and an inclusive bound itself is not refused by that bound
    section, key = path.split(".")
    spec = _SCHEMA[section][key]
    bounds = {name: bound for name, bound in vars(spec).items() if name in BOUND_OPS and bound is not None}
    assert bool(bounds) != (path in UNBOUNDED), bounds
    config = write_config(tmp_path, small_config())
    for name, bound in bounds.items():
        inclusive = name in ("minimum", "maximum")
        outward = -1 if name in ("minimum", "above") else 1
        if not inclusive:
            past = bound
        elif spec.typ == "int":
            past = bound + outward
        else:
            past = math.nextafter(bound, outward * math.inf)
        message = f"{path} must be {BOUND_OPS[name]} {bound}, got "
        with pytest.raises(ConfigurationError, match="^" + re.escape(message)):
            load_config(config, [f"{path}={past!r}"])
        if inclusive:
            try:
                load_config(config, [f"{path}={bound}"])
            except ConfigurationError as exc:  # another key's rule, e.g. clients_per_round <= clients
                assert not str(exc).startswith(f"{path} must be"), exc


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


def test_cli_calibrate_negative_target_exits_1(capsys):
    # a negative epsilon is a usage mistake, not an infeasible target
    rc = main(["calibrate", "--eps", "-1", *VISION_ARGS])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err == "error: epsilon must be >= 0, got -1.0\n"


def test_cli_calibrate_huge_tau(capsys):
    args = ["--eps", "4", "--delta", "1e-5", "--q", "0.25", "--T", "100", "--b", "16", "--json"]
    assert main(["calibrate", *args, "--tau", "1e300"]) == 0
    assert json.loads(capsys.readouterr().out)["sigma_g"] == 2.7788813126855115e300
    # sigma_g would be 2.78e308: refused, never printed as inf
    assert main(["calibrate", *args, "--tau", "1e308"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("infeasible: no sigma_g up to inf meets eps=4.0")


def test_cli_calibrate_target_met_below_the_baseline_range_exits_2(capsys):
    # the baseline already meets eps = 2e6 at its lower end sigma = 1e-3; it
    # used to print 1.00006e-3 as the baseline noise, which is not the smallest
    rc = main(["calibrate", "--eps", "2e6", "--delta", "1e-5", "--q", "1", "--T", "1",
               "--tau", "1", "--b", "10", "--json"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err == ("infeasible: target eps=2000000.0 is already met at sigma = 0.001, "
                   "the lower end of the searched range [0.001, 1e+09]\n")


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


def test_cli_accountant_json_is_strict_where_tau_is_infinite(capsys):
    rc = main(["accountant", "--mechanism", "baseline", "--json", "--sigma", "1",
               "--delta", "1e-5", "--q", "0.1", "--T", "10", "--tau", "inf", "--b", "10"])
    record = loads_strict(capsys.readouterr().out)
    assert rc == 0
    assert record["params"]["tau"] == "inf"
    assert record["epsilon"] == pytest.approx(4.17700569908253, rel=1e-12)


def test_strict_json_writes_non_finite_floats_as_strings():
    record = {"a": [1.5, math.inf, (-math.inf, {"b": math.nan})], "c": np.float64(math.inf)}
    assert loads_strict(strict_json(record)) == {
        "a": [1.5, "inf", ["-inf", {"b": "nan"}]], "c": "inf"
    }
    finite = {"z": 0.1, "a": [1e-300, 2], "m": {"k": None}}
    assert strict_json(finite) == json.dumps(finite, indent=2, sort_keys=True)


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


def test_simulate_manifest_is_strict_json_where_tau_is_infinite(tmp_path, capsys):
    path = write_config(tmp_path, small_config())
    overrides = ["--override", "mechanism.tau=inf", "--override", "mechanism.sigma_g=1.0"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # r = inf: accounting unavailable, eps = inf
        rc = main(["simulate", path, *overrides, "--out-dir", str(tmp_path / "o")])
    capsys.readouterr()
    assert rc == 0
    manifest = loads_strict((tmp_path / "o" / "run-manifest.json").read_text())
    assert manifest["config"]["mechanism"]["tau"] == manifest["accountant"]["tau"] == "inf"
    assert manifest["accountant"]["epsilon_total"] == "inf"


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


def test_simulate_config_directory_exits_1(tmp_path, capsys):
    assert main(["simulate", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: cannot read config file {tmp_path}: Is a directory\n"


def test_simulate_non_utf8_config_exits_1(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(small_config(output={"prefix": "caf\u00e9"}),
                                ensure_ascii=False).encode("latin-1"))
    assert main(["simulate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not UTF-8 text (byte ") and err.count("\n") == 1


def test_out_dir_naming_a_file_exits_1_before_the_run(tmp_path, capsys, monkeypatch):
    def no_run(*args):
        raise AssertionError("the run started")

    monkeypatch.setattr("fedsgm.cli.run_federation", no_run)
    taken = tmp_path / "taken"
    taken.write_text("keep")
    path = write_config(tmp_path, small_config())
    assert main(["simulate", path, "--out-dir", str(taken)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot create output directory {taken}: File exists\n"
    assert taken.read_text() == "keep"


@pytest.mark.parametrize("prefix", ["a/b", "", "/tmp/run"])
def test_simulate_prefix_must_be_a_file_name(tmp_path, capsys, prefix):
    path = write_config(tmp_path, small_config())
    rc = main(["simulate", path, "--override", f"output.prefix={prefix}",
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: output.prefix must be a plain file name, got {prefix!r}\n")
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize(
    "config, override, message",
    [
        # only the power-law spectrum reproduces the paper's quadratic runs
        ("quadratic.json", "task.spectrum=identity", "task.spectrum: 'identity' not in ('power_law',)"),
        # a flip probability: at 2 every label flipped, at -0.5 none did, both quietly
        ("logreg.json", "task.label_noise=2", "task.label_noise must be <= 1, got 2.0"),
        ("logreg.json", "task.label_noise=-0.5", "task.label_noise must be >= 0, got -0.5"),
        # eigenvalues i^-power: 0 is the identity spectrum, -5 grows with i and
        # ran to a loss of 4.9e8 with exit 0
        ("quadratic.json", "task.power=0", "task.power must be > 0, got 0.0"),
        ("quadratic.json", "task.power=-5", "task.power must be > 0, got -5.0"),
    ],
)
def test_simulate_refused_task_value_exits_1(tmp_path, capsys, config, override, message):
    rc = main(["simulate", str(REPO_ROOT / "configs" / config), "--override", override,
               "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_sketch_b_past_the_round_ceiling_exits_1(capsys):
    # N = 4 clients at b = 1e9 would draw 4e9 noise floats a round, an
    # allocation that overcommit lets succeed; diagnose never draws them
    quadratic = str(REPO_ROOT / "configs" / "quadratic.json")
    assert main(["diagnose", quadratic, "--override", "sketch.b=1000000000"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: sketch.b = 1000000000 times clients_per_round exceeds 100000000\n"


def test_sketch_b_ceiling_is_on_clients_per_round_times_b():
    # configs/quadratic.json has N = 4: N * b = 1e8 runs, 1e8 + N does not
    quadratic = str(REPO_ROOT / "configs" / "quadratic.json")
    assert load_config(quadratic, ["sketch.b=25000000"])["sketch"]["b"] == 25_000_000
    with pytest.raises(ConfigurationError, match=r"^sketch\.b = 25000001 times"):
        load_config(quadratic, ["sketch.b=25000001"])


@pytest.mark.parametrize("noise", [0, 1])
def test_label_noise_range_is_closed(noise):
    # both ends of [0, 1] are flip probabilities: no label or every label flips
    cfg = load_config(str(REPO_ROOT / "configs" / "logreg.json"), [f"task.label_noise={noise}"])
    assert cfg["task"]["label_noise"] == noise
    task, partition = build_task(cfg)
    assert task.d == 20
    assert partition.num_clients == 20


def test_simulate_out_of_memory_exits_1_without_a_traceback(tmp_path):
    # a d x d Hessian at d = 1e7 would ask for 728 TiB: the config check
    # refuses it by key before any array is allocated
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "fedsgm.cli", "simulate", str(REPO_ROOT / "configs" / "quadratic.json"),
         "--override", "task.d=10000000", "--out-dir", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "error: task.d = 10000000 gives a d x d Hessian of more than 100000000 entries\n"
    assert proc.stdout == ""
    assert not (tmp_path / "o").exists()


def test_memory_error_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    def no_memory(cfg):
        raise MemoryError("Unable to allocate 728. TiB")

    monkeypatch.setattr(cli, "build_task", no_memory)
    rc = main(["simulate", write_config(tmp_path, small_config()), "--out-dir", str(tmp_path / "o")])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err == "error: out of memory: Unable to allocate 728. TiB\n"


@pytest.mark.parametrize("config, key, fits", [
    ("quadratic.json", "d", 10_000),  # a d x d Hessian of 1e8 entries
    ("logreg.json", "n", 4_166_667),  # (n + n // 5) x 20 train and test features, 1e8 entries
])
def test_task_entries_ceiling(config, key, fits):
    path = str(REPO_ROOT / "configs" / config)
    assert load_config(path, [f"task.{key}={fits}"])["task"][key] == fits
    with pytest.raises(ConfigurationError, match=rf"^task\.{key} = {fits + 1} .* more than 100000000 "):
        load_config(path, [f"task.{key}={fits + 1}"])


def test_sweep_is_not_a_subcommand(tmp_path, capsys):
    path = write_config(tmp_path, small_config())
    rc = main(["sweep", path, "--axis", "mechanism.sigma_g", "--values", "0.9"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: argument command: invalid choice: 'sweep'")
    assert err.count("\n") == 1


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


def test_readme_and_help_name_every_subcommand():
    # the README's Command line block and the --help text name exactly the
    # parser's subcommands, so none is added or dropped with stale docs
    parser = build_parser()
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    readme = (REPO_ROOT / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    assert re.findall(r"^fed-sgm (\w+)", block, re.M) == list(action.choices)
    assert re.findall(r"^  (\w+) {2,}", parser.description, re.M) == list(action.choices)


def test_readme_lists_every_config_key_with_its_default():
    # the README's Run configs table names exactly _SCHEMA's keys, in order and
    # with their defaults, so none is added or dropped with stale docs
    readme = (REPO_ROOT / "README.md").read_text()
    section = readme.split("## Run configs", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)\.(\w+)` \| ([^|]+) \|", section, re.M)
    assert [(s, k) for s, k, _ in rows] == [(s, k) for s in _SCHEMA for k in _SCHEMA[s]]
    for s, k, default in rows:
        spec = _SCHEMA[s][k]
        assert default == ("required" if spec.required else f"`{json.dumps(spec.default)}`"), (s, k)


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
# diagnose
# ---------------------------------------------------------------------------


def _never_called(cfg):
    raise AssertionError("build_task was called")


def _intrinsic_dim_from(out: str) -> float:
    match = re.search(r"intrinsic dimension I = ([0-9.eE+-]+)", out)
    assert match is not None, out
    return float(match.group(1))


def test_diagnose_power_law_has_small_intrinsic_dimension(tmp_path, capsys):
    path = write_config(tmp_path, small_config())
    rc = main(["diagnose", path])
    out = capsys.readouterr().out
    assert rc == 0
    # sum(i^-2) converges: far below the ambient d = 8
    assert _intrinsic_dim_from(out) < 2.0
    assert "clip" in out
    assert "E_s terms" in out


@pytest.mark.parametrize("config, overrides", [
    ("quadratic.json", ["task.d=600"]),
    ("logreg.json", ["task.d=600", "task.n=700"]),
], ids=["quadratic", "logreg"])
def test_diagnose_huge_dimension_exits_1(capsys, monkeypatch, config, overrides):
    # a dense Hessian past the ceiling is a config error, not an infeasible
    # privacy target, and is refused by its key before the task is built
    monkeypatch.setattr(cli, "build_task", _never_called)
    rc = main(["diagnose", str(REPO_ROOT / "configs" / config),
               *itertools.chain.from_iterable(("--override", o) for o in overrides)])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err == "error: task.d = 600 > 500: diagnose needs the dense Hessian\n"


@pytest.mark.parametrize("b", [0, -3])
def test_diagnose_bad_sketch_dim_exits_1(capsys, b):
    rc = main(["diagnose", str(REPO_ROOT / "configs" / "logreg.json"), "--override", f"sketch.b={b}"])
    assert rc == 1
    assert f"sketch.b must be >= 1, got {b}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override, message",
    [
        ("federation.clients=0", "federation.clients must be >= 1, got 0"),
        ("federation.clients_per_round=0", "federation.clients_per_round must be >= 1, got 0"),
        ("federation.local_steps=0", "federation.local_steps must be >= 1, got 0"),
        ("federation.rounds=0", "federation.rounds must be >= 1, got 0"),
        ("federation.batch_size=0", "federation.batch_size must be >= 1, got 0"),
        ("federation.eta_local=0", "federation.eta_local must be > 0, got 0.0"),
    ],
)
def test_diagnose_applies_the_run_checks(capsys, override, message):
    # diagnose reads the run from the same config and FedConfig that simulate
    # runs; a count key is named by the config check, before the calibration
    quadratic = str(REPO_ROOT / "configs" / "quadratic.json")
    assert main(["diagnose", quadratic, "--override", override]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["diagnose", "simulate"])
@pytest.mark.parametrize("key, value", [("beta1", "0.9"), ("beta2", "0.99"), ("eps", "1e-8")])
def test_moment_hyperparameters_are_not_run_options(tmp_path, capsys, command, key, value):
    # AMSGrad's and Adam's beta1, beta2 and eps are constants of fedsgm.optim:
    # a config may not set them, not even to their values
    logreg = str(REPO_ROOT / "configs" / "logreg.json")
    rc = main([command, logreg, "--override", f"optimizer.{key}={value}",
               *(["--out-dir", str(tmp_path)] if command == "simulate" else [])])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err == f"error: unknown override target optimizer.{key}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("partition", ["iid", "label_skew"])
def test_logreg_needs_a_sample_per_client(tmp_path, capsys, partition):
    # refused by the config check, naming both keys, before a feature is drawn
    logreg = str(REPO_ROOT / "configs" / "logreg.json")
    over = f"task.partition={partition}"
    rc = main(["simulate", logreg, "--override", "task.n=10", "--override", over,
               "--out-dir", str(tmp_path / "o")])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err == "error: task.n = 10 is below federation.clients = 20: every client needs a sample\n"
    assert not (tmp_path / "o").exists()
    # one sample per client is enough
    task, partition = build_task(load_config(logreg, ["task.n=20", over]))
    assert [len(partition.client_indices(c)) for c in range(20)] == [1] * 20


@pytest.mark.parametrize("command", ["diagnose", "simulate"])
def test_numeric_sigma_outside_the_accounting_regime_exits_2(tmp_path, capsys, monkeypatch, command):
    # r = 2 tau^2/(b sigma_g^2) = 1250 has no finite epsilon: refused before the task is built
    monkeypatch.setattr(cli, "build_task", _never_called)
    quadratic = str(REPO_ROOT / "configs" / "quadratic.json")
    rc = main([command, quadratic, "--override", "mechanism.sigma_g=0.01",
               *(["--out-dir", str(tmp_path)] if command == "simulate" else [])])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err == ("infeasible: mechanism.sigma_g = 0.01 gives r = 2 tau^2/(b sigma_g^2) "
                   "= 1250 >= 1, outside the accounting regime\n")
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
    # alpha*^2 r = 1.4 is inside the old series region r <= 1.5/(alpha^2 - 1), but
    # the exact release divergence at ratio 1 - r (11.05) is above the bound (10.48)
    overrides = ["--override", "sketch.b=1000", "--override", "mechanism.sigma_g=0.15"]
    assert main(["diagnose", quadratic, *overrides]) == 0
    out = capsys.readouterr().out
    assert "alpha* = 3.968, alpha*^2 r = 1.4" in out
    assert "rdp_bound_validity at alpha*: not valid" in out
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
