"""Run-config files: schema, validation, and overrides.

A run config is a single JSON file with sections {task, federation,
mechanism, sketch, optimizer, accountant, output}.  Unknown sections or keys
are rejected with their dotted path; privacy-critical keys (mechanism.tau,
mechanism.sigma_g, accountant.delta) have no defaults and must be explicit.
Every run is sketched: sketch.b is required.  mechanism.sigma_g may be the
string "calibrate"; `build_fed_config`, the one path from a config to a run,
then calibrates the noise to accountant.target_epsilon.  The schema is the
only validator of a run's values: the records that `build_fed_config`
builds, FedConfig and MechanismConfig, check nothing, nor do the task
builders, sketches and clip that a run reaches from them.
"""

from __future__ import annotations

import json
import math
import operator
import os
from dataclasses import dataclass
from typing import Optional

from .accountant import DpPoint, calibrate_sgm_sigma
from .errors import ConfigurationError, ParameterRegimeError
from .fedsim import FedConfig
from .mechanism import MechanismConfig, sensitivity_ratio
from .sketch import DENSE_MAX_ENTRIES
from .tasks import logreg_test_rows, make_federated_quadratic, make_logreg, power_law_spectrum


@dataclass(frozen=True)
class _Field:
    typ: str = "number"  # number | int | str | sigma
    required: bool = False
    default: object = None
    choices: Optional[tuple] = None
    # JSON Schema's minimum, exclusiveMinimum, maximum and exclusiveMaximum
    minimum: Optional[float] = None
    above: Optional[float] = None
    maximum: Optional[float] = None
    below: Optional[float] = None


_BOUNDS = (("minimum", ">=", operator.ge), ("above", ">", operator.gt),
           ("maximum", "<=", operator.le), ("below", "<", operator.lt))

_SCHEMA = {
    "task": {
        "kind": _Field("str", required=True, choices=("quadratic", "logreg")),
        "d": _Field("int", required=True, minimum=1),
        "seed": _Field("int", default=0, minimum=0),
        # quadratic-only
        "spectrum": _Field("str", default="power_law", choices=("power_law",)),
        # eigenvalues i^-power: 0 is the identity spectrum, below it they grow with i
        "power": _Field("number", default=2.0, above=0),
        "heterogeneity": _Field("number", default=0.0, minimum=0),
        "center_scale": _Field("number", default=1.0),
        # logreg-only
        "n": _Field("int", default=None, minimum=2),
        "partition": _Field("str", default="iid", choices=("iid", "label_skew")),
        "skew": _Field("number", default=0.5, above=0),
        # a flip probability: above 1 every label flips, below 0 none does
        "label_noise": _Field("number", default=0.05, minimum=0, maximum=1),
    },
    "federation": {
        "clients": _Field("int", required=True, minimum=1),
        "clients_per_round": _Field("int", required=True, minimum=1),
        "local_steps": _Field("int", required=True, minimum=1),
        "rounds": _Field("int", required=True, minimum=1),
        "eta_local": _Field("number", required=True, above=0),
        "eta_global": _Field("number", required=True, above=0),
        "batch_size": _Field("int", default=1, minimum=1),
        "master_seed": _Field("int", default=0, minimum=0),
    },
    "mechanism": {
        # no defaults here on purpose: privacy parameters must be stated
        "tau": _Field("number", required=True, above=0),
        "sigma_g": _Field("sigma", required=True, minimum=0),
        "noise_seed": _Field("int", default=0, minimum=0),
    },
    "sketch": {
        "mode": _Field("str", default="gaussian", choices=("gaussian",)),
        "b": _Field("int", required=True, minimum=1),
    },
    "optimizer": {
        "kind": _Field("str", default="gd", choices=("gd", "amsgrad", "adam")),
    },
    "accountant": {
        "delta": _Field("number", required=True, above=0, below=1),
        # 0 passes: an infeasible target, refused by the calibration (exit 2)
        "target_epsilon": _Field("number", default=None, minimum=0),
    },
    "output": {
        "dir": _Field("str", default="."),
        "prefix": _Field("str", default="run"),
    },
}

_REQUIRED_SECTIONS = ("task", "federation", "mechanism", "accountant")


def _coerce(path: str, spec: _Field, value):
    if value is None:
        # JSON null means "absent" only on optional keys that default to None
        if spec.required or spec.default is not None:
            raise ConfigurationError(f"{path}: null is not a valid value")
        return None
    if spec.typ == "str":
        if not isinstance(value, str):
            raise ConfigurationError(f"{path}: expected string, got {value!r}")
    elif spec.typ == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigurationError(f"{path}: expected integer, got {value!r}")
    elif spec.typ == "sigma" and isinstance(value, str):
        if value != "calibrate":
            raise ConfigurationError(
                f"{path}: expected a number or the string \"calibrate\", got {value!r}"
            )
    elif spec.typ in ("number", "sigma"):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigurationError(f"{path}: expected number, got {value!r}")
        value = float(value)
        if math.isnan(value):
            raise ConfigurationError(f"{path}: NaN is not a valid value")
        # tau = inf is the documented way to turn clipping off
        if math.isinf(value) and path != "mechanism.tau":
            raise ConfigurationError(f"{path} must be finite, got {value!r}")
    if not isinstance(value, str):
        for name, op, holds in _BOUNDS:
            bound = getattr(spec, name)
            if bound is not None and not holds(value, bound):
                raise ConfigurationError(f"{path} must be {op} {bound}, got {value!r}")
    if spec.choices is not None and value not in spec.choices:
        raise ConfigurationError(f"{path}: {value!r} not in {spec.choices}")
    return value


def validate_config(raw: dict) -> dict:
    """Check a parsed config against the schema; fill defaults; reject unknowns."""
    if not isinstance(raw, dict):
        raise ConfigurationError("top-level config must be a JSON object")
    for section in raw:
        if section not in _SCHEMA:
            raise ConfigurationError(f"unknown config section {section!r}")
    for section in _REQUIRED_SECTIONS:
        if section not in raw:
            raise ConfigurationError(f"missing required section {section!r}")
    cfg = {}
    for section, fields in _SCHEMA.items():
        given = raw.get(section, {})
        if not isinstance(given, dict):
            raise ConfigurationError(f"{section}: expected an object")
        for key in given:
            if key not in fields:
                raise ConfigurationError(f"unknown key {section}.{key}")
        out = {}
        for key, spec in fields.items():
            path = f"{section}.{key}"
            if key in given:
                out[key] = _coerce(path, spec, given[key])
            elif spec.required:
                raise ConfigurationError(f"missing required key {path}")
            else:
                out[key] = spec.default
        cfg[section] = out
    _cross_validate(cfg)
    return cfg


def _cross_validate(cfg: dict):
    t = cfg["task"]
    # a dense task past DENSE_MAX_ENTRIES is refused before any array is allocated
    if t["kind"] == "quadratic" and t["d"] * t["d"] > DENSE_MAX_ENTRIES:
        raise ConfigurationError(f"task.d = {t['d']} gives a d x d Hessian of more than "
                                 f"{DENSE_MAX_ENTRIES} entries")
    if t["kind"] == "logreg":
        if t["n"] is None:
            raise ConfigurationError("task.n is required for logreg tasks")
        if (t["n"] + logreg_test_rows(t["n"])) * t["d"] > DENSE_MAX_ENTRIES:
            # the n training and logreg_test_rows(n) test rows of d features
            raise ConfigurationError(f"task.n = {t['n']} and task.d = {t['d']} give more than "
                                     f"{DENSE_MAX_ENTRIES} feature entries")
        if t["n"] < cfg["federation"]["clients"]:
            raise ConfigurationError(f"task.n = {t['n']} is below federation.clients = "
                                     f"{cfg['federation']['clients']}: every client needs a sample")
    fed = cfg["federation"]
    if fed["clients_per_round"] > fed["clients"]:
        raise ConfigurationError(
            f"federation.clients_per_round = {fed['clients_per_round']} exceeds "
            f"federation.clients = {fed['clients']}"
        )
    b = cfg["sketch"]["b"]
    if fed["clients_per_round"] * b > DENSE_MAX_ENTRIES:
        # a round's N x b payloads and noise; overcommit hides them from MemoryError
        raise ConfigurationError(f"sketch.b = {b} times clients_per_round exceeds {DENSE_MAX_ENTRIES}")
    if cfg["mechanism"]["sigma_g"] == "calibrate" and cfg["accountant"]["target_epsilon"] is None:
        raise ConfigurationError("mechanism.sigma_g = \"calibrate\" requires accountant.target_epsilon")
    prefix = cfg["output"]["prefix"]
    if not prefix or os.path.basename(prefix) != prefix:
        raise ConfigurationError(f"output.prefix must be a plain file name, got {prefix!r}")


def load_config(path: str, overrides=()) -> dict:
    """Parse, override, and validate a JSON run config."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}")
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    for ov in overrides:
        raw = _apply_override(raw, ov)
    return validate_config(raw)


def _apply_override(raw: dict, override: str) -> dict:
    """Apply one KEY=VALUE override with a dotted section.key path."""
    if "=" not in override:
        raise ConfigurationError(f"override must look like section.key=value, got {override!r}")
    path, _, text = override.partition("=")
    parts = path.strip().split(".")
    if len(parts) != 2:
        raise ConfigurationError(f"override path must be section.key, got {path!r}")
    section, key = parts
    if section not in _SCHEMA or key not in _SCHEMA[section]:
        raise ConfigurationError(f"unknown override target {section}.{key}")
    text = text.strip()
    parse = {"int": int, "number": float, "sigma": float}.get(_SCHEMA[section][key].typ, str)
    try:
        value = parse(text)
    except ValueError:
        value = text  # validate_config names the type the key expects
    return {**raw, section: {**raw.get(section, {}), key: value}}


# ---------------------------------------------------------------------------
# Config -> runnable objects
# ---------------------------------------------------------------------------


def build_task(cfg: dict):
    t = cfg["task"]
    fed = cfg["federation"]
    if t["kind"] == "quadratic":
        return make_federated_quadratic(
            power_law_spectrum(t["d"], t["power"]),
            seed=t["seed"],
            clients=fed["clients"],
            heterogeneity=t["heterogeneity"],
            center_scale=t["center_scale"],
        )
    return make_logreg(
        n=t["n"],
        d=t["d"],
        clients=fed["clients"],
        seed=t["seed"],
        partition=t["partition"],
        skew=t["skew"],
        label_noise=t["label_noise"],
    )


def build_fed_config(cfg: dict) -> FedConfig:
    """The run a validated config describes; sigma_g = "calibrate" is solved
    for accountant.target_epsilon at the run's q, T, tau and b."""
    fed = cfg["federation"]
    mech = cfg["mechanism"]
    acc = cfg["accountant"]
    b = cfg["sketch"]["b"]
    sigma_g = mech["sigma_g"]
    if sigma_g == "calibrate":
        sigma_g = calibrate_sgm_sigma(
            DpPoint(acc["target_epsilon"], acc["delta"]),
            q=fed["clients_per_round"] / fed["clients"],
            T=fed["rounds"],
            tau=mech["tau"],
            b=b,
        )
    elif sigma_g > 0.0 and mech["tau"] < math.inf:
        # sigma_g = 0 (no noise) and tau = inf (no clipping) run unaccounted
        r = sensitivity_ratio(mech["tau"], b, sigma_g)
        if not r < 1.0:
            raise ParameterRegimeError(f"mechanism.sigma_g = {sigma_g!r} gives r = 2 tau^2/(b sigma_g^2) "
                                       f"= {r:.4g} >= 1, outside the accounting regime")
    # the schema's federation and mechanism keys are the records' field names
    return FedConfig(
        **fed,
        mechanism=MechanismConfig(**{**mech, "sigma_g": sigma_g}),
        delta=acc["delta"],
        sketch_b=b,
        optimizer=cfg["optimizer"]["kind"],
    )
