"""Run-config files: schema, validation, and overrides.

A run config is a single JSON file with sections {task, federation,
mechanism, sketch, optimizer, accountant, output}.  Unknown sections or keys
are rejected with their dotted path; privacy-critical keys (mechanism.tau,
mechanism.sigma_g, accountant.delta) have no defaults and must be explicit.
mechanism.sigma_g may be the string "calibrate", in which case the noise is
calibrated to accountant.target_epsilon before the run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

from .accountant import DpPoint, calibrate_sgm_sigma
from .errors import ConfigurationError
from .fedsim import FedConfig
from .mechanism import MechanismConfig
from .tasks import make_federated_quadratic, make_logreg, power_law_spectrum


@dataclass(frozen=True)
class _Field:
    typ: str = "number"  # number | int | str | sigma
    required: bool = False
    default: object = None
    choices: Optional[tuple] = None
    minimum: Optional[int] = None


_SCHEMA = {
    "task": {
        "kind": _Field("str", required=True, choices=("quadratic", "logreg")),
        "d": _Field("int", required=True),
        "seed": _Field("int", default=0, minimum=0),
        # quadratic-only
        "spectrum": _Field("str", default="power_law", choices=("power_law", "identity")),
        "power": _Field("number", default=2.0),
        "heterogeneity": _Field("number", default=0.0),
        "center_scale": _Field("number", default=1.0),
        # logreg-only
        "n": _Field("int", default=None),
        "partition": _Field("str", default="iid", choices=("iid", "label_skew")),
        "skew": _Field("number", default=0.5),
        "label_noise": _Field("number", default=0.05),
    },
    "federation": {
        "clients": _Field("int", required=True),
        "clients_per_round": _Field("int", required=True),
        "local_steps": _Field("int", required=True),
        "rounds": _Field("int", required=True),
        "eta_local": _Field("number", required=True),
        "eta_global": _Field("number", required=True),
        "batch_size": _Field("int", default=1),
        "master_seed": _Field("int", default=0, minimum=0),
    },
    "mechanism": {
        # no defaults here on purpose: privacy parameters must be stated
        "tau": _Field("number", required=True),
        "sigma_g": _Field("sigma", required=True),
        "noise_seed": _Field("int", default=0, minimum=0),
    },
    "sketch": {
        "mode": _Field("str", default="gaussian", choices=("gaussian", "identity")),
        "b": _Field("int", default=None, minimum=1),
    },
    "optimizer": {
        "kind": _Field("str", default="gd", choices=("gd", "amsgrad", "adam")),
        "beta1": _Field("number", default=0.9),
        "beta2": _Field("number", default=0.99),
        "eps": _Field("number", default=1e-8),
    },
    "accountant": {
        "delta": _Field("number", required=True),
        "target_epsilon": _Field("number", default=None),
    },
    "output": {
        "dir": _Field("str", default="."),
        "prefix": _Field("str", default="run"),
    },
}

_REQUIRED_SECTIONS = ("task", "federation", "mechanism", "accountant")


def _coerce(path: str, spec: _Field, value):
    if value is None:
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
    if spec.minimum is not None and value < spec.minimum:
        raise ConfigurationError(f"{path} must be >= {spec.minimum}, got {value!r}")
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
    task = cfg["task"]
    if task["kind"] == "logreg" and task["n"] is None:
        raise ConfigurationError("task.n is required for logreg tasks")
    fed = cfg["federation"]
    if fed["clients_per_round"] > fed["clients"]:
        raise ConfigurationError(
            f"federation.clients_per_round = {fed['clients_per_round']} exceeds "
            f"federation.clients = {fed['clients']}"
        )
    sk = cfg["sketch"]
    if sk["mode"] == "gaussian" and sk["b"] is None:
        raise ConfigurationError("sketch.b is required when sketch.mode is \"gaussian\"")
    mech = cfg["mechanism"]
    if mech["sigma_g"] == "calibrate" and cfg["accountant"]["target_epsilon"] is None:
        raise ConfigurationError(
            "mechanism.sigma_g = \"calibrate\" requires accountant.target_epsilon"
        )
    if isinstance(mech["sigma_g"], float) and mech["sigma_g"] < 0:
        raise ConfigurationError("mechanism.sigma_g must be >= 0")
    if sk["mode"] == "identity" and mech["sigma_g"] != 0.0:
        raise ConfigurationError(
            "sketch.mode = \"identity\" requires mechanism.sigma_g = 0: the accountant "
            f"covers sketched releases only, got mechanism.sigma_g = {mech['sigma_g']!r}"
        )
    if mech["tau"] <= 0:
        raise ConfigurationError("mechanism.tau must be positive")


def load_config(path: str, overrides=()) -> dict:
    """Parse, override, and validate a JSON run config."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}")
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
    spec = _SCHEMA[section][key]
    text = text.strip()
    value: object
    if spec.typ == "str":
        value = text
    elif spec.typ == "int":
        try:
            value = int(text)
        except ValueError:
            raise ConfigurationError(f"{section}.{key}: expected integer, got {text!r}")
    elif spec.typ == "sigma" and text == "calibrate":
        value = "calibrate"
    else:
        try:
            value = float(text)
        except ValueError:
            raise ConfigurationError(f"{section}.{key}: expected number, got {text!r}")
    raw = {**raw}
    raw[section] = {**raw.get(section, {}), key: value}
    return raw


# ---------------------------------------------------------------------------
# Config -> runnable objects
# ---------------------------------------------------------------------------


def build_task(cfg: dict):
    t = cfg["task"]
    fed = cfg["federation"]
    if t["kind"] == "quadratic":
        if t["spectrum"] == "power_law":
            lam = power_law_spectrum(t["d"], t["power"])
        else:
            lam = [1.0] * t["d"]
        return make_federated_quadratic(
            lam,
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


def effective_sketch_dim(cfg: dict) -> int:
    sk = cfg["sketch"]
    return sk["b"] if sk["mode"] == "gaussian" else cfg["task"]["d"]


def resolve_sigma_g(cfg: dict) -> float:
    """The run's sigma_g: explicit, or calibrated to the accountant target."""
    mech = cfg["mechanism"]
    if mech["sigma_g"] != "calibrate":
        return float(mech["sigma_g"])
    fed = cfg["federation"]
    target = DpPoint(cfg["accountant"]["target_epsilon"], cfg["accountant"]["delta"])
    return calibrate_sgm_sigma(
        target,
        q=fed["clients_per_round"] / fed["clients"],
        T=fed["rounds"],
        tau=mech["tau"],
        b=effective_sketch_dim(cfg),
    )


def build_fed_config(cfg: dict, sigma_g: float) -> FedConfig:
    fed = cfg["federation"]
    opt = cfg["optimizer"]
    sk = cfg["sketch"]
    return FedConfig(
        clients=fed["clients"],
        clients_per_round=fed["clients_per_round"],
        local_steps=fed["local_steps"],
        rounds=fed["rounds"],
        eta_local=fed["eta_local"],
        eta_global=fed["eta_global"],
        batch_size=fed["batch_size"],
        mechanism=MechanismConfig(
            tau=cfg["mechanism"]["tau"],
            sigma_g=sigma_g,
            noise_seed=cfg["mechanism"]["noise_seed"],
        ),
        sketch_b=sk["b"] if sk["mode"] == "gaussian" else None,
        optimizer=opt["kind"],
        beta1=opt["beta1"],
        beta2=opt["beta2"],
        opt_eps=opt["eps"],
        delta=cfg["accountant"]["delta"],
        master_seed=fed["master_seed"],
    )
