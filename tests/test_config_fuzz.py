"""Schema-driven fuzzing of `fed-sgm simulate`.

Each example mutates one or two keys of a tiny quadratic or logistic config
with values drawn from the key's schema type, plus NaN, +-inf, 0, negatives
and values of the wrong type, and runs the CLI in-process.  Whatever the
values, the run must end in exit code 0, 1 or 2 without an exception; a
refusal prints exactly one `error:` or `infeasible:` line, and a completed
run writes only finite metrics, and a finite epsilon wherever the run is
accounted.

Counts (rounds, clients, steps, d, n, b) are drawn from small ranges, so an
accepted run takes milliseconds.  Huge values are drawn only for the keys
the config check refuses before any array is allocated: task.d and task.n
past the task's DENSE_MAX_ENTRIES ceiling, and sketch.b past the N x b one.
"""

import csv
import io
import json
import math
import os
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import event, given, seed, settings, strategies as st

from fedsgm.cli import main
from fedsgm.config import _SCHEMA
from fedsgm.fedsim import CSV_COLUMNS

FEDERATION = {"clients": 3, "clients_per_round": 2, "local_steps": 2, "rounds": 3,
              "eta_local": 0.1, "eta_global": 0.5, "master_seed": 1}
BASES = [
    {"task": {"kind": "quadratic", "d": 4, "seed": 1, "heterogeneity": 0.3},
     "optimizer": {"kind": "gd"}},
    {"task": {"kind": "logreg", "d": 4, "n": 24, "seed": 1, "partition": "label_skew"},
     "optimizer": {"kind": "amsgrad"}},
]
COMMON = {"federation": FEDERATION, "mechanism": {"noise_seed": 1},
          "sketch": {"b": 2}, "accountant": {"delta": 1e-5, "target_epsilon": 4.0},
          "output": {"prefix": "fuzz"}}

PATHS = [f"{section}.{key}" for section in _SCHEMA for key in _SCHEMA[section]]
# past every ceiling however the other key is mutated: N >= 1 and d >= 1
PAST_THE_CAP = {"task.d", "task.n", "sketch.b"}
NUMBERS = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1e-300, 1e300]) | st.floats(-4, 4)
WRONG_TYPE = st.sampled_from([None, True, 2.5, "x", [1], {}])


def values(path):
    section, key = path.split(".")
    spec = _SCHEMA[section][key]
    if spec.typ == "str":
        own = st.sampled_from(spec.choices or ("", "x", "a/b", ".."))
    elif spec.typ == "int":
        own = st.integers(-2, 6)
        if path in PAST_THE_CAP:
            own |= st.integers(10**8 + 1, 10**12)
    else:
        own = NUMBERS | st.just("calibrate") if spec.typ == "sigma" else NUMBERS
    return own | WRONG_TYPE


@seed(20250908)
@settings(max_examples=300, deadline=None, database=None)
@given(st.data())
def test_simulate_ends_in_one_line_or_finite_metrics(data):
    base = data.draw(st.sampled_from(BASES))
    raw = {section: dict(kv) for section, kv in {**COMMON, **base}.items()}
    # sigma_g = 1.5 gives r = 2 tau^2 / (b sigma_g^2) = 0.44 < 1, a finite
    # epsilon; tau = inf is outside the accounting regime at every sigma_g
    raw["mechanism"]["sigma_g"] = data.draw(st.sampled_from([1.5, "calibrate"]))
    raw["mechanism"]["tau"] = data.draw(st.sampled_from([1.0, 1.0, 1.0, math.inf]))
    for path in data.draw(st.lists(st.sampled_from(PATHS), min_size=1, max_size=2, unique=True)):
        section, key = path.split(".")
        raw[section][key] = data.draw(values(path), label=path)

    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "cfg.json")
        with open(config, "w") as fh:
            json.dump(raw, fh)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            rc = main(["simulate", config, "--out-dir", os.path.join(tmp, "out")])
        err = err.getvalue()
        assert rc in (0, 1, 2)
        event(f"exit {rc}")
        if rc != 0:
            assert err.count("\n") == 1 and err.startswith(("error: ", "infeasible: ")), err
            return
        assert err == ""
        with open(os.path.join(tmp, "out", f"{raw['output']['prefix']}.csv")) as fh:
            rows = list(csv.reader(line for line in fh if not line.startswith("#")))

    assert tuple(rows[0]) == CSV_COLUMNS
    # epsilon_spent is inf only in the unaccounted modes, sigma_g = 0 and
    # tau = inf; a numeric sigma_g with r >= 1 exits 2
    mech = raw["mechanism"]
    unaccounted = mech["sigma_g"] == 0 or mech["tau"] == math.inf
    for row in rows[1:]:
        *metrics, epsilon = map(float, row)
        assert all(math.isfinite(v) for v in metrics), row
        assert math.isfinite(epsilon) or (epsilon == math.inf and unaccounted), row
