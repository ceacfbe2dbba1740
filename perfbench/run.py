#!/usr/bin/env python3
"""fedsgm benchmark: three workloads, end-to-end metrics, and a per-layer trace.

    python3 perfbench/run.py --workload fed_dense --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; fedsgm is imported from ./src.  The inputs
are made from --seed.  Whole workload processes (set-up, timed operations,
output) run one at a time until --seconds have passed, and at least three,
so that every run reruns the workload and can compare the outputs byte for
byte, and every figure is a median over at least three processes.  With --trace 1, untraced and traced
processes alternate and the per-layer metrics come from the traced ones.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics (end-to-end with --trace 0, per-layer with --trace 1).  Outputs
go to perfbench_out/<workload>/ in the checkout.
"""

import os

# One BLAS and one client thread per process, fixed before numpy loads here
# or in a workload process: unpinned threads spread fed_dense by 25%.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "FED_SGM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_ROOT = "perfbench_out"
MIN_PROCESSES = 3
PROCESS_TIMEOUT_S = 150


def _fed_config(seed, prefix, task, federation, mechanism, sketch_b, optimizer, accountant):
    return {
        "task": {**task, "seed": seed},
        "federation": {**federation, "master_seed": seed},
        "mechanism": {**mechanism, "noise_seed": seed},
        "sketch": {"mode": "gaussian", "b": sketch_b},
        "optimizer": {"kind": optimizer},
        "accountant": accountant,
        "output": {"prefix": prefix},
    }


def fed_dense(seed):
    """iid logistic regression, dense sketch (b*d = 1e6), AMSGrad."""
    return _fed_config(
        seed, "fed_dense",
        task={"kind": "logreg", "n": 20000, "d": 2000, "partition": "iid"},
        federation={"clients": 200, "clients_per_round": 20, "local_steps": 5, "rounds": 20,
                    "eta_local": 0.5, "eta_global": 0.05, "batch_size": 20},
        mechanism={"tau": 1.0, "sigma_g": 0.5},
        sketch_b=500, optimizer="amsgrad", accountant={"delta": 1e-5},
    )


def fed_small(seed):
    """configs/quadratic.json's shape with thousands of rounds."""
    return _fed_config(
        seed, "fed_small",
        task={"kind": "quadratic", "d": 64, "spectrum": "power_law", "power": 2.0,
              "heterogeneity": 0.5, "center_scale": 2.0},
        federation={"clients": 16, "clients_per_round": 4, "local_steps": 5, "rounds": 2000,
                    "eta_local": 0.05, "eta_global": 0.5, "batch_size": 1},
        mechanism={"tau": 1.0, "sigma_g": "calibrate"},
        sketch_b=16, optimizer="gd", accountant={"delta": 1e-5, "target_epsilon": 4.0},
    )


def _solve(eps, q, T, b, delta=1e-5, tau=1.0):
    return {"eps": eps, "delta": delta, "q": q, "T": T, "tau": tau, "b": b}


# Calibration solves from the paper's tables and the repo's experiments.
CALIB_SOLVES = (
    # scripts/privacy_tables.py: image schedule q = 4/625, T = 500, b = 4e5
    [_solve(eps, 4 / 625, 500, 400_000) for eps in (2.75, 1.60, 0.42, 0.18)]
    # scripts/sketch_dim_sweep.py: the b grid at eps = 1.6
    + [_solve(1.60, 4 / 625, 500, b) for b in (4_000, 40_000, 400_000, 4_000_000)]
    # configs/quadratic.json and scripts/convergence_experiment.py
    + [_solve(4.0, 4 / 16, 100, 16), _solve(8.0, 8 / 64, 300, 50)]
)

FED_WORKLOADS = {"fed_dense": fed_dense, "fed_small": fed_small}
WORKLOADS = (*FED_WORKLOADS, "calib")


def make_spec(workload, seed, out_dir):
    """The workload's inputs, made from the seed alone, written under out_dir."""
    if workload == "calib":
        solves = list(CALIB_SOLVES)
        random.Random(seed).shuffle(solves)
        return {"kind": "calibrate", "solves": solves}
    cfg = FED_WORKLOADS[workload](seed)
    path = os.path.join(out_dir, "config.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=1)
    return {"kind": "simulate", "config": path, "rounds": cfg["federation"]["rounds"]}


def run_process(spec_path, work_dir, keep_as, trace=False):
    """One workload process; returns its report plus wall_s measured from outside.

    Every process writes to the same directory, which the manifest records,
    so reruns can be compared byte for byte; it is then renamed to keep_as.
    """
    out_dir = os.path.join(work_dir, "out")
    os.makedirs(out_dir)
    script = os.path.join(HERE, "workload.py")
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, script, spec_path, out_dir, repr(t0), "1" if trace else "0"],
        capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S,
    )
    wall_s = time.monotonic() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload process failed with exit code {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    keep = os.path.join(work_dir, keep_as)
    os.rename(out_dir, keep)
    report.update(wall_s=wall_s, out_dir=keep)
    return report


def end_to_end(runs):
    med = statistics.median
    return {
        "setup_s": (med(r["setup_s"] for r in runs), "s"),
        "ops_per_s": (med(r["ops"] / r["ops_s"] for r in runs), "1/s"),
        "wall_s": (med(r["wall_s"] for r in runs), "s"),
        "peak_rss_mb": (med(r["peak_rss_mb"] for r in runs), "MB"),
    }


# Span names whose self time is reported per round, as "<name>_s".
ROUND_LAYERS = (
    "fedsim.streams", "fedsim.local_update", "tasks.client_grad", "mechanism.privatize",
    "sketch.generate", "sketch.apply", "sketch.desketch", "fedsim.server", "optim.step",
    "tasks.eval", "accountant.round_epsilon",
)


def _layers(report):
    """One traced process's per-layer figures; see README.md for the units."""
    tr = report["trace"]
    self_s, calls = tr["self_s"], tr["calls"]
    rounds = report["ops"] if "fedsim.loop" in calls else 0

    def per_round(x):
        return x / rounds if rounds else 0.0

    def per_solve(span, value):
        return value / calls[span] if calls.get(span) else 0.0

    out = {
        "import_s": (report["import_s"], "s"),
        "config.load_s": (self_s.get("config.load", 0.0), "s"),
        "tasks.build_s": (self_s.get("tasks.build", 0.0), "s"),
        "accountant.calibrate_s": (
            per_solve("accountant.calibrate", self_s.get("accountant.calibrate", 0.0)), "s/solve"),
        "accountant.sgm_evals": (
            per_solve("accountant.calibrate", calls.get("accountant.sgm_eval", 0)), "count/solve"),
        "accountant.baseline_calibrate_s": (
            per_solve("accountant.baseline_calibrate",
                      self_s.get("accountant.baseline_calibrate", 0.0)), "s/solve"),
        "accountant.baseline_evals": (
            per_solve("accountant.baseline_calibrate",
                      calls.get("accountant.baseline_eval", 0)), "count/solve"),
        "fedsim.streams_created": (per_round(calls.get("fedsim.streams", 0)), "count/round"),
    }
    for name in ROUND_LAYERS:
        out[name + "_s"] = (per_round(self_s.get(name, 0.0)), "s/round")
    out["sketch.rows_generated_per_round"] = (per_round(tr["sketch_rows"]), "count/round")
    out["tasks.eval_calls_per_round"] = (per_round(calls.get("tasks.eval", 0)), "count/round")
    out["fedsim.loop_self_s"] = (per_round(self_s.get("fedsim.loop", 0.0)), "s/round")
    out["cli.write_s"] = (self_s.get("cli.write", 0.0), "s")
    covered = report["import_s"] + sum(self_s.values())
    out["trace.uncovered_s"] = (report["wall_s"] - covered, "s")
    return out


def per_layer(traced, untraced):
    """Medians over the traced processes, and the tracing overhead."""
    layers = [_layers(r) for r in traced]
    metrics = {
        name: (statistics.median(lay[name][0] for lay in layers), unit)
        for name, (_, unit) in layers[0].items()
    }
    med_wall = [statistics.median(r["wall_s"] for r in rs) for rs in (traced, untraced)]
    metrics["trace.overhead_s"] = (med_wall[0] - med_wall[1], "s")
    return metrics


def environment():
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **{k: os.environ[k] for k in THREAD_ENV},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join("src", "fedsgm", "__init__.py")):
        sys.exit("run from the root of a fedsgm checkout: src/fedsgm is missing")

    out_dir = os.path.join(OUT_ROOT, args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    spec = make_spec(args.workload, args.seed, out_dir)
    spec_path = os.path.join(out_dir, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh, indent=1)

    runs = []
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(runs) % 2 == 1
        runs.append(run_process(spec_path, out_dir, f"run{len(runs)}", traced))
        done = time.monotonic() - start >= args.seconds and len(runs) >= MIN_PROCESSES
        if done and not (args.trace and len(runs) % 2):
            break

    sys.path.insert(0, os.path.abspath("src"))
    import checks
    import fedsgm

    check = checks.check_calibrate if spec["kind"] == "calibrate" else checks.check_simulate
    errors, failed = check(fedsgm, spec, [r["out_dir"] for r in runs])
    for err in errors:
        print(f"check failed: {err}")

    untraced = [r for r in runs if "trace" not in r]
    if args.trace:
        metrics = per_layer([r for r in runs if "trace" in r], untraced)
    else:
        metrics = end_to_end(untraced)
    env = environment()
    summary = {"workload": args.workload, "seed": args.seed, "processes": len(runs),
               "environment": env}
    print(json.dumps(summary, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6g} {unit}")
    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump({**summary, "errors": errors, "reports": runs}, fh, indent=1)
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r["ops"] for r in runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
