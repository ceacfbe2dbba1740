#!/usr/bin/env python3
"""Private federated training on a power-law quadratic: GD vs AMSGrad server.

Calibrates sigma_g to the requested epsilon, runs both server optimizers at
the identical budget plus a non-private ablation, writes one CSV per run,
and prints a summary.  The task has intrinsic dimension ~1.6 despite d = 200,
which is the regime where sketching to b = d/4 costs little accuracy.
Each run is a config checked by the schema, as `fed-sgm simulate` runs one.
"""

import argparse
import os
import sys
import warnings

from fedsgm.cli import exit_code
from fedsgm.config import build_fed_config, build_task, validate_config
from fedsgm.fedsim import run_federation, write_round_csv
from fedsgm.tasks import _HESSIAN_DIM_LIMIT, intrinsic_dimension


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--eps", type=float, default=8.0)
    ap.add_argument("--delta", type=float, default=1e-5)
    ap.add_argument("--rounds", type=int, default=300)
    ap.add_argument("--d", type=int, default=200)
    ap.add_argument("--b", type=int, default=50)
    ap.add_argument("--out-dir", default="runs")
    args = ap.parse_args()
    if args.d > _HESSIAN_DIM_LIMIT:
        print(f"error: --d = {args.d} > {_HESSIAN_DIM_LIMIT}: the intrinsic dimension needs "
              f"the dense Hessian", file=sys.stderr)
        return 1

    def config(optimizer, eta_global, sigma_g):
        return validate_config({
            "task": {"kind": "quadratic", "d": args.d, "seed": 7, "heterogeneity": 0.5,
                     "center_scale": 5.0},
            "federation": {"clients": 64, "clients_per_round": 8, "local_steps": 10,
                           "rounds": args.rounds, "eta_local": 0.04, "eta_global": eta_global,
                           "master_seed": 17},
            "mechanism": {"tau": 1.0, "sigma_g": sigma_g, "noise_seed": 5},
            "sketch": {"b": args.b},
            "optimizer": {"kind": optimizer},
            "accountant": {"delta": args.delta, "target_epsilon": args.eps},
        })

    gd = config("gd", 0.2, "calibrate")
    task, part = build_task(gd)
    runs = {"gd": build_fed_config(gd)}
    sigma = runs["gd"].mechanism.sigma_g
    runs["amsgrad"] = build_fed_config(config("amsgrad", 0.005, sigma))
    runs["gd-nonprivate"] = build_fed_config(config("gd", 0.2, 0.0))
    print(f"d = {args.d}, b = {args.b}, intrinsic dimension = {intrinsic_dimension(task):.3f}")
    print(f"calibrated sigma_g = {sigma:.4f} at eps = {args.eps:g}, delta = {args.delta:g}")

    os.makedirs(args.out_dir, exist_ok=True)
    g0 = task.grad(task.theta0)
    print(f"{'run':>14}  {'final loss':>12}  {'grad_norm_sq':>12}  {'reduction':>10}  {'clip rate':>9}")
    for name, cfg in runs.items():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the ablation reports eps = inf
            result = run_federation(cfg, task, part)
        path = os.path.join(args.out_dir, f"convergence-{name}.csv")
        write_round_csv(path, result.records)
        last = result.records[-1]
        reduction = float(g0 @ g0) / last.grad_norm_sq
        print(
            f"{name:>14}  {last.train_loss:>12.6f}  {last.grad_norm_sq:>12.3e}"
            f"  {reduction:>9.1f}x  {last.clip_activation_rate:>9.2f}"
        )
    print(f"round-by-round curves written to {args.out_dir}/convergence-*.csv")
    return 0


if __name__ == "__main__":
    raise SystemExit(exit_code(main))
