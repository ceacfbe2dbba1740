#!/usr/bin/env python3
"""Calibrated noise across privacy budgets and sketch dimensions, sketched vs unsketched.

For each target epsilon, calibrates the classical subsampled-Gaussian noise
multiplier once and the sketched mechanism's sigma_g for each sketch
dimension b, at the same (eps, delta), then prints one row per (eps, b) with
both and their ratio; sigma_g falls as b grows.  Defaults match the
image-workload schedule (q = 4/625, T = 500, b = 4e5); pass --T/--b for other
schedules, and several --b values to sweep the sketch dimension.
"""

import argparse

from fedsgm.accountant import DpPoint, calibrate_baseline_sigma, calibrate_sgm_sigma
from fedsgm.cli import exit_code


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--eps", type=float, nargs="+", default=[2.75, 1.60, 0.42, 0.18])
    ap.add_argument("--delta", type=float, default=1e-5)
    ap.add_argument("--q", type=float, default=4 / 625)
    ap.add_argument("--T", type=int, default=500)
    ap.add_argument("--tau", type=float, default=1.0)
    ap.add_argument("--b", type=int, nargs="+", default=[400_000])
    args = ap.parse_args()

    print(f"q = {args.q:g}, T = {args.T}, tau = {args.tau:g}, delta = {args.delta:g}")
    print(f"{'eps':>8}  {'b':>10}  {'sigma_g (sketched)':>20}  {'noise std (baseline)':>21}  {'ratio':>7}")
    for eps in args.eps:
        target = DpPoint(eps, args.delta)
        baseline = calibrate_baseline_sigma(target, q=args.q, T=args.T) * args.tau
        for b in args.b:
            sigma = calibrate_sgm_sigma(target, q=args.q, T=args.T, tau=args.tau, b=b)
            print(f"{eps:>8.2f}  {b:>10}  {sigma:>20.4f}  {baseline:>21.4f}  {sigma / baseline:>7.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(exit_code(main))
