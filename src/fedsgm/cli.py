"""Command-line front end.

Subcommands:
  calibrate   noise scale meeting an (eps, delta) target, with baseline comparison
  accountant  forward accounting: sigma -> per-stage (eps, delta) trace
  simulate    run a federated config; emit round CSV + JSON manifest
  diagnose    curvature/gradient-noise report and predicted error-term magnitudes

Exit codes: 0 success, 1 usage or config error (an allocation failure
included), 2 infeasible privacy target or parameter-regime violation.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import __version__
from .accountant import (
    AccountantParams,
    DpPoint,
    baseline_gm_epsilon,
    calibrate_baseline_sigma,
    calibrate_sgm_sigma,
    delta_split,
    rdp_bound_validity,
    sgm_pipeline,
)
from .config import build_fed_config, build_task, load_config
from .errors import (
    CalibrationError,
    ConfigurationError,
    FedSgmError,
    ParameterRegimeError,
)
from .fedsim import run_federation, strict_json, write_manifest, write_round_csv
from .mechanism import sensitivity_ratio
from .tasks import _HESSIAN_DIM_LIMIT, estimate_G_and_sigma_s, intrinsic_dimension


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; this CLI reserves 2 for
    # infeasible privacy targets, so route usage problems through code 1.
    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# calibrate / accountant
# ---------------------------------------------------------------------------


def _add_accounting_args(p, with_sigma: bool):
    if with_sigma:
        p.add_argument("--sigma", type=float, required=True, help="noise std sigma_g")
    else:
        p.add_argument("--eps", type=float, required=True, help="target epsilon")
    p.add_argument("--delta", type=float, required=True, help="target delta")
    p.add_argument("--q", type=float, required=True, help="participation probability")
    p.add_argument("--T", type=int, required=True, help="number of rounds")
    p.add_argument("--tau", type=float, required=True, help="clip threshold")
    p.add_argument("--b", type=int, required=True, help="sketch dimension")
    p.add_argument("--json", action="store_true", help="emit a JSON record")


def cmd_calibrate(args) -> int:
    target = DpPoint(args.eps, args.delta)
    sigma = calibrate_sgm_sigma(target, args.q, args.T, args.tau, args.b)
    achieved = sgm_pipeline(
        AccountantParams(q=args.q, T=args.T, tau=args.tau, b=args.b, sigma_g=sigma),
        args.delta,
    ).epsilon
    baseline_mult = calibrate_baseline_sigma(target, args.q, args.T)
    baseline_std = baseline_mult * args.tau
    record = {
        "target_epsilon": args.eps,
        "delta": args.delta,
        "q": args.q,
        "T": args.T,
        "tau": args.tau,
        "b": args.b,
        "sigma_g": sigma,
        "achieved_epsilon": achieved,
        "baseline_noise_std": baseline_std,
        "noise_ratio": sigma / baseline_std,
    }
    if args.json:
        print(strict_json(record))
    else:
        print(f"sigma_g            = {sigma:.6g}   (achieves eps = {achieved:.6g})")
        print(f"baseline noise std = {baseline_std:.6g}   (unsketched Gaussian at the same eps)")
        print(f"noise ratio        = {sigma / baseline_std:.4g}x")
    return 0


def cmd_accountant(args) -> int:
    params = dict(q=args.q, T=args.T, tau=args.tau, b=args.b, sigma=args.sigma, delta=args.delta)
    record = {"mechanism": args.mechanism, "params": params, "delta": args.delta}
    if args.mechanism == "baseline":
        eps = baseline_gm_epsilon(args.sigma, args.q, args.T, args.delta)
        record.update(method="sampled-gaussian RDP, integer orders 2..256", epsilon=eps)
        lines = [f"baseline subsampled Gaussian: eps = {eps:.6g} at delta = {args.delta:g}"]
    elif args.sigma == 0.0:
        # non-private ablation: no noise means no finite guarantee
        record.update(alpha_star=None, regime_ok=False, epsilon=math.inf, pipeline_trace=[])
        lines = ["sigma_g = 0: non-private ablation mode, epsilon = inf"]
    else:
        trace = sgm_pipeline(
            AccountantParams(q=args.q, T=args.T, tau=args.tau, b=args.b, sigma_g=args.sigma),
            args.delta,
        )
        record.update(
            alpha_star=trace.alpha_star, regime_ok=True, epsilon=trace.epsilon, delta=trace.delta,
            pipeline_trace=[{"stage": s.name, "epsilon": s.eps, "delta": s.delta} for s in trace.stages],
        )
        lines = [f"alpha* = {trace.alpha_star:.6g}"] + [
            f"  {s.name:<11} eps = {s.eps:<12.6g} delta = {s.delta:.6g}" for s in trace.stages
        ]
    print(strict_json(record) if args.json else "\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _manifest_dicts(cfg: dict, fed_cfg, result):
    sigma = fed_cfg.mechanism.sigma_g
    config_dict = {s: dict(v) for s, v in cfg.items()}
    config_dict["mechanism"]["sigma_g_resolved"] = sigma
    accountant_meta = {
        "q": fed_cfg.q,
        "rounds": fed_cfg.rounds,
        "b_effective": fed_cfg.sketch_b,
        "tau": fed_cfg.mechanism.tau,
        "sigma_g": sigma,
        "delta": fed_cfg.delta,
        "epsilon_total": result.records[-1].epsilon_spent,
    }
    return config_dict, accountant_meta


def _make_out_dir(out_dir: str):
    """Create the output directory before the run, so a bad one fails first."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create output directory {out_dir}: {exc.strerror}")


def cmd_simulate(config_path, overrides=(), out_dir=None) -> int:
    cfg = load_config(config_path, overrides)
    if out_dir is not None:
        cfg["output"]["dir"] = out_dir
    out_dir = cfg["output"]["dir"]
    prefix = cfg["output"]["prefix"]
    _make_out_dir(out_dir)
    fed_cfg = build_fed_config(cfg)
    task, partition = build_task(cfg)
    result = run_federation(fed_cfg, task, partition)

    csv_path = os.path.join(out_dir, f"{prefix}.csv")
    manifest_path = os.path.join(out_dir, f"{prefix}-manifest.json")
    write_round_csv(csv_path, result.records)
    config_dict, accountant_meta = _manifest_dicts(cfg, fed_cfg, result)
    write_manifest(manifest_path, config_dict, accountant_meta)

    last = result.records[-1]
    print(f"wrote {csv_path}")
    print(f"wrote {manifest_path}")
    print(
        f"final round {last.round}: train_loss = {last.train_loss:.6g}, "
        f"grad_norm_sq = {last.grad_norm_sq:.6g}, "
        f"{task.test_metric_name} = {last.test_metric:.6g}, "
        f"epsilon_spent = {last.epsilon_spent:.6g}"
    )
    return 0


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------


def cmd_diagnose(config_path, overrides=()) -> int:
    cfg = load_config(config_path, overrides)
    if cfg["task"]["d"] > _HESSIAN_DIM_LIMIT:
        raise ConfigurationError(
            f"task.d = {cfg['task']['d']} > {_HESSIAN_DIM_LIMIT}: diagnose needs the dense Hessian"
        )
    fed_cfg = build_fed_config(cfg)
    task, partition = build_task(cfg)
    opt_kind = fed_cfg.optimizer
    sigma = fed_cfg.mechanism.sigma_g
    K = fed_cfg.local_steps
    N = fed_cfg.clients_per_round
    T = fed_cfg.rounds
    b = fed_cfg.sketch_b
    eta_l, eta_g = fed_cfg.eta_local, fed_cfg.eta_global
    eta = eta_g * eta_l
    tau = fed_cfg.mechanism.tau

    I = intrinsic_dimension(task)

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(fed_cfg.master_seed)))
    probes = [task.theta0] + [
        task.theta0 + 0.1 * rng.standard_normal(task.d) for _ in range(2)
    ]
    G, sigma_s = estimate_G_and_sigma_s(
        task, partition, probes, fed_cfg.batch_size, seed=fed_cfg.master_seed
    )

    clip_active = tau < K * G
    e_c = max(0.0, G * (K * G - tau) / K)
    if opt_kind == "gd":
        e_g = eta * I * sigma * sigma / (N * K)
        drift_term = eta * I * tau * tau / K
    else:
        e_g = (eta_l + eta * I) * sigma * sigma / (N * K)
        drift_term = (eta_l + eta * I) * tau * tau / K
    loss0 = float(task.loss(task.theta0))
    gap = loss0 - task.minimum_value if math.isfinite(task.minimum_value) else math.nan
    e_s_terms = {
        "(L(theta0)-L*)/(eta*T*K)": (gap / (eta * T * K)) if math.isfinite(gap) else math.nan,
        "1/sqrt(N*T)": 1.0 / math.sqrt(N * T),
        "eta_local*K": eta_l * K,
        "tau/(sqrt(b*T)*K)": tau / (math.sqrt(b * T) * K),
        "drift*tau^2 term": drift_term,
        "1/(eta*T*K)": 1.0 / (eta * T * K),
    }

    print(f"task: {task.name} (d = {task.d}, n = {task.n}, clients = {partition.num_clients})")
    print(f"intrinsic dimension I = {I:.6g}")
    print(f"gradient bound G_est = {G:.6g}, minibatch noise sigma_s_est = {sigma_s:.6g}")
    print(
        f"clip regime: tau = {tau:g} vs K*G_est = {K * G:.6g} -> "
        f"{'clipping ACTIVE' if clip_active else 'clipping inactive'}"
    )
    print(f"optimizer: {opt_kind} (sigma_g = {sigma:.6g})")
    q, delta = fed_cfg.q, fed_cfg.delta
    delta0, _ = delta_split(delta, q, T)
    print(f"accounting regime at delta0 = delta/(2qT) = {delta0:.4g}:")
    if sigma == 0.0:
        print("  r, alpha*, alpha*^2 r: n/a (sigma_g = 0, no privacy)")
    else:
        r = sensitivity_ratio(tau, b, sigma)
        print(f"  r = 2 tau^2/(b sigma_g^2) = {r:.4g}")
        try:
            params = AccountantParams(q=q, T=T, tau=tau, b=b, sigma_g=sigma)
            alpha = sgm_pipeline(params, delta).alpha_star
        except ParameterRegimeError:
            print("  alpha*: n/a (r >= 1, outside the accounting regime)")
        else:
            verdict = "valid" if rdp_bound_validity(alpha, tau, b, sigma) else "not valid"
            print(f"  alpha* = {alpha:.4g}, alpha*^2 r = {alpha * alpha * r:.4g}")
            print(f"  rdp_bound_validity at alpha*: {verdict}")
    print("predicted error-term magnitudes (order-of-magnitude, constants and log factors dropped):")
    print(f"  E_c = {e_c:.6g}")
    print(f"  E_g = {e_g:.6g}")
    print("  E_s terms:")
    for name, val in e_s_terms.items():
        shown = "n/a (unknown minimum)" if math.isnan(val) else f"{val:.6g}"
        print(f"    {name:<28} {shown}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parse_args keeps no state."""
    parser = _Parser(prog="fed-sgm", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"fed-sgm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="calibrate sigma_g to an epsilon target")
    _add_accounting_args(p, with_sigma=False)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("accountant", help="forward accounting for a given sigma_g")
    _add_accounting_args(p, with_sigma=True)
    p.add_argument("--mechanism", choices=("sgm", "baseline"), default="sgm")
    p.set_defaults(func=cmd_accountant)

    p = sub.add_parser("simulate", help="run one federated config")
    p.add_argument("config", help="path to a JSON run config")
    p.add_argument("--override", action="append", default=[], metavar="SECTION.KEY=VALUE")
    p.add_argument("--out-dir", default=None, help="override output.dir")
    p.set_defaults(func=lambda a: cmd_simulate(a.config, a.override, a.out_dir))

    p = sub.add_parser("diagnose", help="curvature and error-term report for a config")
    p.add_argument("config")
    p.add_argument("--override", action="append", default=[], metavar="SECTION.KEY=VALUE")
    p.set_defaults(func=lambda a: cmd_diagnose(a.config, a.override))
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    return exit_code(args.func, args)


def exit_code(run, *args) -> int:
    """run(*args), or the exit code of a package or out-of-memory error it
    raises, printed as one stderr line; the CLI and the scripts end through it."""
    try:
        return run(*args)
    except (CalibrationError, ParameterRegimeError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except FedSgmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # a task or sketch too large for this host (a huge task.d or task.n)
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
