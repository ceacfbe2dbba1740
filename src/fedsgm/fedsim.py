"""Federated training with sketched, clipped, noised client updates.

Round structure: the server broadcasts theta_t and a fresh sketch R_t; each
of the N selected clients runs K local SGD steps, rescales its model delta by
the local step size, and clips it to tau.  R_t is linear, so the N clipped
deltas go through it as one d x N matrix in a single sketch pass; each client
then adds noise from its own (client, round) stream.  The result is an N x b
payload matrix, one row per client in sorted client order.  The server
averages its rows in sketched space, lifts the mean through R_t^T, and feeds
it to a pluggable optimizer (plain step, AMSGrad, or Adam).  A streamed sketch
is therefore generated twice per round: once to sketch, once to desketch.

The server never sees a raw d-dimensional client delta: `server_round`
rejects a payload matrix whose rows are not b-dimensional.

Every source of randomness is a Philox substream keyed by role, round, and
client, so runs are reproducible bit for bit.  A substream is built only when
the round draws from it: a client whose minibatch covers its shard gets no
minibatch stream, and a run with sigma_g = 0 gets no noise streams.  Since
each substream is keyed independently, skipping one changes no other draw.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__
from .accountant import AccountantParams, sgm_epsilon
from .errors import ConfigurationError, DimensionMismatchError, ParameterRegimeError
from .mechanism import MechanismConfig, clip, noise_stream
from .optim import MomentState, adam_step, amsgrad_step, gd_step
from .sketch import Compressor, IdentityCompressor, SketchSpec, sample_sketch
from .tasks import Partition, Task, iid_partition

CSV_SCHEMA = "# fed-sgm csv v1"
CSV_COLUMNS = ("round", "train_loss", "grad_norm_sq", "test_metric", "clip_rate", "epsilon_spent")

_SAMPLER_TAG = 0xC11E
_LOCAL_TAG = 0x10CA

_OPTIMIZERS = ("gd", "amsgrad", "adam")


@dataclass(frozen=True)
class FedConfig:
    """Everything needed to reproduce one federated run."""

    clients: int
    clients_per_round: int
    local_steps: int
    rounds: int
    eta_local: float
    eta_global: float
    batch_size: int
    mechanism: MechanismConfig
    sketch_b: Optional[int] = None  # None = identity compressor (no sketching, epsilon = inf)
    optimizer: str = "gd"
    beta1: float = 0.9
    beta2: float = 0.99
    opt_eps: float = 1e-8
    delta: float = 1e-5
    master_seed: int = 0

    def __post_init__(self):
        if self.clients < 1 or not 1 <= self.clients_per_round <= self.clients:
            raise ConfigurationError(
                f"need 1 <= clients_per_round <= clients, got "
                f"{self.clients_per_round}/{self.clients}"
            )
        if self.local_steps < 1 or self.rounds < 1 or self.batch_size < 1:
            raise ConfigurationError("local_steps, rounds, batch_size must be >= 1")
        for name, eta in (("eta_local", self.eta_local), ("eta_global", self.eta_global)):
            if not 0 < eta < np.inf:
                raise ConfigurationError(f"{name} must be finite and positive, got {eta}")
        if self.optimizer not in _OPTIMIZERS:
            raise ConfigurationError(
                f"unknown optimizer {self.optimizer!r}; expected one of {_OPTIMIZERS}"
            )
        if self.sketch_b is not None and self.sketch_b < 1:
            raise ConfigurationError(f"sketch_b must be >= 1, got {self.sketch_b}")
        if not 0.0 < self.delta < 1.0:
            raise ConfigurationError(f"delta must be in (0,1), got {self.delta}")

    @property
    def q(self) -> float:
        return self.clients_per_round / self.clients


@dataclass(frozen=True)
class RoundRecord:
    """Metrics of the global iterate after one round."""

    round: int
    train_loss: float
    grad_norm_sq: float
    test_metric: float
    clip_activation_rate: float
    epsilon_spent: float


@dataclass(frozen=True)
class FederationResult:
    """The per-round records plus the final iterate."""

    records: list
    theta: np.ndarray


# ---------------------------------------------------------------------------
# Round building blocks
# ---------------------------------------------------------------------------


def client_sampler(clients: int, clients_per_round: int, round_idx: int, master_seed: int) -> np.ndarray:
    """Uniform without-replacement client sample; deterministic in (seed, round)."""
    if not 1 <= clients_per_round <= clients:
        raise ConfigurationError(
            f"need 1 <= clients_per_round <= clients, got {clients_per_round}/{clients}"
        )
    ss = np.random.SeedSequence((int(master_seed), _SAMPLER_TAG), spawn_key=(int(round_idx),))
    rng = np.random.Generator(np.random.Philox(ss))
    return np.sort(rng.choice(clients, size=clients_per_round, replace=False))


def local_stream(master_seed: int, client_id: int, round_idx: int) -> np.random.Generator:
    """Minibatch-selection stream for one (client, round); independent of noise streams."""
    ss = np.random.SeedSequence(
        (int(master_seed), _LOCAL_TAG), spawn_key=(int(client_id), int(round_idx))
    )
    return np.random.Generator(np.random.Philox(ss))


def covers_shard(batch_size: Optional[int], shard: np.ndarray) -> bool:
    """Whether every local step uses the whole shard, so no minibatch is drawn."""
    return batch_size is None or batch_size >= len(shard)


def client_local_update(
    theta: np.ndarray,
    task: Task,
    shard: np.ndarray,
    local_steps: int,
    eta_local: float,
    rng: Optional[np.random.Generator],
    batch_size: Optional[int] = None,
) -> np.ndarray:
    """K steps of minibatch SGD on the client's sample indices `shard` from
    theta; returns delta = theta - theta_K.

    batch_size = None means full-shard gradients.  rng is read only when
    minibatches are drawn (see `covers_shard`), so it may be None otherwise.
    The delta points along the accumulated (stochastic) gradient direction,
    so the server subtracts it."""
    theta_c = np.asarray(theta, dtype=np.float64).copy()
    full = covers_shard(batch_size, shard)
    for _ in range(local_steps):
        batch = shard if full else rng.choice(shard, size=batch_size, replace=False)
        theta_c -= eta_local * task.grad(theta_c, batch)
    return theta - theta_c


def client_privatize(
    deltas: np.ndarray,
    eta_local: float,
    mech: MechanismConfig,
    compressor: Compressor,
    rngs: list,
) -> tuple[np.ndarray, np.ndarray]:
    """Clip each client's delta over the local step size, sketch all of them
    in one pass, add each client's noise, restore scale.

    deltas is N x d, one row per client, and rngs holds the N clients' noise
    streams in the same order; it is not read when sigma_g = 0.  Row i of the
    returned N x b payload matrix is eta_local * (R @ clip(deltas[i]/eta_local,
    tau) + xi_i) with xi_i drawn from rngs[i], as `sgm_apply` defines it for
    one vector; the N flags say which rows were clipped.
    """
    scaled = np.asarray(deltas, dtype=np.float64) / eta_local
    clipped = np.array([np.linalg.norm(row) > mech.tau for row in scaled])
    sketched = compressor.sketch(np.array([clip(row, mech.tau) for row in scaled]).T).T
    if mech.sigma_g != 0.0:
        noise = np.array([rng.standard_normal(compressor.b) for rng in rngs])
        sketched = sketched + mech.sigma_g * noise
    return eta_local * sketched, clipped


def server_round(
    theta: np.ndarray,
    payloads: np.ndarray,
    compressor: Compressor,
    cfg: FedConfig,
    moments: Optional[MomentState],
) -> tuple[np.ndarray, Optional[MomentState]]:
    """Average the N x b payload matrix's rows in sketched space, desketch the
    mean, and take cfg.optimizer's step of size cfg.eta_global.

    moments is the adaptive optimizers' state, None for "gd"; the new state
    is returned with the new iterate.

    Row i is the payload of the round's i-th selected client in sorted order,
    so the mean is reproducible bit for bit."""
    payloads = np.asarray(payloads, dtype=np.float64)
    if payloads.ndim != 2 or payloads.shape[1] != compressor.b:
        raise DimensionMismatchError(
            f"payload matrix has shape {payloads.shape}; the server accepts only "
            f"sketched-space rows, shape (N, {compressor.b})"
        )
    if len(payloads) == 0:
        raise ConfigurationError("server_round needs at least one payload")
    # np.mean's own arithmetic (sum, then divide by the count) without its
    # Python wrapper, so the bits are the same
    mean_payload = np.add.reduce(payloads, axis=0) / len(payloads)
    direction = compressor.desketch(mean_payload)
    if cfg.optimizer == "gd":
        return gd_step(theta, direction, cfg.eta_global), moments
    step = amsgrad_step if cfg.optimizer == "amsgrad" else adam_step
    return step(theta, direction, moments, cfg.eta_global)


def round_compressor(cfg: FedConfig, d: int, round_idx: int) -> Compressor:
    """Fresh sketch per round, seeded by (master_seed, round); or the identity."""
    if cfg.sketch_b is None:
        return IdentityCompressor(d)
    return sample_sketch(SketchSpec(b=cfg.sketch_b, d=d, seed=(cfg.master_seed, round_idx)))


def _epsilon_spent(cfg: FedConfig, rounds_done: int) -> float:
    if cfg.sketch_b is None:
        # an unsketched release is a plain Gaussian sum, outside the sketched analysis
        warnings.warn("privacy accounting covers sketched releases only; reporting epsilon = inf")
        return float("inf")
    try:
        return sgm_epsilon(
            AccountantParams(
                q=cfg.q,
                T=rounds_done,
                tau=cfg.mechanism.tau,
                b=cfg.sketch_b,
                sigma_g=cfg.mechanism.sigma_g,
            ),
            cfg.delta,
        )
    except (ParameterRegimeError, ConfigurationError) as exc:
        warnings.warn(f"privacy accounting unavailable ({exc}); reporting epsilon = inf")
        return float("inf")


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def run_federation(
    cfg: FedConfig, task: Task, partition: Optional[Partition] = None
) -> FederationResult:
    """Full federated run; returns per-round records with the final iterate attached.

    When no partition is given the samples are split IID across cfg.clients
    (seeded by master_seed)."""
    if partition is None:
        partition = iid_partition(task.n, cfg.clients, seed=cfg.master_seed)
    if partition.num_clients != cfg.clients:
        raise ConfigurationError(
            f"partition has {partition.num_clients} clients, config says {cfg.clients}"
        )
    if partition.n != task.n:
        raise ConfigurationError("partition and task disagree on the sample count")
    d = task.d
    theta = task.theta0.astype(np.float64).copy()
    moments = None if cfg.optimizer == "gd" else MomentState.init(
        d, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.opt_eps
    )
    noisy = cfg.mechanism.sigma_g != 0.0
    records = []

    for t in range(cfg.rounds):
        clients = client_sampler(cfg.clients, cfg.clients_per_round, t, cfg.master_seed).tolist()
        compressor = round_compressor(cfg, d, t)

        # streams are built only for the draws the round makes
        shards = [partition.client_indices(c) for c in clients]
        deltas = np.array([
            client_local_update(
                theta,
                task,
                shard,
                cfg.local_steps,
                cfg.eta_local,
                None if covers_shard(cfg.batch_size, shard)
                else local_stream(cfg.master_seed, c, t),
                batch_size=cfg.batch_size,
            )
            for c, shard in zip(clients, shards)
        ])
        rngs = [noise_stream(cfg.mechanism.noise_seed, c, t) for c in clients] if noisy else []
        payloads, clipped = client_privatize(deltas, cfg.eta_local, cfg.mechanism, compressor, rngs)
        theta, moments = server_round(theta, payloads, compressor, cfg, moments)

        # a diverging run overflows here; the check below reports it
        with np.errstate(over="ignore", invalid="ignore"):
            g = task.grad(theta)
            grad_norm_sq = float(g @ g)
            train_loss, test_metric = task.evaluate(theta)
        if not (
            np.isfinite(theta).all() and np.isfinite([train_loss, grad_norm_sq, test_metric]).all()
        ):
            raise ConfigurationError(
                f"the run diverged in round {t}: the iterate or its metrics are non-finite; "
                f"lower the step sizes (eta_local = {cfg.eta_local}, eta_global = {cfg.eta_global})"
            )
        records.append(
            RoundRecord(
                round=t,
                train_loss=train_loss,
                grad_norm_sq=grad_norm_sq,
                test_metric=test_metric,
                clip_activation_rate=float(np.count_nonzero(clipped) / len(clipped)),
                epsilon_spent=_epsilon_spent(cfg, t + 1),
            )
        )
    return FederationResult(records, theta)


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def records_to_csv(records: list) -> str:
    """Render records with full-precision (repr) floats under a versioned header."""
    lines = [CSV_SCHEMA, ",".join(CSV_COLUMNS)]
    for r in records:
        lines.append(
            ",".join(
                [
                    str(r.round),
                    repr(r.train_loss),
                    repr(r.grad_norm_sq),
                    repr(r.test_metric),
                    repr(r.clip_activation_rate),
                    repr(r.epsilon_spent),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def write_round_csv(path: str, records: list):
    _atomic_write(path, records_to_csv(records))


def write_manifest(path: str, config_dict: dict, accountant_meta: dict):
    """JSON manifest: full config + accountant metadata; deterministic bytes."""
    payload = {
        "format": "fed-sgm manifest v1",
        "package_version": __version__,
        "config": config_dict,
        "accountant": accountant_meta,
    }
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
