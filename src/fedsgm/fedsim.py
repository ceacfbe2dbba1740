"""Federated training with sketched, clipped, noised client updates.

Round structure: the server broadcasts theta_t and a fresh sketch R_t; each
selected client runs K local SGD steps, rescales its model delta by the local
step size, clips it to tau, and ships the sketched+noised result.  The server
averages the payloads in sketched space, lifts the mean through R_t^T, and
feeds it to a pluggable optimizer (plain step, AMSGrad, or Adam).

The server never sees a raw d-dimensional client delta: client payloads are
b-dimensional `PrivatizedUpdate`s and `server_round` rejects anything whose
shape disagrees with the round's compressor.

Every source of randomness is a Philox substream keyed by role, round, and
client, so runs are reproducible bit for bit.
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
from .mechanism import MechanismConfig, clip, noise_stream, sgm_apply
from .optim import AdamState, AmsGradState, adam_step, amsgrad_step, gd_step
from .sketch import Compressor, SketchSpec, identity_compressor, sample_sketch
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
    sketch_b: Optional[int] = None  # None = identity compressor (no sketching)
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
        if self.sketch_b is not None and self.mechanism.b != self.sketch_b:
            raise ConfigurationError(
                f"mechanism.b = {self.mechanism.b} disagrees with sketch_b = {self.sketch_b}"
            )
        if not 0.0 < self.delta < 1.0:
            raise ConfigurationError(f"delta must be in (0,1), got {self.delta}")

    @property
    def q(self) -> float:
        return self.clients_per_round / self.clients


@dataclass(frozen=True)
class ClientData:
    """One client's view of the task: the shared objective plus its own indices."""

    task: Task
    indices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "indices", np.asarray(self.indices))
        if len(self.indices) == 0:
            raise ConfigurationError("empty client dataset")


@dataclass(frozen=True)
class PrivatizedUpdate:
    """Sketched-space client payload; the only thing a client hands the server."""

    client_id: int
    payload: np.ndarray
    clipped: bool


@dataclass(frozen=True)
class RoundRecord:
    """Metrics of the global iterate after one round."""

    round: int
    selected_clients: tuple
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


@dataclass(frozen=True)
class ServerState:
    kind: str
    eta_global: float
    opt_state: object = None  # AmsGradState | AdamState | None for "gd"


def init_server_state(cfg: FedConfig, d: int) -> ServerState:
    if cfg.optimizer == "gd":
        return ServerState("gd", cfg.eta_global, None)
    hyper = dict(beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.opt_eps)
    if cfg.optimizer == "amsgrad":
        return ServerState("amsgrad", cfg.eta_global, AmsGradState.init(d, **hyper))
    return ServerState("adam", cfg.eta_global, AdamState.init(d, **hyper))


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


def client_local_update(
    theta: np.ndarray,
    client_data: ClientData,
    local_steps: int,
    eta_local: float,
    rng: np.random.Generator,
    batch_size: Optional[int] = None,
) -> np.ndarray:
    """K steps of minibatch SGD from theta; returns delta = theta - theta_K.

    batch_size = None means full-shard gradients.  The delta points along the
    accumulated (stochastic) gradient direction, so the server subtracts it."""
    shard = client_data.indices
    task = client_data.task
    theta_c = np.asarray(theta, dtype=np.float64).copy()
    for _ in range(local_steps):
        if batch_size is None or batch_size >= len(shard):
            batch = shard
        else:
            batch = rng.choice(shard, size=batch_size, replace=False)
        theta_c -= eta_local * task.grad(theta_c, batch)
    return theta - theta_c


def client_privatize(
    delta: np.ndarray,
    eta_local: float,
    mech: MechanismConfig,
    compressor: Compressor,
    rng: np.random.Generator,
    client_id: int = -1,
) -> PrivatizedUpdate:
    """Clip the delta over the local step size, sketch it, add noise, restore scale.

    payload = eta_local * (R @ clip(delta/eta_local, tau) + xi).
    """
    if compressor.b != mech.b:
        raise DimensionMismatchError(
            f"compressor emits {compressor.b}-dim payloads but mechanism.b = {mech.b}"
        )
    scaled = np.asarray(delta, dtype=np.float64) / eta_local
    clipped_flag = bool(np.linalg.norm(scaled) > mech.tau)
    payload = eta_local * sgm_apply(clip(scaled, mech.tau), compressor, mech.sigma_g, rng)
    return PrivatizedUpdate(client_id=client_id, payload=payload, clipped=clipped_flag)


def server_round(
    theta: np.ndarray,
    updates: list,
    compressor: Compressor,
    server_state: ServerState,
) -> tuple[np.ndarray, ServerState]:
    """Average payloads in sketched space, desketch, and step the optimizer.

    Updates are summed in client-id order so the result is independent of
    arrival order (bit for bit)."""
    if not updates:
        raise ConfigurationError("server_round needs at least one update")
    ordered = sorted(updates, key=lambda u: u.client_id)
    for u in ordered:
        if u.payload.shape != (compressor.b,):
            raise DimensionMismatchError(
                f"client {u.client_id} payload has shape {u.payload.shape}; "
                f"server accepts only sketched-space vectors of shape ({compressor.b},)"
            )
    mean_payload = np.mean(np.stack([u.payload for u in ordered]), axis=0)
    direction = compressor.desketch(mean_payload)
    eta_global = server_state.eta_global
    if server_state.kind == "gd":
        return gd_step(theta, direction, eta_global), server_state
    if server_state.kind == "amsgrad":
        theta2, opt2 = amsgrad_step(theta, direction, server_state.opt_state, eta_global)
    else:
        theta2, opt2 = adam_step(theta, direction, server_state.opt_state, eta_global)
    return theta2, ServerState(server_state.kind, eta_global, opt2)


def round_compressor(cfg: FedConfig, d: int, round_idx: int) -> Compressor:
    """Fresh sketch per round, seeded by (master_seed, round); or the identity."""
    if cfg.sketch_b is None:
        return identity_compressor(d)
    return sample_sketch(SketchSpec(b=cfg.sketch_b, d=d, seed=(cfg.master_seed, round_idx)))


def _epsilon_spent(cfg: FedConfig, d: int, rounds_done: int) -> float:
    b = cfg.sketch_b if cfg.sketch_b is not None else d
    try:
        return sgm_epsilon(
            AccountantParams(
                q=cfg.q,
                T=rounds_done,
                tau=cfg.mechanism.tau,
                b=b,
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
    expected_b = cfg.sketch_b if cfg.sketch_b is not None else d
    if cfg.mechanism.b != expected_b:
        raise ConfigurationError(
            f"mechanism.b = {cfg.mechanism.b} but payloads are {expected_b}-dimensional"
        )
    theta = task.theta0.astype(np.float64).copy()
    server_state = init_server_state(cfg, d)
    records = []

    for t in range(cfg.rounds):
        selected = client_sampler(cfg.clients, cfg.clients_per_round, t, cfg.master_seed)
        compressor = round_compressor(cfg, d, t)

        updates = []
        for c in selected.tolist():
            delta = client_local_update(
                theta,
                ClientData(task, partition.client_indices(c)),
                cfg.local_steps,
                cfg.eta_local,
                local_stream(cfg.master_seed, c, t),
                batch_size=cfg.batch_size,
            )
            updates.append(
                client_privatize(
                    delta,
                    cfg.eta_local,
                    cfg.mechanism,
                    compressor,
                    noise_stream(cfg.mechanism.noise_seed, c, t),
                    client_id=c,
                )
            )

        theta, server_state = server_round(theta, updates, compressor, server_state)

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
                selected_clients=tuple(int(c) for c in selected),
                train_loss=train_loss,
                grad_norm_sq=grad_norm_sq,
                test_metric=test_metric,
                clip_activation_rate=float(np.mean([u.clipped for u in updates])),
                epsilon_spent=_epsilon_spent(cfg, d, t + 1),
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
