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

R_t depends on (master_seed, round) alone, not on theta_t.  A kept sketch of
at least _AHEAD_MIN_ENTRIES entries is therefore drawn one round ahead, on
one worker thread, while the current round runs; the round then only waits
for it.  The worker draws from the same block keys with a generator of its
own, so the bytes of a run do not depend on it.  It draws ahead only where
two sketches fit under DENSE_MAX_ENTRIES, so at most two are alive, and never
past the last round.

The server never sees a raw d-dimensional client delta: `server_round`
rejects a payload matrix whose rows are not b-dimensional.

Every source of randomness is a Philox substream keyed by role, round, and
client, so runs are reproducible bit for bit.  Keys are computed in bulk, and
each role's one generator is reset to a key before that stream's draws.  A
substream is used only when the round draws from it: a client whose minibatch
covers its shard gets no minibatch stream, and a run with sigma_g = 0 gets no
noise streams.  Since each substream is keyed independently, skipping one
changes no other draw.
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
from ._philox import new_generator, philox_keys, reseed
from .mechanism import MechanismConfig, clip
from .optim import MomentState, adam_step, amsgrad_step, gd_step
from .sketch import Compressor, IdentityCompressor, SketchMatrix, SketchSpec, block_keys, keeps_blocks
from .tasks import Partition, Task, iid_partition

CSV_SCHEMA = "# fed-sgm csv v1"
CSV_COLUMNS = ("round", "train_loss", "grad_norm_sq", "test_metric", "clip_rate", "epsilon_spent")

# Domain-separation tags of the run's random streams
_SAMPLER_TAG = 0xC11E
_LOCAL_TAG = 0x10CA
_NOISE_TAG = 0x401E

_KEY_CHUNK = 256  # rounds keyed per pass: the key arrays stay small for any number of rounds

# A kept sketch with at least this many entries is drawn one round ahead on a
# worker thread.  Below it the handoff costs more than the draw: drawing
# every sketch ahead took fed_small (b*d = 1024) from 2199 to 1328 rounds/s,
# while fed_dense (b*d = 1e6, 26 ms of a 100-ms round to draw) gains.
_AHEAD_MIN_ENTRIES = 2**16

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
        if self.optimizer != "gd":  # the moment optimizers' own range checks
            MomentState.init(0, beta1=self.beta1, beta2=self.beta2, eps=self.opt_eps)
        if self.sketch_b is not None and self.sketch_b < 1:
            raise ConfigurationError(f"sketch_b must be >= 1, got {self.sketch_b}")
        if not 0.0 < self.delta < 1.0:
            raise ConfigurationError(f"delta must be in (0,1), got {self.delta}")
        if self.master_seed < 0:
            raise ConfigurationError(f"master_seed must be >= 0, got {self.master_seed}")

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


def client_sampler(rng: np.random.Generator, key, clients: int, clients_per_round: int) -> np.ndarray:
    """Uniform without-replacement client sample, sorted, from rng reset to a
    round's sampler key; deterministic in (seed, round)."""
    return np.sort(reseed(rng, key).choice(clients, size=clients_per_round, replace=False))


# A (client, round) minibatch or noise stream: the role's generator reset to
# the pair's key.  One name per role, so each role's streams are counted apart.
local_stream = noise_stream = reseed


def client_local_update(
    theta: np.ndarray,
    task: Task,
    shards: list,
    local_steps: int,
    eta_local: float,
    keys,
    rng: Optional[np.random.Generator],
    batch_size: Optional[int] = None,
) -> np.ndarray:
    """K steps of minibatch SGD from theta for each of a round's N clients
    (sample indices `shards`), as one (N, d) batch with one task.grad call per
    step; returns the N x d deltas theta - theta_K, which the server subtracts.

    A client whose batch_size covers its shard (None: full shards) draws
    nothing; client i otherwise draws its K minibatches in step order from rng
    reset to keys[i], so the N streams share rng.
    """
    batches = []
    for i, shard in enumerate(shards):
        if batch_size is None or batch_size >= len(shard):
            batches.append([shard] * local_steps)
        else:
            stream = local_stream(rng, keys[i])
            batches.append([stream.choice(shard, size=batch_size, replace=False)
                            for _ in range(local_steps)])
    theta = np.asarray(theta, dtype=np.float64)
    theta_c = np.tile(theta, (len(shards), 1))
    for step in zip(*batches):
        theta_c -= eta_local * task.grad(theta_c, step)
    return theta - theta_c


def client_privatize(
    deltas: np.ndarray,
    eta_local: float,
    mech: MechanismConfig,
    compressor: Compressor,
    keys,
    rng: Optional[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray]:
    """Clip each client's delta over the local step size, sketch all of them
    in one pass, add each client's noise, restore scale.

    deltas is N x d, one row per client.  Row i of the returned N x b payload
    matrix is eta_local * (R @ clip(deltas[i]/eta_local, tau) + sigma_g * xi_i),
    xi_i drawn from rng right after its reset to the client's noise key
    keys[i], so the N streams share rng (neither is read when sigma_g = 0);
    the N flags say which rows were clipped.
    """
    scaled = np.asarray(deltas, dtype=np.float64) / eta_local
    rows, clipped = zip(*(clip(row, mech.tau) for row in scaled))
    sketched = compressor.sketch(np.array(rows).T).T
    if mech.sigma_g != 0.0:
        noise = np.array([noise_stream(rng, key).standard_normal(compressor.b) for key in keys])
        sketched = sketched + mech.sigma_g * noise
    return eta_local * sketched, np.array(clipped)


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


def _round_spec(cfg: FedConfig, d: int, round_idx: int) -> SketchSpec:
    return SketchSpec(b=cfg.sketch_b, d=d, seed=(cfg.master_seed, round_idx))


def round_compressor(cfg: FedConfig, d: int, round_idx: int, keys, rng, ahead=None) -> Compressor:
    """Fresh sketch per round, seeded by (master_seed, round), its blocks'
    Philox keys (`block_keys`) drawn by rng; or the identity.

    ahead, when given, is the future of this round's sketch drawn on the
    worker from the same keys: the call only waits for it, and re-raises
    what the draw raised."""
    if ahead is not None:
        return ahead.result()
    if cfg.sketch_b is None:
        return IdentityCompressor(d)
    return SketchMatrix(_round_spec(cfg, d, round_idx), keys, rng)


def _ahead_pool(cfg: FedConfig, d: int):
    """A one-thread pool that draws the run's sketches one round ahead, or
    None where they are drawn inline: no sketch, one round, a regenerated or
    small sketch, or one of which two would not be kept."""
    if cfg.sketch_b is None or cfg.rounds == 1:
        return None
    if cfg.sketch_b * d < _AHEAD_MIN_ENTRIES or not keeps_blocks(2 * cfg.sketch_b, d):
        return None
    from concurrent.futures import ThreadPoolExecutor  # ~7 ms to import, paid on this path only

    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="fedsgm-sketch")


def _with_next(items):
    """Each item paired with the one after it (None after the last)."""
    items = iter(items)
    item = next(items, None)
    while item is not None:
        following = next(items, None)
        yield item, following
        item = following


def _round_keys(cfg: FedConfig, rng: np.random.Generator):
    """Per round: (round, clients, their minibatch and noise keys, the sketch's
    block keys), None where the run draws no noise or sketch; keyed _KEY_CHUNK
    rounds at a time, one pass per role, after the chunk's clients are drawn."""
    for start in range(0, cfg.rounds, _KEY_CHUNK):
        rounds = np.arange(start, min(start + _KEY_CHUNK, cfg.rounds))
        chosen = np.array([
            client_sampler(rng, key, cfg.clients, cfg.clients_per_round)
            for key in philox_keys((cfg.master_seed, _SAMPLER_TAG), (rounds,))
        ])
        col, unused = rounds[:, None], [None] * len(rounds)
        local = philox_keys((cfg.master_seed, _LOCAL_TAG), (chosen, col))
        noise = unused if cfg.mechanism.sigma_g == 0.0 else philox_keys(
            (cfg.mechanism.noise_seed, _NOISE_TAG), (chosen, col))
        sketch = unused if cfg.sketch_b is None else block_keys((cfg.master_seed, col), cfg.sketch_b)
        yield from zip(rounds.tolist(), chosen.tolist(), local, noise, sketch)


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
    records = []
    sampler_rng, local_rng, noise_rng, sketch_rng = (new_generator() for _ in range(4))
    shards = [partition.client_indices(c) for c in range(cfg.clients)]
    keyed = _with_next(_round_keys(cfg, sampler_rng))
    pool, ahead = _ahead_pool(cfg, d), None
    try:
        for (t, clients, local, noise, sketch), following in keyed:
            # the previous round's sketch is released here, before the next is drawn
            compressor = round_compressor(cfg, d, t, sketch, sketch_rng, ahead)
            if pool is not None and following is not None:
                next_t, *_, next_keys = following
                ahead = pool.submit(SketchMatrix, _round_spec(cfg, d, next_t), next_keys)
            deltas = client_local_update(
                theta, task, [shards[c] for c in clients], cfg.local_steps, cfg.eta_local,
                local, local_rng, cfg.batch_size,
            )
            payloads, clipped = client_privatize(
                deltas, cfg.eta_local, cfg.mechanism, compressor, noise, noise_rng
            )
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
            records.append(RoundRecord(
                round=t, train_loss=train_loss, grad_norm_sq=grad_norm_sq, test_metric=test_metric,
                clip_activation_rate=float(np.count_nonzero(clipped) / len(clipped)),
                epsilon_spent=_epsilon_spent(cfg, t + 1)))
    finally:
        if pool is not None:  # waits for a draw still running, cancels one not started
            pool.shutdown(cancel_futures=True)
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
        values = (r.train_loss, r.grad_norm_sq, r.test_metric, r.clip_activation_rate, r.epsilon_spent)
        lines.append(",".join([str(r.round), *map(repr, values)]))
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
