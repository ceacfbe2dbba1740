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

R_t depends on (master_seed, round) alone, not on theta_t, so a run's
sketches are one sequence, drawn in round order.  Where a kept sketch has at
least _AHEAD_MIN_ENTRIES entries the sequence runs on one worker thread,
which starts drawing R_{t+1} when the round loop takes R_t; every round,
round 0 included, then only waits for its sketch.  The worker draws the same
streams, so the bytes of a run do not depend on it.  The loop drops
R_{t-1} before it takes R_t, so at most two sketches are alive (the one in
use and the one being drawn); it draws ahead only where two fit under
DENSE_MAX_ENTRIES, and never past the last round.

Each round's iterate theta_{t+1} is scored on the full data (train loss,
||grad L||^2, test metric), but not at once: the loop keeps a window of
pending rounds and scores them together, in one pass over the data, once
task.eval_window of them are pending, at the last round, or as soon as an
iterate is non-finite.  The records are then appended in round order with the
numbers of a round-by-round run.  Rounds trained from a pending iterate are
speculative: a numpy warning raises in them instead, and the round is
trained again once the window is scored, so that a run whose pending iterate
diverged reports that round, as a round-by-round run would, and any other
run warns as one would.  Any other error in such a round is raised after the
window is scored, so a pending divergence is reported first.

The server never sees a raw d-dimensional client delta: `server_round`
rejects a payload matrix whose rows are not b-dimensional.

Every source of randomness is a Philox stream, so runs are reproducible bit
for bit.  Each role (sampler, minibatch, noise, sketch) has one key per run,
and a stream is addressed by its counter [0, 0, i, t]: i is the client (the
sketch's row block, 0 for the sampler) and t the round.  The main thread
draws every stream (and a sketch drawn inline) from one generator, set to the
stream's key and counter before its draws; the worker that draws sketches
ahead has a generator of its own.  A stream is used only when the round draws
from it: a client whose minibatch covers its shard gets no minibatch stream,
and a run with sigma_g = 0 gets no noise streams.  Since each stream starts
at its own counter, skipping one changes no other draw.
"""

from __future__ import annotations

import itertools
import json
import os
import tempfile
import threading
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__
from .accountant import AccountantParams, delta_split, sgm_epsilon
from .errors import ConfigurationError, DimensionMismatchError, ParameterRegimeError
from ._philox import new_generator, reseed, role_key
from .mechanism import MechanismConfig, clip
from .optim import MomentState, adam_step, amsgrad_step, gd_step
from .sketch import Compressor, IdentityCompressor, SketchMatrix, SketchSpec, keeps_blocks, sketch_key
from .tasks import Partition, Task

CSV_SCHEMA = "# fed-sgm csv v1"
CSV_COLUMNS = ("round", "train_loss", "grad_norm_sq", "test_metric", "clip_rate", "epsilon_spent")

# Domain-separation tags of the run's random streams
_SAMPLER_TAG = 0xC11E
_LOCAL_TAG = 0x10CA
_NOISE_TAG = 0x401E

# A kept sketch with at least this many entries is drawn one round ahead on a
# worker thread.  Below it the handoff costs more than the draw: drawing
# every sketch ahead on the one worker cost 2000-round fed_small (b*d = 1024,
# setup included, 2 vCPUs) 8-12% of its rounds/s (median 2849 -> 2607 and
# 1896 -> 1601 in two series of alternating runs, slower in 26 of 32 pairs).
# fed_dense (b*d = 1e6) draws a sketch in 18 ms of a 42-ms round (one BLAS
# thread, median of 10 seeds), which the worker hides only while a second
# core is free.
_AHEAD_MIN_ENTRIES = 2**16


@dataclass(frozen=True)
class FedConfig:
    """Everything needed to reproduce one federated run.

    An unchecked record: `config.build_fed_config` builds it from a config
    that the schema has validated.  Each of the schema's `federation` keys is
    a field of the same name; delta is `accountant.delta`, at which
    epsilon_spent is accounted.
    """

    clients: int
    clients_per_round: int
    local_steps: int
    rounds: int
    eta_local: float
    eta_global: float
    batch_size: int
    mechanism: MechanismConfig
    delta: float
    sketch_b: Optional[int] = None  # None = identity compressor (no sketching, epsilon = inf)
    optimizer: str = "gd"
    master_seed: int = 0

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


def client_sampler(rng: np.random.Generator, key, counter, clients: int,
                   clients_per_round: int) -> np.ndarray:
    """Uniform without-replacement client sample, sorted, from rng set to the
    sampler key at a round's counter; deterministic in (seed, round)."""
    return np.sort(reseed(rng, key, counter).choice(clients, size=clients_per_round, replace=False))


# A (client, round) minibatch or noise stream: the generator set to the role's
# key at the pair's counter.  One name per role, so each role is counted apart.
local_stream = noise_stream = reseed


def client_local_update(
    theta: np.ndarray,
    task: Task,
    shards: list,
    local_steps: int,
    eta_local: float,
    key,
    counters,
    rng: Optional[np.random.Generator],
    batch_size: Optional[int] = None,
) -> np.ndarray:
    """K steps of minibatch SGD from theta for each of a round's N clients
    (sample indices `shards`), as one (N, d) batch with one task.grad call per
    step; returns the N x d deltas theta - theta_K, which the server subtracts.

    A client whose batch_size covers its shard (None: full shards) draws
    nothing; client i otherwise draws its K minibatches in step order from rng
    set to the minibatch key at counters[i], so the N streams share rng.
    """
    batches = []
    for i, shard in enumerate(shards):
        if batch_size is None or batch_size >= len(shard):
            batches.append([shard] * local_steps)
        else:
            stream = local_stream(rng, key, counters[i])
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
    key,
    counters,
    rng: Optional[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray]:
    """Clip each client's delta over the local step size, sketch all of them
    in one pass, add each client's noise, restore scale.

    deltas is N x d, one row per client.  Row i of the returned N x b payload
    matrix is eta_local * (R @ clip(deltas[i]/eta_local, tau) + sigma_g * xi_i),
    xi_i drawn from rng set to the noise key at counters[i], so the N streams
    share rng (key, counters and rng are not read when sigma_g = 0); the N
    flags say which rows were clipped.
    """
    scaled = np.asarray(deltas, dtype=np.float64) / eta_local
    rows, clipped = zip(*(clip(row, mech.tau) for row in scaled))
    sketched = compressor.sketch(np.array(rows).T).T
    if mech.sigma_g != 0.0:
        noise = np.array([noise_stream(rng, key, counter).standard_normal(compressor.b)
                          for counter in counters])
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


def round_compressor(sketches) -> Compressor:
    """The next round's compressor from the run's sequence (`_sketches`);
    waits for it where it is drawn ahead, and re-raises what its draw raised."""
    return next(sketches)


def _sketches(cfg: FedConfig, d: int, rng: np.random.Generator):
    """Each round's compressor in round order: the identity when unsketched,
    else a fresh sketch of (master_seed, round), drawn by rng from the run's
    one sketch key."""
    if cfg.sketch_b is None:
        yield from itertools.repeat(IdentityCompressor(d), cfg.rounds)
        return
    key = sketch_key(cfg.master_seed)
    for t in range(cfg.rounds):
        yield SketchMatrix(SketchSpec(b=cfg.sketch_b, d=d, seed=cfg.master_seed, round=t), key, rng)


class _SketchAhead(threading.Thread):
    """An iterator run on the run's worker thread, one item ahead: the item
    after the one last taken is drawn while the main thread uses that one.
    next() waits for the item and re-raises what its draw raised; close()
    lets a draw in progress finish, drops one not started, and joins.

    One thread serves the whole run.  A thread per sketch took fed_dense's
    peak RSS from 434 to 449 MB (2 vCPUs, glibc): a round that only waits
    for its sketch starts the next thread before the last has fully exited,
    so a draw can land in a fresh malloc arena."""

    def __init__(self, items):
        super().__init__(name="fedsgm-sketch")
        self._items, self._out, self._closed = items, None, False
        self._wanted, self._drawn = threading.Semaphore(1), threading.Semaphore(0)
        self.start()

    def run(self):
        while self._wanted.acquire() and not self._closed:
            try:  # no local name holds the item once it is taken
                self._out = (next(self._items), None)
            except BaseException as exc:  # StopIteration included; re-raised by next()
                self._out = (None, exc)
            self._drawn.release()

    def __next__(self):
        self._drawn.acquire()
        (item, error), self._out = self._out, None
        self._wanted.release()
        if error is not None:
            raise error
        return item

    def close(self):
        self._closed = True
        self._wanted.release()
        self.join()


def _draws_ahead(cfg: FedConfig, d: int) -> bool:
    """Whether the run's sketches are drawn one round ahead; they are drawn
    inline for no sketch, one round, a regenerated or small sketch, or one of
    which two would not be kept."""
    if cfg.sketch_b is None or cfg.rounds == 1:
        return False
    return cfg.sketch_b * d >= _AHEAD_MIN_ENTRIES and keeps_blocks(2 * cfg.sketch_b, d)


def _rounds(cfg: FedConfig, rng: np.random.Generator):
    """Per round t: (t, its sorted clients, their stream counters [0, 0, c, t]),
    the clients drawn by rng at the sampler's counter [0, 0, 0, t]."""
    key = role_key(cfg.master_seed, _SAMPLER_TAG)
    for t in range(cfg.rounds):
        chosen = client_sampler(rng, key, [0, 0, 0, t], cfg.clients, cfg.clients_per_round)
        clients = chosen.tolist()
        yield t, clients, [[0, 0, c, t] for c in clients]


def _train_round(cfg, task, theta, moments, shards, compressor, counters, local, noise, rng):
    """One round from theta: the clients' local updates, their private
    payloads and the server's step; returns (theta_{t+1}, moments, clip flags)."""
    deltas = client_local_update(theta, task, shards, cfg.local_steps, cfg.eta_local, local,
                                 counters, rng, cfg.batch_size)
    payloads, clipped = client_privatize(deltas, cfg.eta_local, cfg.mechanism, compressor, noise,
                                         counters, rng)
    return (*server_round(theta, payloads, compressor, cfg, moments), clipped)


def _score(cfg: FedConfig, task: Task, window: list) -> list:
    """The records of the pending rounds in window, (t, theta_{t+1}, clip
    flags) each, in round order.  Their iterates go through the task's
    full-data grad and evaluate as one stack (a single iterate as a vector);
    raises at the first round whose iterate or metrics are non-finite."""
    thetas = [theta for _, theta, _ in window]
    stack = thetas[0] if len(thetas) == 1 else np.array(thetas)
    # a diverging run overflows here; the check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        grads = task.grad(stack)
        losses, metrics = task.evaluate(stack)
        if len(thetas) == 1:  # one result each, as for a stack of one
            grads, losses, metrics = [grads], [losses], [metrics]
        norms = [float(g @ g) for g in grads]
    records = []
    for (t, theta, clipped), grad_norm_sq, train_loss, test_metric in zip(
        window, norms, losses, metrics
    ):
        train_loss, test_metric = float(train_loss), float(test_metric)
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
    return records


def _epsilon_spent(cfg: FedConfig, rounds_done: int) -> float:
    """epsilon of the first rounds_done rounds at cfg.delta.  Where their
    per-release delta0 = delta/(2 q T) is not below 1, they are accounted at
    the smallest T whose delta0 is: the first rounds_done releases are a
    prefix, so a post-processing, of the first T."""
    if cfg.sketch_b is None:
        # an unsketched release is a plain Gaussian sum, outside the sketched analysis
        warnings.warn("privacy accounting covers sketched releases only; reporting epsilon = inf")
        return float("inf")
    T = max(rounds_done, int(0.5 * cfg.delta / cfg.q))  # no smaller T has delta0 < 1
    while delta_split(cfg.delta, cfg.q, T)[0] >= 1.0:
        T += 1
    try:
        params = AccountantParams(q=cfg.q, T=T, tau=cfg.mechanism.tau, b=cfg.sketch_b,
                                  sigma_g=cfg.mechanism.sigma_g)
        return sgm_epsilon(params, cfg.delta)
    except (ParameterRegimeError, ConfigurationError) as exc:
        warnings.warn(f"privacy accounting unavailable ({exc}); reporting epsilon = inf")
        return float("inf")


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def run_federation(cfg: FedConfig, task: Task, partition: Partition) -> FederationResult:
    """Full federated run over the task's client partition; returns per-round
    records with the final iterate attached."""
    if partition.num_clients != cfg.clients:
        raise ConfigurationError(
            f"partition has {partition.num_clients} clients, config says {cfg.clients}"
        )
    if partition.n != task.n:
        raise ConfigurationError("partition and task disagree on the sample count")
    d = task.d
    theta = task.theta0.astype(np.float64).copy()
    moments = None if cfg.optimizer == "gd" else MomentState.init(d)
    records, pending = [], []  # pending: (t, theta_{t+1}, clip flags), not yet scored

    def score_pending():
        window, pending[:] = pending[:], []
        records.extend(_score(cfg, task, window))

    # a numpy warning in a round trained from a pending iterate raises instead
    speculative = {kind: "raise" for kind, mode in np.geterr().items() if mode != "ignore"}
    rng = new_generator()  # each stream drawn on this thread sets it to its key and counter
    local = role_key(cfg.master_seed, _LOCAL_TAG)
    noise = role_key(cfg.mechanism.noise_seed, _NOISE_TAG)
    shards = [partition.client_indices(c) for c in range(cfg.clients)]
    ahead = _draws_ahead(cfg, d)
    sketches = _sketches(cfg, d, new_generator() if ahead else rng)
    if ahead:
        sketches = _SketchAhead(sketches)
    try:
        for t, clients, counters in _rounds(cfg, rng):
            args = None  # drops round t-1's sketch before round t's is taken
            try:
                args = (cfg, task, theta, moments, [shards[c] for c in clients],
                        round_compressor(sketches), counters, local, noise, rng)
                with np.errstate(**(speculative if pending else {})):
                    theta, moments, clipped = _train_round(*args)
            except Exception as exc:
                if not pending:
                    raise
                score_pending()  # a pending round that diverged is reported first
                if not isinstance(exc, FloatingPointError):
                    raise
                theta, moments, clipped = _train_round(*args)  # warns as unwindowed
            pending.append((t, theta, clipped))
            full = len(pending) == task.eval_window or t == cfg.rounds - 1
            if full or not np.isfinite(theta).all():
                score_pending()
    finally:
        if isinstance(sketches, _SketchAhead):
            sketches.close()
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


def strict_json(record) -> str:
    """record as strict JSON, indented and key-sorted: a non-finite float at
    any depth is written as its repr string ("inf", "nan"), never as the
    Infinity or NaN that JSON parsers reject."""

    def safe(x):
        if isinstance(x, dict):
            return {k: safe(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [safe(v) for v in x]
        return repr(float(x)) if isinstance(x, float) and not np.isfinite(x) else x

    return json.dumps(safe(record), indent=2, sort_keys=True, allow_nan=False)


def write_manifest(path: str, config_dict: dict, accountant_meta: dict):
    """JSON manifest: full config + accountant metadata; deterministic bytes."""
    payload = {
        "format": "fed-sgm manifest v1",
        "package_version": __version__,
        "config": config_dict,
        "accountant": accountant_meta,
    }
    _atomic_write(path, strict_json(payload) + "\n")
