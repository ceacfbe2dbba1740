"""Federated driver tests: client steps, privatization, aggregation, full runs.

Runs with sigma_g = 0 are non-private ablations; the accountant reports
epsilon = inf with a warning, which several tests capture on purpose.
"""

import gc
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from fedsgm import fedsim
from fedsgm import sketch as sketch_module
from fedsgm import tasks as tasks_module
from fedsgm._philox import new_generator
from fedsgm.accountant import AccountantParams, sgm_epsilon
from fedsgm.errors import ConfigurationError, DimensionMismatchError
from fedsgm.fedsim import (
    FedConfig,
    client_local_update,
    client_privatize,
    client_sampler,
    records_to_csv,
    run_federation,
    server_round,
)
from fedsgm.mechanism import MechanismConfig, clip
from fedsgm.optim import MomentState, adam_step, amsgrad_step, gd_step
from fedsgm.sketch import IdentityCompressor, SketchMatrix, SketchSpec
from fedsgm.tasks import Task, make_federated_quadratic, make_logreg

NO_CLIP = 1e9  # tau large enough that clipping never activates in these runs


def diag_quadratic_task():
    """L(theta) = 0.5 theta^T diag(1,2) theta on a single sample."""
    H = np.diag([1.0, 2.0])
    return Task(
        name="diag",
        d=2,
        n=1,
        loss=lambda theta, idx=None: float(0.5 * theta @ H @ theta),
        grad=lambda theta, idx=None: theta @ H,  # one iterate or an (N, 2) stack
        hessian=lambda theta: H,
        theta0=np.zeros(2),
        minimum_value=0.0,
    )


def numpy_key(seed, tag):
    """A role's key, from numpy's SeedSequence as the oracle."""
    return np.random.SeedSequence((seed, tag)).generate_state(2, np.uint64)


def numpy_stream(seed, tag, i, t):
    """The oracle of stream i in round t: numpy's Philox at the counter [0, 0, i, t]."""
    return np.random.Generator(np.random.Philox(key=numpy_key(seed, tag), counter=[0, 0, i, t]))


def counters(client_ids, round_idx):
    return [[0, 0, c, round_idx] for c in client_ids]


def sample(clients, clients_per_round, round_idx, seed):
    return client_sampler(new_generator(), numpy_key(seed, fedsim._SAMPLER_TAG),
                          [0, 0, 0, round_idx], clients, clients_per_round)


def small_fed_config(**over):
    base = dict(
        clients=4,
        clients_per_round=2,
        local_steps=2,
        rounds=3,
        eta_local=0.1,
        eta_global=0.5,
        batch_size=4,
        mechanism=MechanismConfig(tau=1.0, sigma_g=0.8, noise_seed=1),
        delta=1e-5,
        sketch_b=None,
        optimizer="gd",
        master_seed=7,
    )
    base.update(over)
    return FedConfig(**base)


# ---------------------------------------------------------------------------
# client local update


def test_local_update_single_step_is_scaled_gradient():
    task = diag_quadratic_task()
    # from the origin the identity is exact
    (delta0,) = client_local_update(np.zeros(2), task, [np.array([0])], 1, 0.1, None, None, None)
    assert np.array_equal(delta0, 0.1 * task.grad(np.zeros(2)))
    theta = np.array([1.0, 1.0])
    (delta,) = client_local_update(theta, task, [np.array([0])], 1, 0.1, None, None, None)
    assert np.allclose(delta, 0.1 * task.grad(theta), rtol=1e-12, atol=1e-15)


def test_local_update_zero_step_size():
    deltas = client_local_update(
        np.array([1.0, 1.0]), diag_quadratic_task(), [np.array([0])] * 3, 3, 0.0, None, None, None
    )
    assert np.array_equal(deltas, np.zeros((3, 2)))


def test_local_update_two_step_hand_trace():
    # A = diag(1, 2), theta0 = (1, 1), eta = 0.1, K = 2, full batch:
    # step 1: theta = (0.9, 0.8); step 2: theta = (0.81, 0.64)
    # delta = (0.19, 0.36), traced by hand.
    (delta,) = client_local_update(
        np.array([1.0, 1.0]), diag_quadratic_task(), [np.array([0])], 2, 0.1, None, None, None
    )
    assert np.allclose(delta, [0.19, 0.36], rtol=1e-12, atol=0)


def test_local_update_minibatch_deterministic():
    task, part = make_logreg(n=40, d=5, clients=2, seed=1)
    shard = [part.client_indices(0)]
    theta = np.full(5, 0.3)

    def update(seed, round_idx):
        key = numpy_key(seed, fedsim._LOCAL_TAG)
        return client_local_update(theta, task, shard, 4, 0.05, key, counters([0], round_idx),
                                   new_generator(), batch_size=5)

    d1, d2, d3 = update(9, 2), update(9, 2), update(9, 3)
    assert np.array_equal(d1, d2)
    assert not np.array_equal(d1, d3)


def test_batched_local_update_is_each_clients_own_update():
    # one (N, d) batch over ragged shards, minibatches drawn from one shared
    # generator, equals each client's update from a fresh generator on its
    # own: the logistic task's client rows keep their bits
    task, part = make_logreg(n=43, d=7, clients=5, seed=4)  # shards of 8 and 9
    shards = [part.client_indices(c) for c in (0, 2, 3, 4)]
    assert {len(s) for s in shards} == {8, 9}
    theta = np.linspace(-0.5, 0.5, 7)
    key, ctrs = numpy_key(6, fedsim._LOCAL_TAG), counters([0, 2, 3, 4], 11)
    calls = []

    def counted_grad(theta, idx=None):
        calls.append(np.shape(theta))
        return grad(theta, idx)

    grad, task.grad = task.grad, counted_grad
    deltas = client_local_update(theta, task, shards, 3, 0.2, key, ctrs, new_generator(), batch_size=4)
    assert calls == [(4, 7)] * 3  # one grad call per local step
    for i, shard in enumerate(shards):
        (alone,) = client_local_update(
            theta, task, [shard], 3, 0.2, key, ctrs[i : i + 1], new_generator(), batch_size=4
        )
        assert np.array_equal(deltas[i], alone), i
    # a batch that covers every shard draws nothing
    full = client_local_update(theta, task, shards, 2, 0.2, None, None, None, batch_size=9)
    for i, shard in enumerate(shards):
        ref = theta - 0.2 * task.grad(theta, shard)
        ref = ref - 0.2 * task.grad(ref, shard)
        assert np.array_equal(full[i], theta - ref), i


# ---------------------------------------------------------------------------
# client privatize


def test_privatize_noiseless_identity_within_threshold():
    mech = MechanismConfig(tau=10.0, sigma_g=0.0)
    deltas = np.array([[0.25, -0.5, 0.125], [0.5, 0.0, -0.25]])  # binary fractions: /0.5 is exact
    payloads, clipped = client_privatize(deltas, 0.5, mech, IdentityCompressor(3), None, None, None)
    assert np.array_equal(payloads, deltas)
    assert clipped.tolist() == [False, False]


def test_privatize_clip_saturation_norm():
    mech = MechanismConfig(tau=1.0, sigma_g=0.0)
    eta = 0.5
    deltas = eta * np.array([[2.0, 0.0, 0.0, 0.0], [0.0, 0.0, 3.0, 0.0]])  # normalized norms 2, 3 tau
    payloads, clipped = client_privatize(deltas, eta, mech, IdentityCompressor(4), None, None, None)
    assert clipped.tolist() == [True, True]
    assert np.linalg.norm(payloads, axis=1).tolist() == [eta * mech.tau] * 2


def test_privatize_clip_flag_boundary():
    mech = MechanismConfig(tau=1.0, sigma_g=0.0)
    deltas = np.array([[0.3, 0.4], [3.0, 4.0]])
    _, clipped = client_privatize(deltas, 1.0, mech, IdentityCompressor(2), None, None, None)
    assert clipped.tolist() == [False, True]


def test_privatize_dimension_mismatch():
    mech = MechanismConfig(tau=1.0, sigma_g=0.0)
    R = SketchMatrix(SketchSpec(b=4, d=16, seed=0))
    with pytest.raises(DimensionMismatchError):
        client_privatize(np.zeros((2, 8)), 1.0, mech, R, None, None, None)


def test_privatize_payload_lives_in_sketched_space():
    mech = MechanismConfig(tau=1.0, sigma_g=0.5, noise_seed=2)
    R = SketchMatrix(SketchSpec(b=4, d=16, seed=0))
    payloads, clipped = client_privatize(np.ones((3, 16)), 1.0, mech, R, numpy_key(2, fedsim._NOISE_TAG),
                                         counters(range(3), 0), new_generator())
    assert payloads.shape == (3, 4)
    assert clipped.shape == (3,)


@pytest.mark.parametrize("mode", ["dense", "stream", "identity"])
def test_privatize_matrix_matches_per_client_reference(monkeypatch, mode):
    # one sketch pass over the d x N matrix equals clip, sketch and noise per client,
    # with the sketch's row blocks kept ("dense") or regenerated ("stream")
    d, n_clients, eta, seed = 700, 5, 0.25, 4
    mech = MechanismConfig(tau=1.0, sigma_g=0.7, noise_seed=seed)
    if mode == "stream":
        monkeypatch.setattr(sketch_module, "DENSE_MAX_ENTRIES", 0)
    if mode == "identity":
        R = IdentityCompressor(d)
    else:  # b > BLOCK_ROWS, so the sketch spans two blocks
        R = SketchMatrix(SketchSpec(b=600, d=d, seed=3))
    deltas = np.random.default_rng(1).standard_normal((n_clients, d)) * eta / 40
    deltas[1] *= 100  # clipped
    deltas[3] = 0.0  # a zero row is a fixed point of clip

    def streams():
        # a fresh generator per client, where client_privatize shares one
        return [numpy_stream(seed, fedsim._NOISE_TAG, c, 2) for c in range(n_clients)]

    key, ctrs = numpy_key(seed, fedsim._NOISE_TAG), counters(range(n_clients), 2)
    payloads, clipped = client_privatize(deltas, eta, mech, R, key, ctrs, new_generator())
    assert payloads.shape == (n_clients, R.b)
    for i, rng in enumerate(streams()):
        scaled = deltas[i] / eta
        ref = eta * (R.sketch(clip(scaled, mech.tau)[0]) + mech.sigma_g * rng.standard_normal(R.b))
        assert np.linalg.norm(payloads[i] - ref) <= 1e-12 * np.linalg.norm(ref)
        assert clipped[i] == (np.linalg.norm(scaled) > mech.tau)
    assert clipped.tolist() == [False, True, False, False, False]
    # the noise bits: R @ 0 is exactly 0, so zero deltas leave only eta * sigma_g * xi
    zero, _ = client_privatize(np.zeros((n_clients, d)), eta, mech, R, key, ctrs, new_generator())
    for i, rng in enumerate(streams()):
        ref = eta * (R.sketch(np.zeros(d)) + mech.sigma_g * rng.standard_normal(R.b))
        assert np.array_equal(zero[i], ref)


def test_streamed_round_generates_the_sketch_twice(monkeypatch):
    # one sketch pass and one desketch pass per round: 2 b generated rows,
    # where one sketch call per client would generate (N + 1) b; a sketch
    # that keeps its blocks generates b rows, once, when it is built
    rows = []
    iter_blocks = sketch_module.SketchMatrix.iter_blocks

    def counted_blocks(matrix):
        for block in iter_blocks(matrix):
            rows.append(block.shape[0])
            yield block

    monkeypatch.setattr(sketch_module.SketchMatrix, "iter_blocks", counted_blocks)
    task, part = make_logreg(n=60, d=40, clients=6, seed=3)
    cfg = small_fed_config(
        clients=6, clients_per_round=4, rounds=1, sketch_b=600,
        mechanism=MechanismConfig(tau=1.0, sigma_g=1.0, noise_seed=5),
    )
    run_federation(cfg, task, part)
    assert sum(rows) == 600
    rows.clear()
    monkeypatch.setattr(sketch_module, "DENSE_MAX_ENTRIES", 1)
    run_federation(cfg, task, part)
    assert sum(rows) == 2 * 600


def counted_draws(monkeypatch, fail_round=None):
    """Record (round, rows, drawn on the main thread) for each generated
    sketch block; the draw of round fail_round raises instead."""
    drawn = []
    gen_block = sketch_module._gen_block

    def counted(spec, rng, key, block):
        on_main = threading.current_thread() is threading.main_thread()
        if spec.round == fail_round:
            drawn.append((spec.round, 0, on_main))
            raise RuntimeError(f"no sketch for round {fail_round}")
        out = gen_block(spec, rng, key, block)
        drawn.append((spec.round, out.shape[0], on_main))
        return out

    monkeypatch.setattr(sketch_module, "_gen_block", counted)
    return drawn


def test_drawn_ahead_and_inline_runs_give_the_same_bytes(monkeypatch, tmp_path, capsys):
    # the gate just below b*d draws every round, round 0 included, on the
    # worker, just above it draws every round inline; each round's b rows
    # are drawn once, and no round past the last is drawn
    from fedsgm.cli import main

    b, d, rounds = 24, 40, 4
    config = {
        "task": {"kind": "logreg", "d": d, "n": 200, "seed": 4},
        "federation": {"clients": 10, "clients_per_round": 4, "local_steps": 2, "rounds": rounds,
                       "eta_local": 0.5, "eta_global": 0.1, "batch_size": 5, "master_seed": 6},
        "mechanism": {"tau": 1.0, "sigma_g": 2.0, "noise_seed": 7},
        "sketch": {"mode": "gaussian", "b": b},
        "optimizer": {"kind": "amsgrad"},
        "accountant": {"delta": 1e-5},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    outputs = {}
    for gate, ahead in ((b * d - 1, True), (b * d + 1, False)):
        monkeypatch.setattr(fedsim, "_AHEAD_MIN_ENTRIES", gate)
        drawn = counted_draws(monkeypatch)
        assert main(["simulate", str(path), "--out-dir", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        outputs[ahead] = [(tmp_path / "out" / name).read_bytes()
                          for name in ("run.csv", "run-manifest.json")]
        assert sorted((t, rows) for t, rows, _ in drawn) == [(t, b) for t in range(rounds)]
        assert {t for t, _, on_main in drawn if not on_main} == (
            set(range(rounds)) if ahead else set())
    assert outputs[True] == outputs[False]


@pytest.mark.parametrize("outcome", ["completes", "diverges", "draw_raises"])
def test_draw_ahead_leaves_no_thread_behind(monkeypatch, outcome):
    # a run that ends in an error joins the worker too; the error of a draw
    # on the worker reaches the caller at the round that needs the sketch
    task, part = make_federated_quadratic(np.linspace(0.5, 2.0, 40), seed=3, clients=6,
                                          heterogeneity=0.5)
    cfg = small_fed_config(
        clients=6, clients_per_round=3, rounds=4, sketch_b=8,
        eta_global=1e200 if outcome == "diverges" else 0.5,
        mechanism=MechanismConfig(tau=1.0, sigma_g=1.0, noise_seed=5),
    )
    expected = None
    if outcome == "diverges":  # the message of the inline run
        with pytest.raises(ConfigurationError, match="diverged in round 0") as inline:
            run_federation(cfg, task, part)
        expected = str(inline.value)
    monkeypatch.setattr(fedsim, "_AHEAD_MIN_ENTRIES", 1)
    drawn = counted_draws(monkeypatch, fail_round=2 if outcome == "draw_raises" else None)
    threads = threading.active_count()
    if outcome == "completes":
        assert len(run_federation(cfg, task, part).records) == cfg.rounds
    elif outcome == "diverges":
        with pytest.raises(ConfigurationError) as ahead:
            run_federation(cfg, task, part)
        assert str(ahead.value) == expected
    else:
        with pytest.raises(RuntimeError, match="no sketch for round 2"):
            run_federation(cfg, task, part)
        assert max(t for t, _, _ in drawn) == 2
    assert threading.active_count() == threads
    if outcome != "diverges":
        assert not all(on_main for _, _, on_main in drawn)


def test_sketch_worker_hands_over_each_sketch_in_order():
    # the worker and the main thread share each item through two
    # semaphores; with thread switches forced often, every item taken is
    # the next one of the sequence, and close() ends a worker whose last
    # item was drawn but never taken
    specs = [SketchSpec(b=3, d=4, seed=5, round=t) for t in range(201)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    worker = fedsim._SketchAhead(SketchMatrix(spec) for spec in specs)
    try:
        for t in range(200):
            sketch = next(worker)
            assert sketch.spec is specs[t]
            if t % 50 == 0:
                x = np.arange(4.0)
                assert np.array_equal(sketch.sketch(x), SketchMatrix(specs[t]).sketch(x))
    finally:
        sys.setswitchinterval(interval)
        worker.close()
    worker.join(timeout=10)
    assert not worker.is_alive()


@pytest.mark.parametrize("ahead", [True, False])
def test_at_most_two_sketches_are_alive(monkeypatch, ahead):
    # round t's sketch is taken only once no earlier round's sketch is
    # referenced: the one in use and the one drawn ahead are all there are
    task, part = make_logreg(n=80, d=64, clients=4, seed=2)
    cfg = small_fed_config(
        clients=4, clients_per_round=2, rounds=6, sketch_b=16,
        mechanism=MechanismConfig(tau=1.0, sigma_g=1.0, noise_seed=5),
    )
    monkeypatch.setattr(fedsim, "_AHEAD_MIN_ENTRIES", 1 if ahead else 16 * 64 + 1)
    taken = fedsim.round_compressor
    earlier = []  # weak references to the sketches of the rounds taken so far

    def checked(*args, **kwargs):
        gc.collect()
        alive = [ref().spec.round for ref in earlier if ref() is not None]
        assert alive == [], f"round {len(earlier)} taken while rounds {alive} are alive"
        sketch = taken(*args, **kwargs)
        earlier.append(weakref.ref(sketch))
        return sketch

    monkeypatch.setattr(fedsim, "round_compressor", checked)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run_federation(cfg, task, part)
    finally:
        sys.setswitchinterval(interval)
    assert len(earlier) == cfg.rounds


def test_draw_ahead_imports_no_thread_pool(tmp_path):
    # the worker is a plain thread; concurrent.futures took 5 ms to import
    config = {
        "task": {"kind": "logreg", "d": 512, "n": 80},
        "federation": {"clients": 4, "clients_per_round": 2, "local_steps": 1, "rounds": 3,
                       "eta_local": 0.5, "eta_global": 0.1, "batch_size": 5},
        "mechanism": {"tau": 1.0, "sigma_g": 2.0},
        "sketch": {"mode": "gaussian", "b": 128},
        "accountant": {"delta": 1e-5},
    }
    assert 512 * 128 >= fedsim._AHEAD_MIN_ENTRIES  # drawn ahead
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    code = ("import sys\nfrom fedsgm.cli import main\n"
            "rc = main(['simulate', sys.argv[1], '--out-dir', sys.argv[2]])\n"
            "print(rc, 'concurrent.futures' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run([sys.executable, "-c", code, str(path), str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["0", "False"]


# A logistic run whose train and test sets span 7 row blocks of 32 rows, over
# 7 rounds: not a multiple of a 3-round window.
WINDOW_N, WINDOW_N_TEST, WINDOW_D, WINDOW_B, WINDOW_ROUNDS = 200, 200, 40, 24, 7


def set_eval_window(monkeypatch, window):
    """Row blocks of 32 rows, and the byte budget of a `window`-iterate window."""
    monkeypatch.setattr(tasks_module, "_ROW_BLOCK_BYTES", 32 * 8 * WINDOW_D)
    monkeypatch.setattr(tasks_module, "_EVAL_WINDOW_BYTES",
                        window * 8 * (WINDOW_N + WINDOW_N_TEST + 4 * WINDOW_D))


def windowed_logreg(monkeypatch, window):
    set_eval_window(monkeypatch, window)
    task, part = make_logreg(n=WINDOW_N, d=WINDOW_D, clients=10, seed=4)
    assert task.eval_window == window
    cfg = small_fed_config(
        clients=10, clients_per_round=4, rounds=WINDOW_ROUNDS, sketch_b=WINDOW_B,
        batch_size=5, optimizer="amsgrad",
        mechanism=MechanismConfig(tau=1.0, sigma_g=2.0, noise_seed=7),
    )
    return task, part, cfg


def test_eval_window_keeps_the_bytes(monkeypatch, tmp_path, capsys):
    # windows of 1, 3 and all rounds score the same numbers, with the sketch
    # drawn ahead or inline; the windows are full but for the last
    from fedsgm.cli import main

    config = {
        "task": {"kind": "logreg", "d": WINDOW_D, "n": WINDOW_N, "seed": 4},
        "federation": {"clients": 10, "clients_per_round": 4, "local_steps": 2,
                       "rounds": WINDOW_ROUNDS, "eta_local": 0.5, "eta_global": 0.1,
                       "batch_size": 5, "master_seed": 6},
        "mechanism": {"tau": 1.0, "sigma_g": 2.0, "noise_seed": 7},
        "sketch": {"mode": "gaussian", "b": WINDOW_B},
        "optimizer": {"kind": "amsgrad"},
        "accountant": {"delta": 1e-5},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    score = fedsim._score
    windows = []

    def counted_score(cfg, task, window):
        windows.append(len(window))
        return score(cfg, task, window)

    monkeypatch.setattr(fedsim, "_score", counted_score)
    outputs = set()
    for window, ahead in itertools.product((1, 3, WINDOW_ROUNDS + 1), (True, False)):
        set_eval_window(monkeypatch, window)
        gate = 1 if ahead else WINDOW_B * WINDOW_D + 1
        monkeypatch.setattr(fedsim, "_AHEAD_MIN_ENTRIES", gate)
        windows.clear()
        assert main(["simulate", str(path), "--out-dir", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        outputs.add(tuple((tmp_path / "out" / name).read_bytes()
                          for name in ("run.csv", "run-manifest.json")))
        assert windows == {1: [1] * 7, 3: [3, 3, 1]}.get(window, [7])
    assert len(outputs) == 1


def set_server_iterate(monkeypatch, at_round, value):
    """server_round whose step in round at_round returns an iterate full of value."""
    step = fedsim.server_round

    def server(theta, payloads, compressor, cfg, moments):
        theta, moments = step(theta, payloads, compressor, cfg, moments)
        if compressor.spec.round == at_round:
            theta = np.full_like(theta, value)
        return theta, moments

    monkeypatch.setattr(fedsim, "server_round", server)


@pytest.mark.parametrize("value,draw_fails", [(math.nan, False), (1e308, False), (1e308, True)])
def test_divergence_inside_a_window(monkeypatch, value, draw_fails):
    # round 4 is the middle of the window of rounds 3-5.  A nan iterate is
    # scored at once; a finite one whose loss overflows is trained from in
    # round 5, which overflows too and raises (a round-by-round run would
    # never train it) until round 4 is scored; and a failed draw of round
    # 5's sketch waits for round 4's score too.  Each way the run stops with
    # the round-by-round message, warns of nothing, and leaves no thread.
    set_server_iterate(monkeypatch, 4, value)
    monkeypatch.setattr(fedsim, "_AHEAD_MIN_ENTRIES", 1)
    counted_draws(monkeypatch, fail_round=5 if draw_fails else None)
    train = fedsim._train_round
    trained = []  # (round, whether its training raised)

    def recorded_train(*args):
        trained.append([args[5].spec.round, True])
        out = train(*args)
        trained[-1][1] = False
        return out

    monkeypatch.setattr(fedsim, "_train_round", recorded_train)
    messages = []
    for window in (1, 3):
        trained.clear()
        task, part, cfg = windowed_logreg(monkeypatch, window)
        threads = threading.active_count()
        with pytest.raises(ConfigurationError, match="diverged in round 4") as err:
            run_federation(cfg, task, part)
        assert threading.active_count() == threads
        messages.append(str(err.value))
        speculated = window == 3 and value == 1e308 and not draw_fails
        assert trained == [[t, False] for t in range(5)] + ([[5, True]] if speculated else [])
    assert messages[0] == messages[1]


def test_a_speculative_round_that_warns_is_trained_again(monkeypatch):
    # a numpy warning in round 4, trained from the pending iterate of round
    # 3, raises there; once round 3 is scored, round 4 is trained again and
    # warns as in a round-by-round run, which it then matches
    privatize = fedsim.client_privatize

    def warning_privatize(deltas, eta_local, mech, compressor, key, counters, rng):
        if compressor.spec.round == 4:
            np.array([1e308]) * 10.0
        return privatize(deltas, eta_local, mech, compressor, key, counters, rng)

    monkeypatch.setattr(fedsim, "client_privatize", warning_privatize)
    runs = []
    for window in (1, 3):
        task, part, cfg = windowed_logreg(monkeypatch, window)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_federation(cfg, task, part)
        assert [str(w.message) for w in caught] == ["overflow encountered in multiply"]
        runs.append((records_to_csv(result.records), result.theta.tobytes()))
    assert runs[0] == runs[1]


def test_a_run_keys_each_role_once(monkeypatch):
    # one SeedSequence per role per run (sampler, minibatch, noise, sketch),
    # never one per stream: the count does not grow with the rounds.  One
    # SeedSequence costs about 15 us, six streams' worth a ~250-us round.
    task, part = make_logreg(n=40, d=6, clients=4, seed=1)  # shards of 10, batches of 4
    made, seed_sequence = [], np.random.SeedSequence

    def counted(*args, **kwargs):
        made.append(args)
        return seed_sequence(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counted)
    counts = []
    for rounds in (3, 300):
        made.clear()
        cfg = small_fed_config(rounds=rounds, sketch_b=3,
                               mechanism=MechanismConfig(tau=1.0, sigma_g=1.0, noise_seed=2))
        run_federation(cfg, task, part)
        counts.append(len(made))
    assert counts[0] == counts[1] <= 4, counts


@pytest.mark.parametrize("kind", ["quadratic", "logreg"])
@pytest.mark.parametrize("sigma_g", [0.0, 1.2])
def test_round_builds_only_the_streams_it_draws_from(monkeypatch, kind, sigma_g):
    # a quadratic client holds one sample, so its batch covers the shard and
    # draws nothing; logreg shards of 12 with batch 4 draw a minibatch per
    # step.  sigma_g = 0 draws no noise.
    built = {"local": 0, "noise": 0}

    def counted(name, make):
        def stream(*args):
            built[name] += 1
            return make(*args)

        return stream

    monkeypatch.setattr(fedsim, "local_stream", counted("local", fedsim.local_stream))
    monkeypatch.setattr(fedsim, "noise_stream", counted("noise", fedsim.noise_stream))
    if kind == "quadratic":
        task, part = make_federated_quadratic([2.0, 1.0, 0.5], seed=3, clients=4)
    else:
        task, part = make_logreg(n=48, d=6, clients=4, seed=2)
    cfg = small_fed_config(
        rounds=3, mechanism=MechanismConfig(tau=1.0, sigma_g=sigma_g, noise_seed=5)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # eps = inf for an unsketched run
        run_federation(cfg, task, part)
    one_per_client = cfg.clients_per_round * cfg.rounds
    assert built == {
        "local": 0 if kind == "quadratic" else one_per_client,
        "noise": 0 if sigma_g == 0.0 else one_per_client,
    }


# ---------------------------------------------------------------------------
# server round


def test_server_round_zero_updates_leave_theta():
    cfg = small_fed_config()
    theta = np.arange(6.0)
    theta2, _ = server_round(theta, np.zeros((2, 6)), IdentityCompressor(6), cfg, None)
    assert np.array_equal(theta2, theta)


def test_server_round_single_update_identity_aggregation():
    cfg = small_fed_config()
    payload = np.linspace(-1, 1, 6)
    theta2, _ = server_round(np.zeros(6), payload[None, :], IdentityCompressor(6), cfg, None)
    assert np.allclose(theta2, -cfg.eta_global * payload, rtol=1e-15, atol=0)


def test_server_round_mean_is_bitwise_the_np_mean_form():
    # the payload mean skips np.mean's Python wrapper, not its arithmetic
    cfg = small_fed_config(sketch_b=16)
    R = SketchMatrix(SketchSpec(b=16, d=64, seed=2))
    rng = np.random.default_rng(23)
    for n in range(1, 9):
        theta = rng.standard_normal(64)
        payloads = rng.standard_normal((n, 16))
        ref = gd_step(theta, R.desketch(np.mean(payloads, axis=0)), cfg.eta_global)
        assert np.array_equal(server_round(theta, payloads, R, cfg, None)[0], ref), n


@pytest.mark.parametrize("kind, step", [("amsgrad", amsgrad_step), ("adam", adam_step)])
def test_server_round_takes_the_configured_step(kind, step):
    # a spike then small payloads, where AMSGrad's running max and Adam part ways
    cfg = small_fed_config(optimizer=kind)
    theta = ref = np.arange(6.0)
    moments = ref_moments = MomentState.init(6)
    for scale in (10.0, 0.1, 0.1):
        payloads = np.full((2, 6), scale)
        theta, moments = server_round(theta, payloads, IdentityCompressor(6), cfg, moments)
        ref, ref_moments = step(ref, payloads[0], ref_moments, cfg.eta_global)
        assert np.array_equal(theta, ref) and np.array_equal(moments.v, ref_moments.v)


def test_server_round_rejects_raw_updates():
    # the type boundary: d-dimensional (unsketched) rows must not pass
    cfg = small_fed_config(sketch_b=3)
    R = SketchMatrix(SketchSpec(b=3, d=12, seed=1))
    with pytest.raises(DimensionMismatchError):
        server_round(np.zeros(12), np.zeros((1, 12)), R, cfg, None)
    with pytest.raises(DimensionMismatchError):
        server_round(np.zeros(12), np.zeros(3), R, cfg, None)  # a vector, not an N x b matrix
    with pytest.raises(ConfigurationError):
        server_round(np.zeros(12), np.zeros((0, 3)), R, cfg, None)


# ---------------------------------------------------------------------------
# client sampler


def test_sampler_full_participation():
    assert np.array_equal(sample(7, 7, 0, 123), np.arange(7))


def test_sampler_deterministic_and_seed_sensitive():
    a = sample(50, 10, 4, 9)
    b = sample(50, 10, 4, 9)
    c = sample(50, 10, 5, 9)
    d = sample(50, 10, 4, 10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c) or not np.array_equal(a, d)
    assert len(np.unique(a)) == 10  # without replacement


def test_sampler_uniform_frequency():
    # 1e5 rounds, C=20, N=5: empirical per-client frequency within 3 SE of 1/4
    C, N, rounds = 20, 5, 100_000
    counts = np.zeros(C)
    rng, key = new_generator(), numpy_key(77, fedsim._SAMPLER_TAG)
    for t in range(rounds):
        counts[client_sampler(rng, key, [0, 0, 0, t], C, N)] += 1
    freq = counts / rounds
    q = N / C
    se = math.sqrt(q * (1 - q) / rounds)
    assert np.all(np.abs(freq - q) <= 3 * se)


# ---------------------------------------------------------------------------
# full federation runs


def test_fedavg_equivalence():
    # identity compressor, sigma_g = 0, tau = inf, full participation, K = 1,
    # GD server: must match a textbook FedAvg implementation to 1e-12.
    task, part = make_federated_quadratic(
        [2.0, 1.0, 0.5, 0.25], seed=5, clients=3, heterogeneity=0.5, center_scale=1.5
    )
    cfg = FedConfig(
        clients=3,
        clients_per_round=3,
        local_steps=1,
        rounds=25,
        eta_local=0.2,
        eta_global=0.7,
        batch_size=10,
        mechanism=MechanismConfig(tau=math.inf, sigma_g=0.0),
        delta=1e-5,
        sketch_b=None,
        optimizer="gd",
        master_seed=3,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # eps = inf ablation warning
        result = run_federation(cfg, task, part)

    theta = task.theta0.copy()
    losses = []
    for _ in range(cfg.rounds):
        grads = [task.grad(theta, part.client_indices(c)) for c in range(3)]
        theta = theta - cfg.eta_global * cfg.eta_local * np.mean(grads, axis=0)
        losses.append(task.loss(theta))

    assert np.allclose(result.theta, theta, rtol=1e-12, atol=1e-14)
    for rec, ref_loss in zip(result.records, losses):
        assert rec.train_loss == pytest.approx(ref_loss, rel=1e-12)
        assert rec.clip_activation_rate == 0.0
        assert math.isinf(rec.epsilon_spent)


def test_sketched_quadratic_converges():
    # strongly convex quadratic, b = d/2, sigma_g = 0: the sketched run still
    # drives the gradient down by >= 1000x over 200 rounds.
    task, part = make_federated_quadratic(
        np.linspace(0.5, 2.0, 20), seed=3, clients=4, heterogeneity=0.3, center_scale=2.0
    )
    cfg = FedConfig(
        clients=4,
        clients_per_round=4,
        local_steps=1,
        rounds=200,
        eta_local=0.1,
        eta_global=0.5,
        batch_size=10,
        mechanism=MechanismConfig(tau=NO_CLIP, sigma_g=0.0),
        delta=1e-5,
        sketch_b=10,
        optimizer="gd",
        master_seed=11,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = run_federation(cfg, task, part)
    g0 = task.grad(task.theta0)
    initial = float(g0 @ g0)
    assert result.records[-1].grad_norm_sq <= 1e-3 * initial


def test_run_deterministic_in_seed():
    task, part = make_logreg(n=48, d=6, clients=4, seed=2)
    cfg = small_fed_config(
        rounds=4,
        sketch_b=3,
        mechanism=MechanismConfig(tau=1.0, sigma_g=1.2, noise_seed=5),
    )
    r1 = run_federation(cfg, task, part)
    r2 = run_federation(cfg, task, part)
    assert np.array_equal(r1.theta, r2.theta)
    assert records_to_csv(r1.records) == records_to_csv(r2.records)
    for a, b in zip(r1.records, r2.records):
        assert a == b
    # a different master seed genuinely changes the run
    r3 = run_federation(
        FedConfig(**{**cfg.__dict__, "master_seed": 8}), task, part
    )
    assert not np.array_equal(r1.theta, r3.theta)


def test_default_test_metric_reuses_train_loss():
    # a task without a test metric of its own reports its train loss, so
    # each round evaluates the full-data loss once, not twice
    task, part = make_federated_quadratic([2.0, 1.0, 0.5, 0.25], seed=3, clients=4)
    loss = task.loss
    calls = []

    def counted_loss(theta):
        calls.append(np.shape(theta))
        return loss(theta)

    task.loss = counted_loss
    cfg = small_fed_config(
        rounds=5, sketch_b=2, mechanism=MechanismConfig(tau=1.0, sigma_g=1.2, noise_seed=5)
    )
    result = run_federation(cfg, task, part)
    assert calls == [(4,)] * 5  # one full-data iterate per round
    assert all(r.test_metric == r.train_loss for r in result.records)
    assert result.records[-1].train_loss == float(loss(result.theta))


def test_epsilon_ledger_matches_accountant():
    task, part = make_logreg(n=60, d=6, clients=6, seed=5)
    # a sketched run: r = 2 tau^2/(b sigma^2) = 2/(3*0.81) = 0.82 < 1
    mech = MechanismConfig(tau=1.0, sigma_g=0.9, noise_seed=2)
    cfg = small_fed_config(
        clients=6, clients_per_round=2, rounds=5, mechanism=mech, sketch_b=3
    )
    result = run_federation(cfg, task, part)
    eps = [r.epsilon_spent for r in result.records]
    assert all(b >= a for a, b in zip(eps, eps[1:]))  # non-decreasing
    expected = sgm_epsilon(
        AccountantParams(q=2 / 6, T=5, tau=1.0, b=3, sigma_g=0.9), cfg.delta
    )
    assert eps[-1] == expected


def test_unsketched_run_reports_infinite_epsilon():
    # the accountant covers sketched releases only; the identity's plain
    # Gaussian sum gets no finite epsilon, whatever its noise
    task, part = make_logreg(n=60, d=6, clients=6, seed=5)
    mech = MechanismConfig(tau=1.0, sigma_g=0.9, noise_seed=2)
    cfg = small_fed_config(clients=6, clients_per_round=2, rounds=2, mechanism=mech)
    with pytest.warns(UserWarning, match="sketched releases only"):
        result = run_federation(cfg, task, part)
    assert all(math.isinf(r.epsilon_spent) for r in result.records)


def test_regime_violation_warns_and_continues():
    task, part = make_logreg(n=30, d=6, clients=3, seed=6)
    # r = 2 tau^2/(b sigma^2) = 2/(6*0.09) = 3.7 >= 1: accounting impossible
    mech = MechanismConfig(tau=1.0, sigma_g=0.3, noise_seed=2)
    cfg = small_fed_config(clients=3, clients_per_round=2, rounds=2, mechanism=mech, sketch_b=6)
    with pytest.warns(UserWarning, match="epsilon = inf"):
        result = run_federation(cfg, task, part)
    assert len(result.records) == 2
    assert all(math.isinf(r.epsilon_spent) for r in result.records)


def test_clip_rate_regimes():
    task, part = make_federated_quadratic(
        [1.0, 0.5], seed=7, clients=3, heterogeneity=0.5, center_scale=2.0
    )
    base = dict(
        clients=3,
        clients_per_round=3,
        local_steps=2,
        rounds=3,
        eta_local=0.1,
        eta_global=0.5,
        batch_size=4,
        delta=1e-5,
        sketch_b=None,
        optimizer="gd",
        master_seed=1,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tight = run_federation(
            FedConfig(mechanism=MechanismConfig(tau=1e-9, sigma_g=0.0), **base),
            task,
            part,
        )
        loose = run_federation(
            FedConfig(mechanism=MechanismConfig(tau=NO_CLIP, sigma_g=0.0), **base),
            task,
            part,
        )
    assert all(r.clip_activation_rate == 1.0 for r in tight.records)
    assert all(r.clip_activation_rate == 0.0 for r in loose.records)


def test_partition_mismatch_rejected():
    task, part = make_logreg(n=30, d=6, clients=3, seed=9)
    cfg = small_fed_config(clients=4, clients_per_round=2)
    with pytest.raises(ConfigurationError):
        run_federation(cfg, task, part)


# ---------------------------------------------------------------------------
# emission helpers


def test_records_csv_shape():
    task, part = make_logreg(n=30, d=4, clients=3, seed=14)
    cfg = small_fed_config(
        clients=3,
        clients_per_round=2,
        rounds=2,
        mechanism=MechanismConfig(tau=1.0, sigma_g=1.0, noise_seed=9),
        sketch_b=4,  # r = 2 tau^2/(b sigma_g^2) = 0.5: a finite epsilon column
    )
    result = run_federation(cfg, task, part)
    text = records_to_csv(result.records)
    lines = text.strip().split("\n")
    assert lines[0] == "# fed-sgm csv v1"
    assert lines[1] == "round,train_loss,grad_norm_sq,test_metric,clip_rate,epsilon_spent"
    assert len(lines) == 2 + cfg.rounds
    # full-precision floats round-trip
    first = lines[2].split(",")
    assert float(first[1]) == result.records[0].train_loss
    # every field is a plain number (a numpy scalar's repr would read "np.float64(...)")
    for line in lines[2:]:
        for field in line.split(","):
            float(field)
        assert 0.0 < float(line.split(",")[-1]) < math.inf


def test_manifest_seeds_regenerate_a_rounds_noise(tmp_path, monkeypatch):
    # The epsilon is for an observer who knows neither R_t nor xi, yet the
    # manifest's master_seed and noise_seed regenerate both: round 0's noise of
    # configs/quadratic.json, cut to one round, comes back from the manifest's
    # fields alone, and removing it leaves the sigma_g = 0 run's payloads.
    from fedsgm.cli import main

    seen = []
    real_server_round = fedsim.server_round

    def observe(theta, payloads, *rest):
        seen.append(np.array(payloads))
        return real_server_round(theta, payloads, *rest)

    monkeypatch.setattr(fedsim, "server_round", observe)
    quadratic = str(Path(__file__).resolve().parent.parent / "configs" / "quadratic.json")
    one_round = ["simulate", quadratic, "--override", "federation.rounds=1", "--out-dir", str(tmp_path)]
    assert main([*one_round, "--override", "output.prefix=private"]) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the sigma_g = 0 run reports epsilon = inf
        assert main([*one_round, "--override", "output.prefix=clean",
                     "--override", "mechanism.sigma_g=0"]) == 0
    private, clean = seen

    config = json.loads((tmp_path / "private-manifest.json").read_text())["config"]
    fed, mech = config["federation"], config["mechanism"]
    # numpy alone: the sampler's stream 0 and each client's noise stream in round 0
    sampler = numpy_stream(fed["master_seed"], fedsim._SAMPLER_TAG, 0, 0)
    clients = np.sort(sampler.choice(fed["clients"], size=fed["clients_per_round"], replace=False))
    xi = np.array([numpy_stream(mech["noise_seed"], fedsim._NOISE_TAG, c, 0)
                   .standard_normal(config["sketch"]["b"]) for c in clients])
    recovered = private - fed["eta_local"] * mech["sigma_g_resolved"] * xi
    assert np.linalg.norm(xi) > 1.0  # there was noise to remove
    assert np.abs(recovered - clean).max() <= 1e-12


def test_a_round_whose_delta0_is_not_below_one_is_accounted_at_a_later_round(tmp_path):
    # delta = 0.6 at q = 1/4 gives round 0 a per-release delta0 = delta/(2q) =
    # 1.2; its one release is a prefix, so a post-processing, of round 1's two,
    # whose delta0 = 0.6 is below 1, so round 0 reports round 1's epsilon
    from fedsgm.cli import main

    quadratic = str(Path(__file__).resolve().parent.parent / "configs" / "quadratic.json")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", quadratic, "--override", "accountant.delta=0.6",
                     "--override", "federation.rounds=4", "--out-dir", str(tmp_path)]) == 0
    assert caught == []
    with open(tmp_path / "quadratic.csv") as fh:
        rows = [line.split(",") for line in fh if not line.startswith("#")][1:]
    epsilon = [float(row[-1]) for row in rows]
    assert len(epsilon) == 4 and epsilon[0] == epsilon[1]
    assert all(math.isfinite(e) for e in epsilon)
    assert epsilon == sorted(epsilon)
