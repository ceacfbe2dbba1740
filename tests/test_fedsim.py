"""Federated driver tests: client steps, privatization, aggregation, full runs.

Runs with sigma_g = 0 are non-private ablations; the accountant reports
epsilon = inf with a warning, which several tests capture on purpose.
"""

import json
import math
import threading
import warnings

import numpy as np
import pytest

from fedsgm import fedsim
from fedsgm import sketch as sketch_module
from fedsgm._philox import new_generator, philox_keys
from fedsgm.accountant import AccountantParams, sgm_epsilon
from fedsgm.errors import ConfigurationError, DimensionMismatchError
from fedsgm.fedsim import (
    FedConfig,
    client_local_update,
    client_privatize,
    client_sampler,
    noise_stream,
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


def sampler_keys(seed, round_idx):
    return philox_keys((seed, fedsim._SAMPLER_TAG), (round_idx,))


def local_keys(seed, client_ids, round_idx):
    return philox_keys((seed, fedsim._LOCAL_TAG), (client_ids, round_idx))


def noise_keys(seed, client_ids, round_idx):
    return philox_keys((seed, fedsim._NOISE_TAG), (client_ids, round_idx))


def sample(clients, clients_per_round, round_idx, seed):
    return client_sampler(
        new_generator(), sampler_keys(seed, round_idx), clients, clients_per_round
    )


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
        sketch_b=None,
        optimizer="gd",
        master_seed=7,
    )
    base.update(over)
    return FedConfig(**base)


# ---------------------------------------------------------------------------
# config and data types


def test_fed_config_validation():
    with pytest.raises(ConfigurationError):
        small_fed_config(clients_per_round=5)  # > clients
    with pytest.raises(ConfigurationError):
        small_fed_config(local_steps=0)
    with pytest.raises(ConfigurationError):
        small_fed_config(eta_global=0.0)
    for name in ("eta_local", "eta_global"):
        for value in (math.inf, math.nan):
            with pytest.raises(ConfigurationError, match=name):
                small_fed_config(**{name: value})
    with pytest.raises(ConfigurationError):
        small_fed_config(optimizer="lbfgs")
    with pytest.raises(ConfigurationError, match="master_seed"):
        small_fed_config(master_seed=-3)


# ---------------------------------------------------------------------------
# client local update


def test_local_update_single_step_is_scaled_gradient():
    task = diag_quadratic_task()
    # from the origin the identity is exact
    (delta0,) = client_local_update(np.zeros(2), task, [np.array([0])], 1, 0.1, None, None)
    assert np.array_equal(delta0, 0.1 * task.grad(np.zeros(2)))
    theta = np.array([1.0, 1.0])
    (delta,) = client_local_update(theta, task, [np.array([0])], 1, 0.1, None, None)
    assert np.allclose(delta, 0.1 * task.grad(theta), rtol=1e-12, atol=1e-15)


def test_local_update_zero_step_size():
    deltas = client_local_update(
        np.array([1.0, 1.0]), diag_quadratic_task(), [np.array([0])] * 3, 3, 0.0, None, None
    )
    assert np.array_equal(deltas, np.zeros((3, 2)))


def test_local_update_two_step_hand_trace():
    # A = diag(1, 2), theta0 = (1, 1), eta = 0.1, K = 2, full batch:
    # step 1: theta = (0.9, 0.8); step 2: theta = (0.81, 0.64)
    # delta = (0.19, 0.36), traced by hand.
    (delta,) = client_local_update(
        np.array([1.0, 1.0]), diag_quadratic_task(), [np.array([0])], 2, 0.1, None, None
    )
    assert np.allclose(delta, [0.19, 0.36], rtol=1e-12, atol=0)


def test_local_update_minibatch_deterministic():
    task, part = make_logreg(n=40, d=5, clients=2, seed=1)
    shard = [part.client_indices(0)]
    theta = np.full(5, 0.3)

    def update(seed, round_idx):
        keys = local_keys(seed, [0], round_idx)
        return client_local_update(theta, task, shard, 4, 0.05, keys, new_generator(), batch_size=5)

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
    keys = local_keys(6, [0, 2, 3, 4], 11)
    calls = []

    def counted_grad(theta, idx=None):
        calls.append(np.shape(theta))
        return grad(theta, idx)

    grad, task.grad = task.grad, counted_grad
    deltas = client_local_update(theta, task, shards, 3, 0.2, keys, new_generator(), batch_size=4)
    assert calls == [(4, 7)] * 3  # one grad call per local step
    for i, shard in enumerate(shards):
        (alone,) = client_local_update(
            theta, task, [shard], 3, 0.2, keys[i : i + 1], new_generator(), batch_size=4
        )
        assert np.array_equal(deltas[i], alone), i
    # a batch that covers every shard draws nothing
    full = client_local_update(theta, task, shards, 2, 0.2, None, None, batch_size=9)
    for i, shard in enumerate(shards):
        ref = theta - 0.2 * task.grad(theta, shard)
        ref = ref - 0.2 * task.grad(ref, shard)
        assert np.array_equal(full[i], theta - ref), i


# ---------------------------------------------------------------------------
# client privatize


def test_privatize_noiseless_identity_within_threshold():
    mech = MechanismConfig(tau=10.0, sigma_g=0.0)
    deltas = np.array([[0.25, -0.5, 0.125], [0.5, 0.0, -0.25]])  # binary fractions: /0.5 is exact
    payloads, clipped = client_privatize(deltas, 0.5, mech, IdentityCompressor(3), None, None)
    assert np.array_equal(payloads, deltas)
    assert clipped.tolist() == [False, False]


def test_privatize_clip_saturation_norm():
    mech = MechanismConfig(tau=1.0, sigma_g=0.0)
    eta = 0.5
    deltas = eta * np.array([[2.0, 0.0, 0.0, 0.0], [0.0, 0.0, 3.0, 0.0]])  # normalized norms 2, 3 tau
    payloads, clipped = client_privatize(deltas, eta, mech, IdentityCompressor(4), None, None)
    assert clipped.tolist() == [True, True]
    assert np.linalg.norm(payloads, axis=1).tolist() == [eta * mech.tau] * 2


def test_privatize_clip_flag_boundary():
    mech = MechanismConfig(tau=1.0, sigma_g=0.0)
    deltas = np.array([[0.3, 0.4], [3.0, 4.0]])
    _, clipped = client_privatize(deltas, 1.0, mech, IdentityCompressor(2), None, None)
    assert clipped.tolist() == [False, True]


def test_privatize_dimension_mismatch():
    mech = MechanismConfig(tau=1.0, sigma_g=0.0)
    R = SketchMatrix(SketchSpec(b=4, d=16, seed=0))
    with pytest.raises(DimensionMismatchError):
        client_privatize(np.zeros((2, 8)), 1.0, mech, R, None, None)


def test_privatize_payload_lives_in_sketched_space():
    mech = MechanismConfig(tau=1.0, sigma_g=0.5, noise_seed=2)
    R = SketchMatrix(SketchSpec(b=4, d=16, seed=0))
    keys = noise_keys(2, np.arange(3), 0)
    payloads, clipped = client_privatize(np.ones((3, 16)), 1.0, mech, R, keys, new_generator())
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
        return [noise_stream(new_generator(), key) for key in keys]

    keys = noise_keys(seed, np.arange(n_clients), 2)
    payloads, clipped = client_privatize(deltas, eta, mech, R, keys, new_generator())
    assert payloads.shape == (n_clients, R.b)
    for i, rng in enumerate(streams()):
        scaled = deltas[i] / eta
        ref = eta * (R.sketch(clip(scaled, mech.tau)[0]) + mech.sigma_g * rng.standard_normal(R.b))
        assert np.linalg.norm(payloads[i] - ref) <= 1e-12 * np.linalg.norm(ref)
        assert clipped[i] == (np.linalg.norm(scaled) > mech.tau)
    assert clipped.tolist() == [False, True, False, False, False]
    # the noise bits: R @ 0 is exactly 0, so zero deltas leave only eta * sigma_g * xi
    zero, _ = client_privatize(np.zeros((n_clients, d)), eta, mech, R, keys, new_generator())
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
        if spec.seed[1] == fail_round:
            drawn.append((spec.seed[1], 0, on_main))
            raise RuntimeError(f"no sketch for round {fail_round}")
        out = gen_block(spec, rng, key, block)
        drawn.append((spec.seed[1], out.shape[0], on_main))
        return out

    monkeypatch.setattr(sketch_module, "_gen_block", counted)
    return drawn


def test_drawn_ahead_and_inline_runs_give_the_same_bytes(monkeypatch, tmp_path, capsys):
    # the gate just below b*d draws rounds 1.. on the worker, just above it
    # draws every round inline; each round's b rows are drawn once, and no
    # round past the last is drawn
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
            set(range(1, rounds)) if ahead else set())
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
    cfg = small_fed_config(optimizer=kind, beta1=0.5, beta2=0.9)
    theta = ref = np.arange(6.0)
    moments = ref_moments = MomentState.init(6, beta1=0.5, beta2=0.9)
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
    rng = new_generator()
    for key in sampler_keys(77, np.arange(rounds)):  # every round's key in one pass
        counts[client_sampler(rng, key, C, N)] += 1
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

    def counted_loss(theta, idx=None):
        calls.append(idx)
        return loss(theta, idx)

    task.loss = counted_loss
    cfg = small_fed_config(
        rounds=5, sketch_b=2, mechanism=MechanismConfig(tau=1.0, sigma_g=1.2, noise_seed=5)
    )
    result = run_federation(cfg, task, part)
    assert calls == [None] * 5
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
