"""Synthetic task, partition, and curvature-diagnostic tests."""

import inspect
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fedsgm import tasks as tasks_module
from fedsgm.errors import ConfigurationError
from fedsgm.tasks import (
    Partition,
    Task,
    _logreg_task,
    estimate_G_and_sigma_s,
    iid_partition,
    intrinsic_dimension,
    label_skew_partition,
    make_federated_quadratic,
    make_logreg,
    power_law_spectrum,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def finite_diff_grad_check(task, theta, directions=20, h=1e-6, rel_tol=1e-5, seed=0):
    """Central-difference directional derivatives vs analytic gradient."""
    rng = np.random.default_rng(seed)
    g = task.grad(theta)
    for _ in range(directions):
        u = rng.standard_normal(task.d)
        u /= np.linalg.norm(u)
        fd = (task.loss(theta + h * u) - task.loss(theta - h * u)) / (2 * h)
        analytic = float(g @ u)
        scale = max(abs(analytic), abs(fd), 1e-8)
        assert abs(fd - analytic) / scale <= rel_tol


# ---------------------------------------------------------------------------
# partitions


def test_iid_partition_covers_disjointly():
    part = iid_partition(103, 5, seed=1)
    assert part.num_clients == 5
    all_idx = np.concatenate([part.client_indices(c) for c in range(5)])
    assert sorted(all_idx.tolist()) == list(range(103))
    sizes = [len(part.client_indices(c)) for c in range(5)]
    assert max(sizes) - min(sizes) <= 1


def test_partition_rejects_gaps_and_overlaps():
    with pytest.raises(ConfigurationError):
        Partition((np.array([0, 1]), np.array([1, 2])), 3)  # overlap
    with pytest.raises(ConfigurationError):
        Partition((np.array([0]), np.array([2])), 3)  # gap


def test_partition_rejects_empty_shard():
    with pytest.raises(ConfigurationError, match="client 1 has an empty shard"):
        Partition((np.array([0, 1]), np.array([], dtype=int)), 2)


def test_label_skew_partition_valid_and_skewed():
    labels = np.repeat([-1.0, 1.0], 100)
    part = label_skew_partition(labels, 8, concentration=0.1, seed=3)
    assert sorted(np.concatenate(part.assignments).tolist()) == list(range(200))
    # strong skew: at least one client nearly single-class
    fractions = [
        np.mean(labels[part.client_indices(c)] == 1.0) for c in range(8)
    ]
    assert max(fractions) > 0.9 or min(fractions) < 0.1


# ---------------------------------------------------------------------------
# quadratic tasks


def test_quadratic_identity_spectrum():
    task = make_federated_quadratic([1.0] * 10, seed=0)[0]
    assert intrinsic_dimension(task) == pytest.approx(10.0, abs=1e-8)


def test_quadratic_mixed_spectrum():
    lam = [4.0, 1.0, -1.0] + [0.0] * 7
    task = make_federated_quadratic(lam, seed=1)[0]
    assert intrinsic_dimension(task) == pytest.approx(1.5, abs=1e-8)


def test_quadratic_power_law_spectrum():
    lam = power_law_spectrum(100, power=2.0)
    task = make_federated_quadratic(lam, seed=2)[0]
    # sum_i i^-2 over i=1..100, max eigenvalue 1
    assert intrinsic_dimension(task) == pytest.approx(1.6349839001848923, rel=1e-8)


def test_quadratic_hessian_matches_requested_spectrum():
    lam = np.array([5.0, 2.0, 0.5, 0.1])
    task = make_federated_quadratic(lam, seed=4)[0]
    H = task.hessian(task.theta0)
    assert np.max(np.abs(H - H.T)) <= 1e-10
    eig = np.sort(np.linalg.eigvalsh(H))
    assert np.allclose(eig, np.sort(lam), atol=1e-8)


def test_quadratic_rejects_degenerate_spectra():
    with pytest.raises(ConfigurationError):
        make_federated_quadratic([0.0, 0.0, 0.0])
    with pytest.raises(ConfigurationError):
        make_federated_quadratic([])


def test_quadratic_gradient_finite_differences():
    task = make_federated_quadratic(power_law_spectrum(30), seed=5, center_scale=2.0)[0]
    rng = np.random.default_rng(6)
    finite_diff_grad_check(task, rng.standard_normal(30))


def test_quadratic_minimum_value():
    task = make_federated_quadratic([2.0, 1.0], seed=7, center_scale=3.0)[0]
    assert task.minimum_value == pytest.approx(0.0, abs=1e-12)
    # with client spread the average objective has a positive floor
    fed_task, part = make_federated_quadratic(
        [2.0, 1.0], seed=7, clients=6, heterogeneity=1.0, center_scale=3.0
    )
    assert fed_task.minimum_value > 0.0
    assert part.num_clients == 6
    # the floor is attained: gradient vanishes where loss == minimum_value
    theta_star = fed_task.theta0 - np.linalg.solve(
        fed_task.hessian(fed_task.theta0), fed_task.grad(fed_task.theta0)
    )
    assert fed_task.loss(theta_star) == pytest.approx(fed_task.minimum_value, rel=1e-10)


def test_federated_quadratic_client_grads_average():
    task, part = make_federated_quadratic(
        [3.0, 1.0, 0.5], seed=8, clients=5, heterogeneity=0.7
    )
    theta = np.array([0.3, -0.2, 1.0])
    per_client = [task.grad(theta, part.client_indices(c)) for c in range(5)]
    assert np.allclose(np.mean(per_client, axis=0), task.grad(theta), rtol=1e-12, atol=1e-14)


def test_quadratic_loss_matches_three_operand_einsum():
    lam = np.linspace(0.5, 2.0, 64)  # well conditioned: centers are recovered by a solve
    task, _ = make_federated_quadratic(lam, seed=12, clients=16, heterogeneity=0.8)
    H = task.hessian(task.theta0)
    # grad(0, [i]) = -H c_i
    centers = np.array([-np.linalg.solve(H, task.grad(task.theta0, [i])) for i in range(16)])
    rng = np.random.default_rng(13)
    for _ in range(20):
        theta = rng.standard_normal(64)
        idx = np.sort(rng.choice(16, size=int(rng.integers(1, 17)), replace=False))
        for sub in (None, idx):
            diffs = theta - (centers if sub is None else centers[sub])
            ref = 0.5 * np.mean(np.einsum("id,de,ie->i", diffs, H, diffs))
            assert task.loss(theta, sub) == pytest.approx(ref, rel=1e-13, abs=0.0)


def fed_small_quadratic():
    """A quadratic of the benchmark's fed_small shape, with the exact H and
    per-client centers its grad closes over."""
    task, _ = make_federated_quadratic(
        power_law_spectrum(64), seed=4, clients=16, heterogeneity=0.5, center_scale=2.0
    )
    names = inspect.getclosurevars(task.grad).nonlocals
    return task, names["H"], names["centers"]


def test_quadratic_shard_grad_is_bitwise_the_np_mean_form():
    # the shard mean skips np.mean's Python wrapper, not its arithmetic
    task, H, centers = fed_small_quadratic()
    rng = np.random.default_rng(21)
    for size in range(1, 17):
        theta = rng.standard_normal(64)
        idx = rng.choice(16, size=size, replace=False)
        ref = H @ (theta - centers[idx].mean(axis=0))
        assert np.array_equal(task.grad(theta, idx), ref), size


def test_client_grad_batch_rows_are_single_client_grads():
    # an (N, d) stack with N ragged index arrays: row i is iterate i's
    # gradient over index array i.  Logistic rows keep their bits; the
    # quadratic batch is one GEMM over bitwise-equal segment means, so its
    # rows agree to rounding, and a one-row stack is the vector call exactly
    rng = np.random.default_rng(5)
    quad, _ = make_federated_quadratic(
        np.linspace(0.5, 2.0, 12), seed=3, clients=16, heterogeneity=0.5
    )
    logreg, _ = make_logreg(n=60, d=12, clients=3, seed=3)
    for task, exact in ((quad, False), (logreg, True)):
        idx = [rng.choice(task.n, size=k, replace=False) for k in (1, 5, 3, 8)]
        thetas = rng.standard_normal((4, 12))
        batch = task.grad(thetas, idx)
        assert batch.shape == (4, 12)
        for i in range(4):
            one = task.grad(thetas[i], idx[i])
            if exact:
                assert np.array_equal(batch[i], one), (task.name, i)
            else:
                assert np.allclose(batch[i], one, rtol=1e-13, atol=1e-15), (task.name, i)
        assert np.array_equal(task.grad(thetas[:1], idx[:1])[0], task.grad(thetas[0], idx[0]))


def test_quadratic_loss_is_bitwise_the_np_mean_form():
    task, H, centers = fed_small_quadratic()
    rng = np.random.default_rng(22)
    for size in range(1, 17):
        theta = rng.standard_normal(64)
        idx = rng.choice(16, size=size, replace=False)
        for sub in (None, idx):
            diffs = theta - (centers if sub is None else centers[sub])
            ref = float(0.5 * np.mean(np.einsum("id,id->i", diffs @ H, diffs)))
            assert task.loss(theta, sub) == ref, size


# ---------------------------------------------------------------------------
# logistic regression


def test_logreg_single_client_partition():
    task, part = make_logreg(n=50, d=4, clients=1, seed=0)
    assert part.num_clients == 1
    assert np.array_equal(part.client_indices(0), np.arange(50))
    assert task.n == 50 and task.d == 4


def test_logreg_client_grads_average_to_global():
    # equal shard sizes -> mean of client gradients is the global gradient
    task, part = make_logreg(n=120, d=6, clients=4, seed=1)
    rng = np.random.default_rng(2)
    theta = rng.standard_normal(6)
    per_client = [task.grad(theta, part.client_indices(c)) for c in range(4)]
    assert np.allclose(np.mean(per_client, axis=0), task.grad(theta), rtol=1e-12, atol=1e-15)


def test_logreg_gradient_finite_differences():
    task, _ = make_logreg(n=80, d=10, clients=2, seed=3)
    rng = np.random.default_rng(4)
    finite_diff_grad_check(task, 0.5 * rng.standard_normal(10))


def test_logreg_hessian_symmetric():
    task, _ = make_logreg(n=60, d=8, clients=2, seed=5)
    H = task.hessian(np.zeros(8))
    assert np.max(np.abs(H - H.T)) <= 1e-10


def test_logreg_full_batch_gd_smoke():
    # 500 full-batch steps at eta = 0.5 should reach >= 95% train accuracy
    task, _ = make_logreg(n=400, d=10, clients=1, seed=6, label_noise=0.02)
    theta = task.theta0.copy()
    for _ in range(500):
        theta = theta - 0.5 * task.grad(theta)
    # a sample is classified correctly iff its margin is positive, i.e. its
    # singleton logistic loss is below log 2
    correct = sum(task.loss(theta, [i]) < math.log(2.0) for i in range(task.n))
    assert correct / task.n >= 0.95


class _CountingArray(np.ndarray):
    """Feature matrix that counts the products taken with it (and its views)."""

    products = 0

    def __matmul__(self, other):
        _CountingArray.products += 1
        return np.asarray(self) @ other


def _counting_logreg(n=40, d=5, seed=11):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    task = _logreg_task(X.view(_CountingArray), y, X[:10], y[:10])
    return task, X, y, rng


def _uncached_loss_grad_hessian(X, y, theta):
    sigmoid = lambda z: 0.5 * (1.0 + np.tanh(0.5 * z))
    z = X @ theta
    loss = float(np.mean(np.logaddexp(0.0, -y * z)))
    grad = X.T @ (-y * sigmoid(-y * z)) / len(y)
    p = sigmoid(z)
    return loss, grad, (X * (p * (1.0 - p))[:, None]).T @ X / len(y)


def test_logreg_grad_then_loss_share_one_full_data_product():
    task, X, y, rng = _counting_logreg()
    theta = rng.standard_normal(5)
    _CountingArray.products = 0
    g = task.grad(theta)
    loss = task.loss(theta)
    # X @ theta once, X.T @ coef once; the loss reuses the margin
    assert _CountingArray.products == 2
    task.hessian(theta)
    assert _CountingArray.products == 3  # only X^T W X; p comes from the shared margin
    ref_loss, ref_grad, _ = _uncached_loss_grad_hessian(X, y, theta)
    assert loss == ref_loss and np.array_equal(g, ref_grad)


def test_logreg_margin_cache_sees_in_place_changes():
    task, X, y, rng = _counting_logreg()
    theta = rng.standard_normal(5)
    task.grad(theta)
    task.loss(theta)
    theta[2] += 0.25  # same object, new values
    ref_loss, ref_grad, ref_hess = _uncached_loss_grad_hessian(X, y, theta)
    assert task.loss(theta) == ref_loss
    assert np.array_equal(task.grad(theta), ref_grad)
    assert np.array_equal(task.hessian(theta), ref_hess)
    # a fresh task (empty cache) gives the same bits in the other order
    fresh, *_ = _counting_logreg()
    assert np.array_equal(fresh.hessian(theta), ref_hess)
    assert fresh.loss(theta) == ref_loss


def test_logreg_client_call_leaves_full_data_margin_alone():
    task, X, y, rng = _counting_logreg()
    theta = rng.standard_normal(5)
    task.loss(theta)  # fills the cache
    idx = np.arange(0, 40, 3)
    g_client = task.grad(theta, idx)
    ref_loss, _, _ = _uncached_loss_grad_hessian(X, y, theta)
    assert task.loss(theta) == ref_loss
    assert np.array_equal(g_client, _uncached_loss_grad_hessian(X[idx], y[idx], theta)[1])
    theta2 = theta + 0.1
    task.grad(theta2, idx)
    assert task.loss(theta2) == _uncached_loss_grad_hessian(X, y, theta2)[0]


def _blocked_logreg(monkeypatch, n, d, rows=None, seed=12):
    """A logistic task over random data whose full-data passes walk `rows`-row
    blocks (the default byte budget when rows is None)."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d)) / math.sqrt(d)
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    with monkeypatch.context() as m:
        if rows is not None:
            m.setattr(tasks_module, "_ROW_BLOCK_BYTES", rows * 8 * d)
        task = _logreg_task(X, y, X[:10], y[:10])
    return task, X, y, 0.5 * rng.standard_normal(d)


def _full_margin(task, theta):
    return inspect.getclosurevars(task.loss).nonlocals["full_margin"](theta)


def _row_blocks(task):
    full_blocks = inspect.getclosurevars(task.grad).nonlocals["full_blocks"]
    return [s for s, *_ in inspect.getclosurevars(full_blocks).nonlocals["blocks"]]


# (n, d, rows per block): 64-row blocks from the default budget at d = 2000
# and a monkeypatched 32-row budget, each with a ragged tail block.  OpenBLAS
# runs the reference X @ theta of these sizes on one thread; at n = 300 and
# d = 2000 it splits the rows between two threads, and then the reference's
# own bits depend on the thread count while the 64-row blocks' do not.
MULTI_BLOCK_SHAPES = [(200, 2000, None), (203, 5, 32)]


@pytest.mark.parametrize("n,d,rows", MULTI_BLOCK_SHAPES)
def test_logreg_block_pass_keeps_margin_and_loss_bits(monkeypatch, n, d, rows):
    task, X, y, theta = _blocked_logreg(monkeypatch, n, d, rows)
    slices = _row_blocks(task)
    assert len(slices) > 2 and slices[-1].stop > n  # several blocks, a ragged tail
    ref_loss, ref_grad, ref_hess = _uncached_loss_grad_hessian(X, y, theta)
    g = task.grad(theta)
    assert np.array_equal(_full_margin(task, theta), X @ theta)
    assert task.loss(theta) == ref_loss
    np.testing.assert_allclose(g, ref_grad, rtol=1e-12, atol=0.0)
    if d <= 500:
        np.testing.assert_allclose(task.hessian(theta), ref_hess, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("n,d,rows", MULTI_BLOCK_SHAPES)
def test_logreg_block_pass_bits_do_not_depend_on_call_order(monkeypatch, n, d, rows):
    grad_first, X, y, theta = _blocked_logreg(monkeypatch, n, d, rows)
    g = grad_first.grad(theta)
    loss_first, *_ = _blocked_logreg(monkeypatch, n, d, rows)
    loss_first.loss(theta)  # fills the margin cache; grad only skips the products
    assert np.array_equal(loss_first.grad(theta), g)
    assert np.array_equal(grad_first.grad(theta), g)  # a second hit, same bits


def test_logreg_one_block_shape_keeps_unfused_bits(monkeypatch):
    # 40 rows fit one block, and the sum starts from that block's product:
    # the grad and the Hessian are the unfused products bit for bit
    task, X, y, theta = _blocked_logreg(monkeypatch, 40, 5)
    assert _row_blocks(task) == [slice(0, 26208)]
    ref_loss, ref_grad, ref_hess = _uncached_loss_grad_hessian(X, y, theta)
    assert task.grad(theta).tobytes() == ref_grad.tobytes()
    assert task.loss(theta) == ref_loss
    assert task.hessian(theta).tobytes() == ref_hess.tobytes()


def test_logreg_row_blocks_are_aligned():
    # the 1 MiB budget is 65 rows at d = 2000, and a 65-row block changes the
    # bits of X @ theta; the blocks are cut to a multiple of 16 rows
    task = _logreg_task(np.ones((200, 2000)), np.ones(200), None, None)
    assert _row_blocks(task) == [slice(0, 64), slice(64, 128), slice(128, 192), slice(192, 256)]


def test_logreg_hessian_holds_one_row_block_at_a_time(monkeypatch):
    # the Hessian weights one row block at a time instead of building the
    # n x d matrix X * w (16 MB here; a block is under 1 MiB)
    n, d = 20000, 100
    task, X, y, theta = _blocked_logreg(monkeypatch, n, d)
    tracemalloc.start()
    try:
        task.hessian(theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * tasks_module._ROW_BLOCK_BYTES


def test_logreg_full_data_grad_bits_do_not_depend_on_blas_threads():
    # one X @ theta of this shape splits its rows between two threads and
    # changes bits; its 128-row blocks (and the 107-row tail) do not
    code = (
        "import hashlib, math, numpy as np\n"
        "from fedsgm.tasks import _logreg_task\n"
        "rng = np.random.default_rng(3)\n"
        "n, d = 1003, 1000\n"
        "X = rng.standard_normal((n, d)) / math.sqrt(d)\n"
        "y = np.where(rng.random(n) < 0.5, -1.0, 1.0)\n"
        "task = _logreg_task(X, y, X[:10], y[:10])\n"
        "g = task.grad(0.5 * rng.standard_normal(d))\n"
        "print(hashlib.sha256(g.tobytes()).hexdigest())\n"
    )
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]


# ---------------------------------------------------------------------------
# intrinsic dimension


def test_intrinsic_dimension_orthogonal_invariance():
    # same spectrum, different random rotations -> same intrinsic dimension
    lam = power_law_spectrum(40)
    vals = [intrinsic_dimension(make_federated_quadratic(lam, seed=s)[0]) for s in range(4)]
    assert max(vals) - min(vals) <= 1e-8


def test_intrinsic_dimension_range():
    for d in (3, 17):
        task = make_federated_quadratic(power_law_spectrum(d), seed=d)[0]
        I = intrinsic_dimension(task)
        assert 1.0 <= I <= d


def test_intrinsic_dimension_requires_positive_top_eigenvalue():
    bad = Task(
        name="concave",
        d=3,
        n=1,
        loss=lambda theta, idx=None: float(-0.5 * theta @ theta),
        grad=lambda theta, idx=None: -np.asarray(theta),
        hessian=lambda theta: -np.eye(3),
        theta0=np.zeros(3),
    )
    with pytest.raises(ConfigurationError):
        intrinsic_dimension(bad)


# ---------------------------------------------------------------------------
# gradient-scale diagnostics


def _zero_task(d=4, n=12):
    return Task(
        name="zero",
        d=d,
        n=n,
        loss=lambda theta, idx=None: 0.0,
        grad=lambda theta, idx=None: np.zeros(d),
        hessian=lambda theta: np.zeros((d, d)),
        theta0=np.zeros(d),
        minimum_value=0.0,
    )


def test_estimate_zero_task():
    task = _zero_task()
    part = iid_partition(task.n, 3, seed=0)
    G, sigma_s = estimate_G_and_sigma_s(task, part, [np.zeros(4)], batch_size=2)
    assert G == 0.0 and sigma_s == 0.0


def test_estimate_full_batch_noise_free():
    task, part = make_logreg(n=60, d=5, clients=3, seed=7)
    thetas = [np.zeros(5), 0.1 * np.ones(5)]
    G, sigma_s = estimate_G_and_sigma_s(task, part, thetas, batch_size=10**6)
    assert sigma_s == 0.0
    assert G > 0.0


def test_estimate_quadratic_gradient_bound():
    lam = np.array([4.0, 2.0, 1.0])
    scale = 2.0
    task, part = make_federated_quadratic(lam, seed=9, clients=4, heterogeneity=0.5, center_scale=scale)
    rng = np.random.default_rng(10)
    thetas = [rng.standard_normal(3) for _ in range(5)]
    G, _ = estimate_G_and_sigma_s(task, part, thetas, batch_size=1)
    # per-client centers stay within center_scale + heterogeneity spread, so
    # ||H (theta - c)|| <= lam_max (||theta|| + ||c||)
    max_theta = max(np.linalg.norm(t) for t in thetas)
    center_bound = scale + 0.5 * 4  # generous cap on the spread
    assert G <= lam.max() * (max_theta + center_bound)
