"""Synthetic training tasks and client partitions.

Two task families cover the experiments at desk scale:

* quadratics with a controlled Hessian spectrum (so curvature quantities like
  the intrinsic dimension are exact), optionally with heterogeneous per-client
  minima, and
* synthetic binary logistic regression with IID or label-skewed partitions.

A Task exposes the full-data mean loss, the mean gradient over arbitrary
sample subsets, and the full Hessian.

The builders trust their arguments: the config schema (`fedsgm.config`)
checks every value that reaches them, so a bad value is refused by its key
before any array is drawn.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError
from .sketch import piecewise_matmul

_HESSIAN_DIM_LIMIT = 500

# The full-data logistic passes walk X in row blocks of about this many bytes,
# so a block read for its margins is still in cache for its share of C @ X.
_ROW_BLOCK_BYTES = 1 << 20
# Every full-data product takes this many iterates: a stack is padded with
# zero rows to a multiple of it, so a row's bits do not depend on the length
# of its stack.  In OpenBLAS 0.3.31 (Haswell kernels) they did: at fed_dense's
# block shape a margin row rounded one way in a call of 2-3 rows, another in
# 4-18 rows and a third from 19, and numpy runs a one-row product as a GEMV.
# 4-row products gave the same bits at one and two BLAS threads over a sweep
# of 16 widths d with 5 block lengths each; 16-row ones did not at 19 of those
# shapes.  2-row products cost 1.5x as much per iterate (fed_dense shape).
_PRODUCT_ROWS = 4
# The logistic task scores a window of iterates (Task.eval_window) in one
# pass over X.  Per iterate the window keeps its n + n_test margins and four
# d-vectors (the iterate, its gradient and a block's terms); it holds as many
# iterates as fit this budget, and at least one.
_EVAL_WINDOW_BYTES = 4 << 20

# estimate_G_and_sigma_s: minibatch draws per (probe, client), and the tail
# quantile its sub-Gaussian fit matches
_NOISE_DRAWS = 8
_NOISE_QUANTILE = 0.975

_TASK_TAG = 0x7A5C


@dataclass(frozen=True)
class Partition:
    """Disjoint assignment of sample indices to clients."""

    assignments: tuple
    n: int

    def __post_init__(self):
        seen = np.concatenate([np.asarray(a) for a in self.assignments])
        if len(seen) != self.n or len(np.unique(seen)) != self.n:
            raise ConfigurationError("partition must cover each sample exactly once")
        for c, a in enumerate(self.assignments):
            if len(a) == 0:
                raise ConfigurationError(f"client {c} has an empty shard")

    @property
    def num_clients(self) -> int:
        return len(self.assignments)

    def client_indices(self, c: int) -> np.ndarray:
        return np.asarray(self.assignments[c])


@dataclass
class Task:
    """A differentiable objective over n samples.

    loss is the mean loss over all samples.  grad takes an optional index
    array and averages over it (all samples when omitted); it also takes an
    (N, d) stack with N index arrays, one gradient per row.  hessian is the
    full-data Hessian at theta, a dense d x d array.

    eval_window is how many iterates the full-data grad, loss and test_metric
    take at once, as a (W, d) stack with one result per row; 1 means vectors
    only.  The logistic task derives it from its data and scores a stack in
    one pass over X: on each row block, the stack takes matrix products of a
    fixed number of iterates (_PRODUCT_ROWS), not one product per iterate, so
    a row's result has the same bits in a stack of any length, a vector's
    included, and at one and two BLAS threads.  It keeps its last full-data
    margins in a one-slot cache keyed by the stack's values, so full-data
    grad, loss and hessian at one stack share one read of X.
    """

    name: str
    d: int
    n: int
    loss: Callable
    grad: Callable
    hessian: Callable
    theta0: np.ndarray
    minimum_value: float = math.nan
    test_metric: Optional[Callable] = None
    test_metric_name: str = "loss"
    eval_window: int = 1

    def __post_init__(self):
        self._metric_is_loss = self.test_metric is None
        if self._metric_is_loss:
            self.test_metric = lambda theta: float(self.loss(theta))
            self.test_metric_name = "loss"

    def evaluate(self, theta):
        """Full-data (train loss, test metric) at an iterate, or one of each per
        row of a stack; a default metric reuses the loss."""
        loss = self.loss(theta)
        return loss, (loss if self._metric_is_loss else self.test_metric(theta))


def _client_batch(theta, idx):
    """An (N, d) stack of iterates and its N index arrays; a vector is N = 1."""
    rows = np.asarray(theta, dtype=np.float64)
    return (rows, idx) if rows.ndim == 2 else (rows[None], [idx])


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------


def iid_partition(n: int, num_clients: int, seed: int = 0) -> Partition:
    """Random equal-ish split of n >= num_clients samples into num_clients shards."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, _TASK_TAG, 1))))
    perm = rng.permutation(n)
    return Partition(tuple(np.sort(a) for a in np.array_split(perm, num_clients)), n)


def label_skew_partition(
    labels: np.ndarray, num_clients: int, concentration: float = 0.5, seed: int = 0
) -> Partition:
    """Dirichlet label-skew split of len(labels) >= num_clients samples: small
    concentration (> 0), strong heterogeneity."""
    labels = np.asarray(labels)
    n = len(labels)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, _TASK_TAG, 2))))
    shards: list[list[int]] = [[] for _ in range(num_clients)]
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        props = rng.dirichlet(np.full(num_clients, concentration))
        cuts = (np.cumsum(props)[:-1] * len(idx)).astype(int)
        for c, part in enumerate(np.split(idx, cuts)):
            shards[c].extend(part.tolist())
    # keep every client trainable: hand one sample from the largest shard
    for c in range(num_clients):
        if not shards[c]:
            donor = max(range(num_clients), key=lambda k: len(shards[k]))
            shards[c].append(shards[donor].pop())
    return Partition(tuple(np.sort(np.array(s, dtype=int)) for s in shards), n)


# ---------------------------------------------------------------------------
# Quadratic tasks
# ---------------------------------------------------------------------------


def power_law_spectrum(d: int, power: float = 2.0) -> np.ndarray:
    """Eigenvalues lambda_i = i^(-power), i = 1..d."""
    return np.arange(1, d + 1, dtype=np.float64) ** (-power)


def make_federated_quadratic(
    eigenvalues: Sequence[float],
    seed: int = 0,
    clients: int = 1,
    heterogeneity: float = 0.0,
    center_scale: float = 1.0,
) -> tuple[Task, Partition]:
    """Quadratic objective L(theta) = mean_i 0.5 (theta-c_i)^T H (theta-c_i).

    H = Q diag(eigenvalues) Q^T with a seeded random orthogonal Q, so the
    Hessian spectrum is exactly the requested one.  One sample per client;
    `heterogeneity` spreads the per-client centers c_i around a common center
    of norm center_scale (zero spread keeps all clients identical).
    """
    lam = np.asarray(eigenvalues, dtype=np.float64)
    d = lam.shape[0]
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, _TASK_TAG, 3))))
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    H = (Q * lam) @ Q.T
    H = 0.5 * (H + H.T)  # exact symmetry despite rounding

    base = rng.standard_normal(d)
    base *= center_scale / np.linalg.norm(base)
    if clients > 1 and heterogeneity > 0.0:
        offsets = heterogeneity * rng.standard_normal((clients, d)) / math.sqrt(d)
        offsets -= offsets.mean(axis=0)  # the global optimum stays at `base`
        centers = base + offsets
    else:
        centers = np.tile(base, (clients, 1))

    mean_center = centers.mean(axis=0)

    # The means below are np.mean's own arithmetic (np.add.reduce, then a
    # divide by the count) without its Python wrapper: the bits are the same,
    # and these run several times per round.

    def half_mean_quad_form(diffs):
        # row-wise diffs_i^T H diffs_i; two einsum operands, since numpy runs
        # a three-operand einsum as a naive loop
        forms = np.einsum("id,id->i", diffs @ H, diffs)
        return float(0.5 * (np.add.reduce(forms) / len(forms)))

    min_val = half_mean_quad_form(centers - mean_center)

    def loss(theta):
        return half_mean_quad_form(theta - centers)

    def grad(theta, idx=None):
        if idx is None:
            return H @ (theta - mean_center)
        rows, idx = _client_batch(theta, idx)
        sizes = [len(i) for i in idx]
        starts = list(itertools.accumulate(sizes, initial=0))[:-1]
        picked = centers[np.concatenate(idx)]
        sums = picked[starts]  # row after row, as np.mean sums (np.add.reduceat does not)
        for k in range(1, max(sizes)):
            live = [j for j, size in enumerate(sizes) if size > k]
            sums[live] += picked[[starts[j] + k for j in live]]
        # H @ D^T rather than D @ H: one client's row is then H's GEMV
        return (H @ (rows - sums / np.array(sizes)[:, None]).T).T.reshape(np.shape(theta))

    task = Task(
        name="quadratic",
        d=d,
        n=clients,
        loss=loss,
        grad=grad,
        hessian=lambda theta: H,
        theta0=np.zeros(d),
        minimum_value=min_val if lam.min() >= 0.0 else math.nan,
    )
    part = Partition(tuple(np.array([c]) for c in range(clients)), clients)
    return task, part


# ---------------------------------------------------------------------------
# Logistic regression tasks
# ---------------------------------------------------------------------------


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _per_iterate(theta, values):
    """One value per row of the stack theta: a float for a vector, else an array."""
    return values[0] if np.ndim(theta) == 1 else np.array(values)


def _logreg_task(X: np.ndarray, y: np.ndarray, X_test: np.ndarray, y_test: np.ndarray) -> Task:
    n, d = X.shape
    if set(np.unique(y)) - {-1.0, 1.0}:
        raise ConfigurationError("labels must be in {-1, +1}")

    # Full-data passes walk these row blocks: a block's margins, coefficients
    # and share of C @ X (or of X^T W X) are computed, for the whole stack,
    # while the block is in cache.
    rows = max(1, _ROW_BLOCK_BYTES // (X.itemsize * d))

    def padded(theta):
        """theta's rows and zero rows, _PRODUCT_ROWS per product."""
        stack = np.atleast_2d(theta)
        if len(stack) % _PRODUCT_ROWS == 0:
            return np.ascontiguousarray(stack, dtype=np.float64)
        out = np.zeros((-(-len(stack) // _PRODUCT_ROWS) * _PRODUCT_ROWS, d))
        out[: len(stack)] = stack
        return out

    def row_blocks(*arrays):
        return [(s, *(a[s] for a in arrays))
                for s in (slice(lo, lo + rows) for lo in range(0, len(arrays[0]), rows))]

    blocks = row_blocks(X, y)

    def block_margins(zb, Xb, stack):
        # padded stack @ Xb.T, _PRODUCT_ROWS rows at a time, each summed over SKETCH_DEPTH pieces
        for top in range(0, len(stack), _PRODUCT_ROWS):
            part = slice(top, top + _PRODUCT_ROWS)
            zb[part] = piecewise_matmul(stack[part], Xb.T)

    def block_grad(c, Xb):
        # c @ Xb for the padded stack's coefficients, _PRODUCT_ROWS rows at a time
        out = np.empty((len(c), d))
        for top in range(0, len(c), _PRODUCT_ROWS):
            part = slice(top, top + _PRODUCT_ROWS)
            np.matmul(c[part], Xb, out=out[part])
        return out

    # One-slot cache of the full-data margins Z = padded(stack) @ X^T.
    # run_federation scores a window with grad then loss; the cache lets them
    # share one read of X.  The key is the stack's values (a stored copy
    # compared with np.array_equal, never id(theta)), so a caller that changes
    # theta in place gets fresh numbers.  A hit runs the same block loop and
    # skips only the margin products, so no result depends on the call order.
    # Client calls (idx given) bypass it.
    cached_theta, cached_z = None, None

    def full_blocks(theta):
        """(X, y, margins) row blocks at a stack of iterates, one margin row
        per row of padded(theta); fills the cache on a miss."""
        nonlocal cached_theta, cached_z
        stack = np.atleast_2d(theta)
        hit = cached_theta is not None and np.array_equal(stack, cached_theta)
        if not hit:
            stack = padded(stack)
        z = cached_z if hit else np.empty((len(stack), n))
        for s, Xb, yb in blocks:
            if not hit:
                block_margins(z[:, s], Xb, stack)
            yield Xb, yb, z[:, s]
        if not hit:
            z.flags.writeable = False  # shared by every full-data caller
            cached_theta, cached_z = np.array(np.atleast_2d(theta)), z

    def full_margin(theta):
        for _ in full_blocks(theta):
            pass
        return cached_z[: len(np.atleast_2d(theta))].reshape(np.shape(theta)[:-1] + (n,))

    def block_sum(terms):
        # starts from the first block's term, not from zeros (0.0 + -0.0 is
        # +0.0), so one block returns the unblocked product itself
        return functools.reduce(operator.iadd, terms)

    def coefficients(yi, z):
        return -yi * _sigmoid(-yi * z)

    def loss(theta):
        z = np.atleast_2d(full_margin(theta))
        return _per_iterate(theta, [float(np.mean(np.logaddexp(0.0, -y * z_j))) for z_j in z])

    def grad(theta, idx=None):
        if idx is None:
            sums = block_sum(block_grad(coefficients(yb, zb), Xb)
                             for Xb, yb, zb in full_blocks(theta))
            return (sums[: len(np.atleast_2d(theta))] / n).reshape(np.shape(theta))
        rows, idx = _client_batch(theta, idx)  # a client at a time: its rows stay in cache
        out = np.empty_like(rows)
        for i, (theta_i, idx_i) in enumerate(zip(rows, idx)):
            Xi, yi = X[idx_i], y[idx_i]
            out[i] = Xi.T @ coefficients(yi, Xi @ theta_i) / len(yi)
        return out.reshape(np.shape(theta))

    def hessian(theta):
        def term(Xb, zb):
            p = _sigmoid(zb)
            return (Xb * (p * (1.0 - p))[:, None]).T @ Xb

        return block_sum(term(Xb, zb[0]) for Xb, _, zb in full_blocks(theta)) / n

    def test_accuracy(theta):
        stack = padded(theta)
        z = np.empty((len(stack), len(X_test)))
        for s, Xb in test_blocks:
            block_margins(z[:, s], Xb, stack)
        z = z[: len(np.atleast_2d(theta))]
        return _per_iterate(theta, [float(np.mean(np.sign(z_j) == y_test)) for z_j in z])

    test_blocks = row_blocks(X_test)
    return Task(
        name="logreg",
        d=d,
        n=n,
        loss=loss,
        grad=grad,
        hessian=hessian,
        theta0=np.zeros(d),
        test_metric=test_accuracy,
        test_metric_name="test_accuracy",
        eval_window=max(1, _EVAL_WINDOW_BYTES // (X.itemsize * (n + len(X_test) + 4 * d))),
    )


def logreg_test_rows(n: int) -> int:
    """Size of the held-out set a logistic task of n training rows draws."""
    return max(200, n // 5)


def make_logreg(
    n: int,
    d: int,
    clients: int,
    seed: int = 0,
    partition: str = "iid",
    skew: float = 0.5,
    label_noise: float = 0.05,
) -> tuple[Task, Partition]:
    """Synthetic binary logistic regression with a held-out accuracy metric.

    Features are isotropic Gaussian rows scaled to unit expected norm, labels
    come from a random unit teacher vector with `label_noise` flip
    probability.  partition: "iid" or "label_skew" (Dirichlet with
    `concentration = skew`).
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, _TASK_TAG, 4))))
    teacher = rng.standard_normal(d)
    teacher /= np.linalg.norm(teacher)

    def draw(m):
        Xm = rng.standard_normal((m, d)) / math.sqrt(d)
        ym = np.sign(Xm @ teacher)
        ym[ym == 0] = 1.0
        flip = rng.random(m) < label_noise
        ym[flip] *= -1.0
        return Xm, ym

    X, y = draw(n)
    X_test, y_test = draw(logreg_test_rows(n))
    task = _logreg_task(X, y, X_test, y_test)
    if partition == "iid":
        return task, iid_partition(n, clients, seed=seed)
    return task, label_skew_partition(y, clients, concentration=skew, seed=seed)


# ---------------------------------------------------------------------------
# Curvature and gradient-noise diagnostics
# ---------------------------------------------------------------------------


def intrinsic_dimension(task: Task, theta: Optional[np.ndarray] = None) -> float:
    """I = sum_i |lambda_i| / lambda_max of the loss Hessian at theta.

    Ranges in [1, d]; equals d for an identity Hessian and stays O(1) for
    fast-decaying spectra.  Requires the exact Hessian (d <= 500)."""
    if task.d > _HESSIAN_DIM_LIMIT:
        raise ConfigurationError(
            f"intrinsic dimension needs a dense eigendecomposition; d = {task.d} > {_HESSIAN_DIM_LIMIT}"
        )
    if theta is None:
        theta = task.theta0
    lam = np.linalg.eigvalsh(task.hessian(theta))
    return float(np.sum(np.abs(lam)) / lam.max())


def estimate_G_and_sigma_s(
    task: Task,
    partition: Partition,
    thetas: Sequence[np.ndarray],
    batch_size: int,
    seed: int = 0,
) -> tuple[float, float]:
    """Empirical client-gradient bound G and minibatch noise scale sigma_s.

    G is the max full-shard client gradient norm over the probe points.
    sigma_s fits the sub-Gaussian tail 2 exp(-a^2/sigma_s^2) to the observed
    _NOISE_DRAWS minibatch deviations per client and probe at the
    _NOISE_QUANTILE quantile; full-batch sampling (batch covering the shard)
    yields exactly 0.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, _TASK_TAG, 5))))
    G = 0.0
    devs = []
    for theta in thetas:
        for c in range(partition.num_clients):
            shard = partition.client_indices(c)
            g_full = task.grad(theta, shard)
            G = max(G, float(np.linalg.norm(g_full)))
            bs = min(batch_size, len(shard))
            for _ in range(_NOISE_DRAWS):
                # sorted so a full batch reproduces g_full bit for bit
                batch = np.sort(rng.choice(shard, size=bs, replace=False))
                devs.append(float(np.linalg.norm(task.grad(theta, batch) - g_full)))
    a_q = float(np.quantile(devs, _NOISE_QUANTILE)) if devs else 0.0
    sigma_s = a_q / math.sqrt(math.log(2.0 / (1.0 - _NOISE_QUANTILE)))
    return G, sigma_s
