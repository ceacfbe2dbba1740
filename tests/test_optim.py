"""Server optimizer tests: one-step GD, AMSGrad, and uncorrected Adam."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from fedsgm import optim
from fedsgm.optim import MomentState, adam_step, amsgrad_step, gd_step
from fedsgm.errors import DimensionMismatchError

# ---------------------------------------------------------------------------
# GD


def test_gd_zero_update():
    theta = np.array([1.0, -2.0])
    out = gd_step(theta, np.zeros(2), 0.1)
    assert np.array_equal(out, theta)


def test_gd_pinned_step():
    out = gd_step(np.array([1.0, 1.0]), np.array([0.5, -0.5]), 0.1)
    assert np.allclose(out, [0.95, 1.05], rtol=0, atol=1e-15)


def test_gd_accepts_bare_learning_rate():
    assert np.array_equal(gd_step(np.ones(3), np.ones(3), 0.2), np.full(3, 0.8))
    assert np.array_equal(gd_step(np.ones(3), np.ones(3), 1), np.zeros(3))


def test_gd_two_steps_equal_summed_update():
    theta = np.array([3.0, -1.0, 0.5])
    u1 = np.array([0.1, 0.2, -0.3])
    u2 = np.array([-0.05, 0.4, 0.0])
    eta = 0.7
    two = gd_step(gd_step(theta, u1, eta), u2, eta)
    one = gd_step(theta, u1 + u2, eta)
    assert np.allclose(two, one, rtol=1e-12, atol=1e-15)


def test_gd_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        gd_step(np.zeros(3), np.zeros(4), 0.1)


# ---------------------------------------------------------------------------
# AMSGrad


def test_amsgrad_zero_update_is_noop():
    state = MomentState.init(2)
    theta, new = amsgrad_step(np.array([1.0, 2.0]), np.zeros(2), state, eta=0.5)
    assert np.array_equal(theta, [1.0, 2.0])
    assert np.array_equal(new.v, state.v)


def test_amsgrad_hand_trace():
    # d=1, theta0=0, updates {1, 1}, beta1=0.9, beta2=0.99, eps=1e-8, eta=1.
    # Reference values computed by hand before implementation.
    state = MomentState.init(1)
    theta, state = amsgrad_step(np.zeros(1), np.ones(1), state, eta=1.0)
    assert state.m[0] == pytest.approx(0.1, rel=1e-15)
    assert state.v[0] == pytest.approx(0.01, rel=1e-15)
    assert theta[0] == pytest.approx(-0.99999990000001, rel=1e-12)
    theta, state = amsgrad_step(theta, np.ones(1), state, eta=1.0)
    assert state.m[0] == pytest.approx(0.19, rel=1e-15)
    assert state.v[0] == pytest.approx(0.0199, rel=1e-15)
    assert theta[0] == pytest.approx(-2.3468740940384683, rel=1e-12)


def test_amsgrad_state_validation():
    with pytest.raises(DimensionMismatchError):
        amsgrad_step(np.zeros(3), np.zeros(3), MomentState.init(2), eta=0.1)


def test_amsgrad_v_hat_tracked_separately():
    # A large spike pushes v up; v then stays at the spike level while the
    # second-moment EMA decays below it.
    state = MomentState.init(1)
    _, state = amsgrad_step(np.zeros(1), np.array([10.0]), state, eta=1.0)
    spike_v = state.v[0]
    _, state = amsgrad_step(np.zeros(1), np.array([0.1]), state, eta=1.0)
    assert state.v[0] == spike_v  # max holds


@settings(max_examples=60, deadline=None)
@given(
    updates=st.lists(
        hnp.arrays(
            np.float64,
            4,
            elements=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_amsgrad_v_never_decreases(updates):
    state = MomentState.init(4)
    theta = np.zeros(4)
    prev_v = state.v.copy()
    for u in updates:
        theta, state = amsgrad_step(theta, u, state, eta=0.1)
        assert np.all(state.v >= prev_v)
        assert np.all(np.isfinite(state.v))
        prev_v = state.v.copy()


@settings(max_examples=60, deadline=None)
@given(
    u=hnp.arrays(
        np.float64,
        5,
        elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    ),
    eta=st.floats(min_value=1e-4, max_value=10.0),
)
def test_amsgrad_step_magnitude_bound(u, eta):
    state = MomentState.init(5)
    theta, new = amsgrad_step(np.zeros(5), u, state, eta=eta)
    assert np.all(np.abs(theta) <= eta * np.abs(new.m) / optim.EPS + 1e-12)


# ---------------------------------------------------------------------------
# Adam


def test_adam_single_step_matches_amsgrad_from_zero():
    # v0 = 0 so max(v_hat, 0) = v_hat: identical first step.
    g = np.array([0.3, -1.2])
    t_adam, _ = adam_step(np.zeros(2), g, MomentState.init(2), eta=0.5)
    t_ams, _ = amsgrad_step(np.zeros(2), g, MomentState.init(2), eta=0.5)
    assert np.array_equal(t_adam, t_ams)


def test_adam_matches_amsgrad_on_monotone_second_moment():
    # With update magnitudes growing, v_hat never decreases, the max is a
    # no-op, and the two optimizers walk the same path bit for bit.
    adam = MomentState.init(1)
    ams = MomentState.init(1)
    ta = np.zeros(1)
    tm = np.zeros(1)
    for k in range(1, 10):
        u = np.array([float(k)])
        ta, adam = adam_step(ta, u, adam, eta=0.1)
        tm, ams = amsgrad_step(tm, u, ams, eta=0.1)
        assert np.array_equal(ta, tm)
        assert np.array_equal(adam.v, ams.v)


def test_adam_diverges_from_amsgrad_after_spike():
    # After a spike the max matters: Adam's v decays, AMSGrad's holds.
    adam = MomentState.init(1)
    ams = MomentState.init(1)
    ta = np.zeros(1)
    tm = np.zeros(1)
    for u in ([10.0], [0.1], [0.1]):
        ta, adam = adam_step(ta, np.array(u), adam, eta=0.1)
        tm, ams = amsgrad_step(tm, np.array(u), ams, eta=0.1)
    assert adam.v[0] < ams.v[0]
    assert ta[0] != tm[0]
