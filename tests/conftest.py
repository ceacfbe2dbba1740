"""Checks shared by every test."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_sketch_worker_left():
    """Fail a test that leaves a run's draw-ahead worker thread alive: every
    run joins its worker, whether it completes or raises."""
    yield
    left = [t for t in threading.enumerate() if t.name == "fedsgm-sketch"]
    assert not left, f"{len(left)} sketch worker thread(s) left alive"
