"""Suite-wide guards."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_worker_outlives_a_test():
    """No worker process a test started, through a sweep or directly, is
    left running when it ends."""
    yield
    assert multiprocessing.active_children() == []
