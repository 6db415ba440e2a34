"""Fixtures shared by the test modules."""

import multiprocessing
import time

import pytest


@pytest.fixture
def workers_gone():
    """Wait, at most ``timeout_s``, for every child process to exit.

    Returns whether none is left; call it after a process pool has closed.
    """

    def wait(timeout_s: float = 10.0) -> bool:
        deadline = time.monotonic() + timeout_s
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        return not multiprocessing.active_children()

    return wait
