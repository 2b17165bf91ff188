"""Checks that every test runs under."""

from __future__ import annotations

import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that leaves a thread alive that was not alive at its
    start, once each such thread has been joined for at most 5 s: a pass
    whose noise pool outlives it would otherwise go unseen."""
    before = set(threading.enumerate())
    yield
    left = []
    for thread in threading.enumerate():
        if thread not in before:
            thread.join(5.0)
            if thread.is_alive():
                left.append(thread.name)
    if left:
        pytest.fail(f"threads left running: {', '.join(left)}")
