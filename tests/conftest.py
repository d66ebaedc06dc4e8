"""Shared fixtures."""

import signal

import pytest


@pytest.fixture
def deadline():
    """Fail the test, instead of hanging it, if it runs for 5 s: a bound
    for calls that once looped for good (SIGALRM, so POSIX only)."""

    def expire(signum, frame):
        pytest.fail("still running after 5 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
