"""A time limit on every test.

A test that runs longer than TEST_TIME_LIMIT seconds fails, so a hang (a
loop that never ends, say under a mutant from tests/mutate.py) fails its
test instead of stalling the suite.  The slowest test takes a few seconds.
The limit uses SIGALRM, so it holds only where the platform has it.
"""

import signal

import pytest

TEST_TIME_LIMIT = 60


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"test ran over the limit of {TEST_TIME_LIMIT} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
