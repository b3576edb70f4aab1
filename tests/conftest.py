"""Shared fixtures: the explicit degree-(10, 23, 25) map and derived
values are expensive enough to build once per session."""

from __future__ import annotations

import contextlib
import signal

import pytest

from tamedeg import build_example_map, find_elementary_reduction, verify_example


@pytest.fixture(scope="session")
def example_map():
    return build_example_map()


@pytest.fixture(scope="session")
def example_reduction(example_map):
    return find_elementary_reduction(example_map, 1, 50)


@pytest.fixture(scope="session")
def example_report(example_map):
    return verify_example(example_map)


class _Expired(BaseException):
    """Raised by the time_limit alarm; a BaseException, so that no
    `except Exception` in the code under test swallows it."""


@pytest.fixture
def time_limit():
    """time_limit(seconds) is a context manager that fails the test when
    its block runs longer than `seconds` of wall time, instead of letting
    a hanging search stall the suite."""

    def expire(signum, frame):
        raise _Expired

    @contextlib.contextmanager
    def limit(seconds: float):
        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        expired = False
        try:
            yield
        except _Expired:
            expired = True
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        if expired:
            pytest.fail(f"did not finish within {seconds} s", pytrace=False)

    return limit
