"""A wall-clock limit for one block of a test, shared by the property tests."""
from __future__ import annotations

import contextlib
import signal


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block after `seconds`, so a loop that
    never ends fails instead of hanging the run."""

    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
