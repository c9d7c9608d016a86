"""Wall-clock and memory limits for tests: one block of a test, or one child process."""
from __future__ import annotations

import contextlib
import os
import resource
import signal
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


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


def run_bounded(args, seconds, address_space) -> subprocess.CompletedProcess:
    """Run `python -m amalgam *args` in a child whose address space is capped
    at `address_space` bytes, with one BLAS thread (each reserves its own
    buffers); subprocess.TimeoutExpired after `seconds`."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "amalgam", *args], env=env, preexec_fn=cap,
                          capture_output=True, text=True, timeout=seconds)
