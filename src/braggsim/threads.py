"""The BRAGGSIM_THREADS setting: how many threads the numeric code may use.

Read here, without importing numpy, so that the command line can pass it to
the BLAS and OpenMP thread variables before numpy loads, and the overlap
kernel reads the same value through the same parser.
"""
from __future__ import annotations

import os


def requested_threads() -> int:
    """BRAGGSIM_THREADS as an integer >= 0; 0 (also when unset) means
    automatic. Anything else raises ValueError naming the variable."""
    raw = os.environ.get("BRAGGSIM_THREADS", "").strip()
    if not raw:
        return 0
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"BRAGGSIM_THREADS: expected an integer, got {raw!r}") from None
    if n < 0:
        raise ValueError("BRAGGSIM_THREADS: must be >= 0")
    return n


def thread_count() -> int:
    """Threads to use: BRAGGSIM_THREADS, or the usable cores when automatic
    (all cores where the platform cannot say which are usable)."""
    n = requested_threads()
    if n:
        return n
    if hasattr(os, "sched_getaffinity"):      # Linux and some other Unixes
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
