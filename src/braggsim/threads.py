"""The BRAGGSIM_THREADS setting: how many threads BLAS and OpenMP may use.

Read here, without importing numpy, so that the command line can pass it to
the BLAS and OpenMP thread variables before numpy loads. The overlap kernel
does not read it: it runs on the calling thread, reusing one set of work
arrays per call.
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
