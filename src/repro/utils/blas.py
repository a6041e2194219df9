"""Per-process BLAS thread budgets, set through the bundled OpenBLAS.

Every forked worker inherits OpenBLAS's default thread count, so N
compute processes on ``nproc`` cores run N x ``nproc`` BLAS threads and
the cores thrash.  The multi-process tiers (the serving worker pool, the
data-parallel trainer, sharded export) therefore give each process a
budget of ``cores // processes`` threads with these helpers.

threadpoolctl is not a dependency, so this talks to the OpenBLAS that
ships inside numpy's wheel directly through :mod:`ctypes`.  Where that
library or its thread-control symbols are missing (another BLAS, a
source build), every helper is a no-op and :func:`blas_threads` returns
``None``.

A budget only ever lowers a process's thread count: a user who starts
the process with ``OPENBLAS_NUM_THREADS=1`` keeps one thread.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
from contextlib import contextmanager

#: (get, set) symbol pairs, most specific first: numpy >= 2 bundles
#: ``libscipy_openblas64_`` with a prefixed, ILP64-suffixed API.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.lru_cache(maxsize=None)
def _api():
    """``(get, set)`` ctypes functions of numpy's OpenBLAS, or ``None``."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..",
                                  "numpy.libs", "lib*openblas*.so*"))
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get = getattr(lib, get_name, None)
            put = getattr(lib, set_name, None)
            if get is None or put is None:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


def blas_threads() -> int | None:
    """This process's BLAS thread count, or ``None`` when unknown."""
    api = _api()
    return None if api is None else int(api[0]())


def cap_blas_threads(n: int) -> int | None:
    """Lower this process's BLAS threads to at most ``n``.

    Never raises the count.  Returns the count before the call (``None``
    when BLAS threads cannot be controlled, in which case nothing
    happens).
    """
    api = _api()
    if api is None:
        return None
    before = int(api[0]())
    if n < before:
        api[1](max(1, int(n)))
    return before


@contextmanager
def limit_blas_threads(n: int):
    """Cap BLAS threads at ``n`` for the block, then restore the count.

    Yields the count in effect inside the block (``None`` when BLAS
    threads cannot be controlled).  The previous count comes back on exit,
    also when the block raises.
    """
    before = cap_blas_threads(n)
    try:
        yield blas_threads()
    finally:
        if before is not None:
            _api()[1](before)


def thread_budget(processes: int) -> int:
    """BLAS threads per process when ``processes`` share this CPU affinity."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API (macOS)
        cores = os.cpu_count() or 1
    return max(1, cores // max(1, int(processes)))
