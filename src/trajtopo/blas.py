"""OpenBLAS thread counts, set through ctypes.

OpenBLAS splits a Cholesky factorization among its threads in a way that
changes the factor with the thread count: in the last bits, or further
on an ill-conditioned matrix. So every factorization of a run uses the
thread count of its main process. The pool workers of a run with
`jobs > 1` run everything else at one thread, since together they already
use the cores, and take turns at the factorizations (`full_threads`).
The libraries are found among the shared objects mapped into the process;
without OpenBLAS nothing changes.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os

# scipy's and numpy's wheels prefix their OpenBLAS symbols, and a build
# with 64-bit integers adds a suffix
_NAMES = [(f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
          for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", "")]

# in a pool worker: the thread count of the main process, and the lock
# the workers share for it; None elsewhere
_worker = None


def _loaded_paths() -> list[str]:
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            return sorted({line.split()[-1] for line in maps
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return []


@functools.cache
def _controls(path: str):
    """The (get, set) thread-count functions of the library at `path`, or None."""
    lib = ctypes.CDLL(path)
    for get, set_ in _NAMES:
        if hasattr(lib, get) and hasattr(lib, set_):
            getter, setter = getattr(lib, get), getattr(lib, set_)
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter.argtypes, setter.restype = [ctypes.c_int], None
            return getter, setter
    return None


def thread_counts() -> dict[str, int]:
    """The thread count of each loaded OpenBLAS, by library path."""
    return {path: controls[0]() for path in _loaded_paths()
            if (controls := _controls(path)) is not None}


def _set(counts: dict[str, int]) -> None:
    for path, count in counts.items():
        _controls(path)[1](count)


def one_per_worker(lock) -> None:
    """Process-pool initializer: one thread for every OpenBLAS loaded now,
    and through OPENBLAS_NUM_THREADS for those loaded later, such as
    scipy's at a worker's first solve. `lock`, shared by the workers,
    guards `full_threads`."""
    global _worker
    counts = thread_counts()
    if counts:
        _worker = (max(counts.values()), lock)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    _set(dict.fromkeys(counts, 1))


@contextlib.contextmanager
def full_threads():
    """The block at the thread count of the run's main process: unchanged
    outside a pool; in a worker, one worker at a time."""
    if _worker is None:
        yield
        return
    threads, lock = _worker
    with lock:
        before = thread_counts()
        _set(dict.fromkeys(before, threads))
        try:
            yield
        finally:
            _set(before)
