"""OpenBLAS thread counts, set through ctypes.

One thread rule holds in every process of a CLI command: OpenBLAS runs at
one thread, except inside `full_threads`, around the magnitude solves,
where it runs at the thread count the command started with. One thread
is faster for the program's other products on few cores, and it leaves
the cores to the pool workers of a run with `jobs > 1`. The solves cannot
run at one thread: OpenBLAS splits a Cholesky factorization, and a
matrix-vector product over the whole matrix, among its threads in a way
that changes the result with the thread count (in the last bits, or
further on an ill-conditioned matrix). So all of them run at the start
count, and the pool workers take turns at them. The direct solve's
residual is formed in blocks of 64 rows, whose products gave the
one-thread bits at every count tried (1 to 4).

`cli.main` puts its process under the rule (`command_threads`) and
restores the counts it found when the command ends; a worker of
`worker_pool` takes the rule, with the start count of its main process,
for its lifetime (`one_thread`). Outside both, as in a library call,
this module changes nothing. The libraries are found among the shared
objects mapped into the process. One that loads later, such as scipy's
at the first scipy import, comes under the rule when this module first
sees it, at the latest at the first solve, the only code that calls it.
Without OpenBLAS nothing changes.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import sys
from dataclasses import dataclass, field

# scipy's and numpy's wheels prefix their OpenBLAS symbols, and a build
# with 64-bit integers adds a suffix
_NAMES = [(f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
          for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", "")]


@dataclass
class _Rule:
    threads: int  # the start count, at which the solves run
    turn: contextlib.AbstractContextManager  # held around each solve
    level: int = 1  # the count every library is at now
    # the count each library had when the rule first set it
    found: dict[str, int] = field(default_factory=dict)


# the rule of this process, or None outside a command and a pool worker
_rule: _Rule | None = None

# len(sys.modules) at the last scan of the mapped libraries, and the
# (get, set) controls it found by path: a library loads only through an
# import, and a scan reads /proc/self/maps (0.7 ms)
_scan: tuple[int, dict] = (-1, {})


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


def _libraries() -> dict:
    """The controls of every loaded OpenBLAS, by path; under a rule, a
    library seen for the first time is set to the rule's level first."""
    global _scan
    if _scan[0] != len(sys.modules):
        _scan = (len(sys.modules), {path: controls for path in _loaded_paths()
                                    if (controls := _controls(path)) is not None})
    if _rule is not None and _scan[1].keys() - _rule.found:
        _set_all(_rule.level)
    return _scan[1]


def _set_all(level: int) -> None:
    _rule.level = level
    for path, (get, set_) in _scan[1].items():
        _rule.found.setdefault(path, get())
        set_(level)


def thread_counts() -> dict[str, int]:
    """The thread count of each loaded OpenBLAS, by library path."""
    return {path: get() for path, (get, _) in _libraries().items()}


def start_threads() -> int:
    """The thread count of this process's solves: the start count of its
    rule, else the highest count of a loaded OpenBLAS."""
    if _rule is not None:
        return _rule.threads
    return max(thread_counts().values(), default=1)


def one_thread(threads: int, turn) -> None:
    """This process under the rule, with the start count `threads`; `turn`
    is held around each solve. The process-pool initializer, with the main
    process's start count and the lock that the workers share."""
    global _rule
    _libraries()
    _rule = _Rule(threads, turn)
    _set_all(1)


def worker_pool(jobs: int):
    """A process pool of `jobs` workers, each at one BLAS thread but for its
    turns at the magnitude solves, which run at this process's start count
    under one lock that the workers share."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=jobs, initializer=one_thread,
                               initargs=(start_threads(), multiprocessing.Lock()))


@contextlib.contextmanager
def command_threads():
    """The rule for the block, at the highest count a loaded OpenBLAS has
    now; afterwards every library the rule set is back at its count."""
    global _rule
    one_thread(start_threads(), contextlib.nullcontext())
    try:
        yield
    finally:
        rule, _rule = _rule, None
        for path, count in rule.found.items():
            _scan[1][path][1](count)


@contextlib.contextmanager
def full_threads():
    """The block at the start count of the rule, one process at a time;
    unchanged outside a rule."""
    if _rule is None:
        yield
        return
    with _rule.turn:
        _libraries()
        _set_all(_rule.threads)
        try:
            yield
        finally:
            _set_all(1)
