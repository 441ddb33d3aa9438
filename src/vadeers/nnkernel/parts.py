"""Row parts of a row-wise computation, run on the calling thread and on
one worker thread that all callers share.

:func:`in_row_parts` uses the worker only where the process may use two
CPUs and BLAS runs each product on one thread: with more BLAS threads,
each product already uses the second core.  The caller and the worker
each take the next part until none is left, so that the caller never
waits for the worker to wake: on a 2-vCPU guest a worker idle between
calls often started milliseconds late.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from pathlib import Path
from typing import Callable

import numpy as np

_lock = threading.Lock()
_pool: ThreadPoolExecutor | None = None


def _shared_pool() -> ThreadPoolExecutor:
    """The one-thread pool of the worker, made on first use."""
    global _pool
    with _lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=1)
        return _pool


def _forget_pool() -> None:
    global _lock, _pool
    _lock, _pool = threading.Lock(), None


if hasattr(os, "register_at_fork"):
    # a forked child has no worker thread, and the lock may have been held
    # by another thread; the child starts afresh
    os.register_at_fork(after_in_child=_forget_pool)


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _openblas(verb: str):
    """``openblas_<verb>_num_threads`` of the OpenBLAS of a numpy wheel,
    under whichever of its symbol names the library has, or None."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in (f"scipy_openblas_{verb}_num_threads64_",
                    f"openblas_{verb}_num_threads64_",
                    f"openblas_{verb}_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                return fn
    return None


@functools.cache
def _blas_threads() -> int | None:
    """Threads the OpenBLAS of a numpy wheel runs a product on, read once
    and again after :func:`use_one_blas_thread`; None for a BLAS that
    cannot be asked, where parts never use the worker."""
    fn = _openblas("get")
    if fn is None:
        return None
    fn.restype, fn.argtypes = ctypes.c_int, []
    return int(fn())


@functools.cache
def _blas_thread_setter() -> Callable[[int], None] | None:
    """The thread-count setter of the OpenBLAS of a numpy wheel, or None."""
    fn = _openblas("set")
    if fn is not None:
        fn.restype, fn.argtypes = None, [ctypes.c_int]
    return fn


def use_one_blas_thread() -> None:
    """Run every BLAS product on one thread, where the OpenBLAS of a numpy
    wheel can be told so; elsewhere nothing changes.  This overrides
    ``OPENBLAS_NUM_THREADS``.  With one BLAS thread, row parts use the
    worker on a two-CPU host, and training is no slower."""
    set_threads = _blas_thread_setter()
    if set_threads is not None:
        set_threads(1)
        _blas_threads.cache_clear()


def in_row_parts(fn: Callable[[slice], None], n: int, part_rows: int) -> None:
    """Call ``fn(rows)`` on each part of ``n`` rows: a part starts every
    ``part_rows`` rows and the leftover joins the last part, so no part
    is shorter than ``part_rows`` unless all ``n`` rows are.  The parts
    are the same on any host.

    Where the process may use two CPUs and BLAS runs on one thread, the
    caller and the worker thread take the next part in turn; ``fn`` must
    be safe to run on two threads at once for different parts.  The
    worker runs under the caller's ``np.errstate``.  This returns once
    every part is done, having waited only for a worker that started.
    An error in either thread's part stops the handing out of parts and
    is raised once the worker is done."""
    stops = [*range(part_rows, n - part_rows + 1, part_rows), n]
    parts = zip([0, *stops], stops)
    lock = threading.Lock()

    def run() -> None:
        try:
            while True:
                with lock:
                    part = next(parts, None)
                if part is None:
                    return
                fn(slice(*part))
        except BaseException:
            with lock:
                for _ in parts:  # hand out no more
                    pass
            raise

    if len(stops) == 1 or _cpus() < 2 or _blas_threads() != 1:
        run()
        return
    err = np.geterr()  # a worker thread does not inherit it

    def work() -> None:
        with np.errstate(**err):
            run()

    future = _shared_pool().submit(work)
    try:
        run()
    finally:
        # a worker that has not started is cancelled, never waited for
        if not future.cancel():
            wait((future,))
    if not future.cancelled():
        future.result()  # raises the worker's error
