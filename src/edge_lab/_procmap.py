"""One map of independent per-item work over forked processes, in item order,
reading the items as needed: ``OrderedMap`` computes the curvature table's rows,
from the steps as the runner takes them, and strain's segment Hessians.
"""

from __future__ import annotations

import collections
import ctypes
import glob
import os
import signal
from typing import Callable, Iterator

import numpy as np

__all__ = ["OrderedMap", "cpu_count"]

_fn: Callable | None = None     # a worker's ``fn``, set as it starts (``_start``)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3   # glibc's ``mallopt`` options


def cpu_count() -> int:
    """The CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# The thread-count setter of the OpenBLAS that numpy wheels bundle, in its
# 64-bit-integer and its 32-bit-integer build.
_BLAS_SET_THREADS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads")


def _one_blas_thread() -> None:
    """Run this process's OpenBLAS on one thread, where the OpenBLAS that
    numpy bundles can be found; elsewhere do nothing. A worker forked with
    the default pool starts one BLAS thread per CPU of its own, so two
    workers on two CPUs would run four busy-waiting threads."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for name in _BLAS_SET_THREADS:
            if hasattr(lib, name):
                getattr(lib, name)(1)
                break


def _run(fn: Callable, items) -> tuple[list, Exception | None]:
    """(fn of ``items`` in order, None), or, once an item raises, (the
    results before it, its exception)."""
    results = []
    for item in items:
        try:
            results.append(fn(item))
        except Exception as exc:
            return results, exc
    return results, None


def _start(fn: Callable) -> None:
    """Start a worker: keep ``fn``, ignore SIGINT, one BLAS thread, keep freed heap."""
    global _fn
    _fn = fn
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _one_blas_thread()
    # Keep 256 MiB of freed heap, serve blocks below 32 MiB from it. Left to follow the
    # largest block freed (a chunk's pickle), glibc had workers refault their heap at
    # every step: 3.7M page faults on a dim-20,490 run, 718k on mlp_run; 18k and 9k with it.
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_TRIM_THRESHOLD, 256 << 20)
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)


def _task(items) -> tuple[list, Exception | None]:
    """A worker's task: ``_run`` of one chunk's items."""
    return _run(_fn, items)


class OrderedMap:
    """``fn(item)`` of every item, in item order, over forked workers.

    Use it as a context manager and iterate it once. ``items`` is any
    iterable of at most ``count`` items (default ``len(items)``), read as
    needed. With ``workers`` processes (default: one per CPU this process
    may run on, at most one per chunk of ``count`` items) a
    ``ProcessPoolExecutor`` forks that many workers as the first chunk is
    submitted; fewer than two chunks, or one worker, fork nothing. ``fn``
    reaches the workers through the fork, as the pool's initializer, so
    it may be a closure; chunks of items and of results are pickled. A
    worker ignores SIGINT, so a Ctrl-C reaches this process alone. Each
    chunk is submitted as it is read, while fewer than twice the workers'
    count of chunks are read and not released, so a slow chunk holds
    back at most that many chunks of items and results, and the items'
    producer with them.

    An item that raises ends its chunk, and the chunks before it are
    released first: the exception raised, with its class, message and
    attributes, is that of the lowest failing item, as in one process.
    An exception raised by ``items`` is raised after the results of every
    item read before it. A chunk the pool does not deliver (a fork
    failed, a worker lost, a result that does not pickle) ends the pool;
    it and every later chunk are computed here. The pool ends once every
    chunk is released, or else as the context is left (an exception, a
    ``KeyboardInterrupt``), which kills and reaps every multiprocessing
    child started since entry: nothing else in this process may start one
    while the map is open. ``processes`` is the number of workers forked,
    or 1 when this process computes every chunk.
    """

    def __init__(self, fn: Callable, items, chunk: int, workers: int | None = None,
                 count: int | None = None):
        chunks = -(-(len(items) if count is None else count) // chunk)
        self._fn, self._chunk = fn, chunk
        self._items = iter(items)
        self._wanted = min(workers or cpu_count(), chunks) if chunks >= 2 else 1
        self._pool, self._exhausted = None, False
        self._failure: Exception | None = None   # raised by ``items``
        self.processes = 1

    def __enter__(self) -> OrderedMap:
        if self._wanted > 1:
            # Imported where a map forks: a command that forks nothing loads neither.
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            self._others = set(multiprocessing.active_children())   # not of this map
            self._pool = ProcessPoolExecutor(
                self._wanted, multiprocessing.get_context("fork"),
                initializer=_start, initargs=(self._fn,))
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _read(self) -> list:
        """The next chunk of items, short or empty once ``items`` ends."""
        items = []
        try:
            while len(items) < self._chunk:
                items.append(next(self._items))
        except StopIteration:
            self._exhausted = True
        except Exception as exc:
            self._exhausted, self._failure = True, exc
        return items

    def _submit(self, items):
        """A future of the chunk's results, or None for a chunk computed here."""
        if self._pool is None:
            return None
        try:
            future = self._pool.submit(_task, items)
        except Exception:               # a fork failed, or a worker was lost
            self.close()
            return None
        self.processes = self._wanted
        return future

    def _results(self, items, future) -> tuple[list, Exception | None]:
        if self._pool is not None:
            try:
                return future.result()
            except Exception:           # a worker lost, a result that does not pickle
                self.close()
        return _run(self._fn, items)

    def __iter__(self) -> Iterator:
        pending = collections.deque()   # (items, future) of each chunk read, not released
        while True:
            ahead = 2 * self._wanted if self._pool is not None else 1
            while not self._exhausted and len(pending) < ahead:
                if items := self._read():
                    pending.append((items, self._submit(items)))
            if not pending:
                break
            results, failure = self._results(*pending.popleft())
            yield from results
            if failure is not None:
                raise failure
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._failure is not None:
            raise self._failure

    def close(self) -> None:
        """End the pool, if any: kill and reap its workers, then join its threads."""
        if self._pool is None:
            return
        import multiprocessing          # imported on entry, as the pool was made
        for child in set(multiprocessing.active_children()) - self._others:
            child.kill()
            child.join()
        self._pool.shutdown(wait=True, cancel_futures=True)   # no thread left for a fork to copy
        self._pool = None
