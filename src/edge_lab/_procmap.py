"""One map of independent per-item work over forked processes.

``OrderedMap(fn, items, chunk)`` yields ``fn(item)`` for every item, in
item order, as one process computing them in turn would. The items are
cut into chunks of ``chunk`` consecutive items, and forked workers take
chunks on demand: each reads the next chunk index from one shared pipe,
so a faster CPU takes more chunks. The curvature table's rows and
strain's segment Hessians are computed this way.
"""

from __future__ import annotations

import ctypes
import glob
import os
import pickle
import select
import signal
from typing import Callable, Iterator

import numpy as np

__all__ = ["OrderedMap", "cpu_count"]

_INDEX = 4          # bytes of a chunk index in the task pipe
_LENGTH = 8         # bytes of a result frame's length prefix


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


class OrderedMap:
    """``fn(item)`` of every item, in item order, over forked workers.

    Use it as a context manager and iterate it once. With ``workers``
    processes (default: one per CPU this process may run on, at most one
    per chunk) it forks that many workers on entry; work of fewer than
    two chunks, or a single worker, forks nothing. A fork inherits ``fn``
    and everything it reads, so only chunk indices and results cross the
    pipes; OpenBLAS shuts its thread pool down across a fork, and each
    worker runs it on one thread (``_one_blas_thread``). This
    process deals the chunk indices and reads results as they arrive,
    so no worker waits on a full pipe, and releases them in item order.
    It deals at most twice the workers' count of chunks beyond the
    oldest one not yet released, so a slow chunk holds back at most that
    many results.

    An item that raises ends its chunk. The chunks before it are
    released first, so the exception raised, with its class, message and
    attributes, is that of the lowest failing item, the one a single
    process would meet first. A worker that could not be forked takes
    no chunk. Once a worker ends, no chunk is dealt any more: the
    workers left finish the chunks already dealt, and every chunk no
    worker delivered is computed here. A worker ends by ``os._exit`` on
    every path, status 0 once the dealing is over, so it never returns
    into its parent's frames, exit handlers or buffers. Leaving the
    context reaps every worker, killing those still running if the
    iteration did not finish (an exception, a ``KeyboardInterrupt``).

    ``processes`` is the number of workers forked, or 1 when this
    process computes every chunk.
    """

    def __init__(self, fn: Callable, items, chunk: int, workers: int | None = None):
        items = list(items)
        self._fn = fn
        self._chunks = [items[i:i + chunk] for i in range(0, len(items), chunk)]
        self._wanted = (min(workers or cpu_count(), len(self._chunks))
                        if len(self._chunks) >= 2 else 1)
        self._workers: dict[int, tuple[int, bytearray]] = {}   # read end -> (pid, unread bytes)
        self._pids: list[int] = []        # forked, not yet reaped
        self._poll = None                 # the workers' read ends, once forked
        self._tasks: int | None = None    # write end of the task pipe while dealing
        self._dealt = 0
        self._done: dict[int, tuple[list, Exception | None]] = {}
        self.processes = 1

    def __enter__(self) -> OrderedMap:
        if self._wanted > 1:
            try:
                self._fork()
            except BaseException:
                self.close()
                raise
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _fork(self) -> None:
        self._poll = select.poll()
        tasks, self._tasks = os.pipe()
        try:
            for _ in range(self._wanted):
                read, write = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    os.close(read)
                    os.close(write)
                    break
                if pid == 0:
                    self._work(tasks, read, write)
                os.close(write)
                self._pids.append(pid)
                self._workers[read] = (pid, bytearray())
                self._poll.register(read, select.POLLIN)
        finally:
            os.close(tasks)
        self.processes = max(1, len(self._workers))
        self._deal(2 * len(self._workers))

    def _work(self, tasks: int, read: int, write: int) -> None:
        """A worker's life: compute each chunk whose index it reads and
        send ``(index, results, exception)`` as one length-prefixed
        pickle, until the task pipe is closed and empty."""
        status = 1
        try:
            for fd in (read, self._tasks, *self._workers):
                os.close(fd)
            _one_blas_thread()
            with open(write, "wb") as out:
                while index := os.read(tasks, _INDEX):
                    c = int.from_bytes(index, "little")
                    frame = pickle.dumps((c, *_run(self._fn, self._chunks[c])),
                                         pickle.HIGHEST_PROTOCOL)
                    out.write(len(frame).to_bytes(_LENGTH, "little"))
                    out.write(frame)
                    out.flush()
            status = 0
        finally:
            os._exit(status)

    def _deal(self, count: int) -> None:
        """Put the next ``count`` chunk indices in the task pipe (they fit:
        fewer than the pipe's atomic write size are ever in it), and
        close it once every index is in or no worker reads it."""
        if self._tasks is None:
            return
        end = min(self._dealt + count, len(self._chunks))
        try:
            os.write(self._tasks, b"".join(c.to_bytes(_INDEX, "little")
                                           for c in range(self._dealt, end)))
            self._dealt = end
        except BrokenPipeError:
            end = len(self._chunks)
        if end == len(self._chunks):
            self._stop_dealing()

    def _stop_dealing(self) -> None:
        if self._tasks is not None:
            os.close(self._tasks)
            self._tasks = None

    def _receive(self) -> None:
        """Wait for the workers, then keep every whole result they sent.
        A worker that ends stops the dealing."""
        for fd, _ in self._poll.poll():
            buf = self._workers[fd][1]
            data = os.read(fd, 1 << 20)
            if not data:
                self._poll.unregister(fd)
                os.close(fd)
                del self._workers[fd]
                self._stop_dealing()
                continue
            buf += data
            while len(buf) >= _LENGTH:
                end = _LENGTH + int.from_bytes(buf[:_LENGTH], "little")
                if len(buf) < end:
                    break
                c, results, failure = pickle.loads(buf[_LENGTH:end])
                self._done[c] = results, failure
                del buf[:end]

    def __iter__(self) -> Iterator:
        for c in range(len(self._chunks)):
            while c not in self._done:
                if self._workers:
                    self._receive()
                else:
                    self._done[c] = _run(self._fn, self._chunks[c])
            results, failure = self._done.pop(c)
            self._deal(1)
            yield from results
            if failure is not None:
                raise failure
        while self._workers:        # every worker ends once the dealing is over
            self._receive()

    def close(self) -> None:
        """Stop the dealing, kill the workers still running and reap every one."""
        self._stop_dealing()
        for fd, (pid, _) in list(self._workers.items()):
            self._poll.unregister(fd)
            os.close(fd)
            os.kill(pid, signal.SIGKILL)
        self._workers.clear()
        while self._pids:
            os.waitpid(self._pids[-1], 0)
            self._pids.pop()
