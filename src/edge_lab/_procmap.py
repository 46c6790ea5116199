"""One map of independent per-item work over forked processes.

``OrderedMap(fn, items, chunk)`` yields ``fn(item)`` for every item, in
item order, as one process computing them in turn would. The items are
read as they are needed, cut into chunks of ``chunk`` consecutive items,
and each chunk is sent, items and all, to a forked worker that is free,
so a faster CPU takes more chunks; the items may be produced while the
workers compute (the curvature table's steps, as the runner takes them).
The curvature table's rows and strain's segment Hessians are computed
this way.
"""

from __future__ import annotations

import collections
import ctypes
import glob
import itertools
import os
import pickle
import select
import signal
from typing import Callable, Iterator

import numpy as np

__all__ = ["OrderedMap", "cpu_count"]

_LENGTH = 8         # bytes of a frame's length prefix


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


def _frame(obj) -> bytes:
    """``obj`` as one length-prefixed pickle."""
    body = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    return len(body).to_bytes(_LENGTH, "little") + body


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


class _Worker:
    """A forked worker: its pid, the write end of its task pipe while
    chunks are dealt, the bytes it sent that are not yet a whole result,
    and the chunk it computes, if any."""

    __slots__ = ("pid", "tasks", "unread", "chunk")

    def __init__(self, pid: int, tasks: int):
        self.pid, self.tasks, self.unread, self.chunk = pid, tasks, bytearray(), None


class OrderedMap:
    """``fn(item)`` of every item, in item order, over forked workers.

    Use it as a context manager and iterate it once. ``items`` is any
    iterable of at most ``count`` items (default ``len(items)``), read
    here as the map needs them. With ``workers`` processes (default: one
    per CPU this process may run on, at most one per chunk of ``count``
    items) it forks that many workers on entry, before it reads an item;
    work of fewer than two chunks, or a single worker, forks nothing. A
    fork inherits ``fn`` and everything it reads; each chunk's items and
    each chunk's results cross the pipes as one pickle. OpenBLAS shuts its
    thread pool down across a fork, and each worker runs it on one thread
    (``_one_blas_thread``). This process sends each chunk it has read to
    a worker that computes none, reads results as they arrive, so no
    worker waits on a full pipe, and releases them in item order. It
    reads at most twice the workers' count of chunks from the oldest one
    not yet released, so a slow chunk holds back at most that many
    chunks of items and results, and the items' producer is held back
    with it. Between two items it reads it looks for arrived results, so
    a worker that frees up gets the next chunk while the items come.

    An item that raises ends its chunk. The chunks before it are
    released first, so the exception raised, with its class, message and
    attributes, is that of the lowest failing item, the one a single
    process would meet first. An exception raised by ``items`` itself is
    raised after the results of every item read before it. A worker that
    could not be forked takes no chunk. Once a worker ends, no chunk is
    sent any more: the workers left finish the chunks they have, and
    every chunk no worker delivered is computed here. A worker ends by
    ``os._exit`` on every path, status 0 once its task pipe is closed, so
    it never returns into its parent's frames, exit handlers or buffers.
    Leaving the context reaps every worker, killing those still running
    if the iteration did not finish (an exception, a
    ``KeyboardInterrupt``).

    ``processes`` is the number of workers forked, or 1 when this
    process computes every chunk.
    """

    def __init__(self, fn: Callable, items, chunk: int, workers: int | None = None,
                 count: int | None = None):
        chunks = -(-(len(items) if count is None else count) // chunk)
        self._fn, self._chunk = fn, chunk
        self._items = iter(items)
        self._wanted = min(workers or cpu_count(), chunks) if chunks >= 2 else 1
        self._workers: dict[int, _Worker] = {}   # read end of its results -> worker
        self._pids: list[int] = []        # forked, not yet reaped
        self._poll = None                 # the workers' read ends, once forked
        self._dealing = False             # whether chunks go to the workers
        self._reading: list = []          # items of the chunk being read
        self._chunks: dict[int, list] = {}   # items of each chunk read, until released
        self._queue: collections.deque[int] = collections.deque()   # read, not yet sent
        self._next = 0                    # index of the chunk being read
        self._exhausted = False
        self._failure: Exception | None = None   # raised by ``items``
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
        for _ in range(self._wanted):
            task_read, task_write = os.pipe()
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                for fd in (task_read, task_write, read, write):
                    os.close(fd)
                break
            if pid == 0:
                self._work(task_read, write, (task_write, read))
            os.close(task_read)
            os.close(write)
            self._pids.append(pid)
            self._workers[read] = _Worker(pid, task_write)
            self._poll.register(read, select.POLLIN)
        self.processes = max(1, len(self._workers))
        self._dealing = bool(self._workers)

    def _work(self, tasks: int, write: int, parent_ends: tuple) -> None:
        """A worker's life: compute each ``(index, items)`` chunk it reads
        and send ``(index, results, exception)`` as one length-prefixed
        pickle, until its task pipe is closed and empty."""
        status = 1
        try:
            for fd in itertools.chain(parent_ends, self._workers,
                                      (w.tasks for w in self._workers.values())):
                os.close(fd)
            _one_blas_thread()
            with open(tasks, "rb") as inp, open(write, "wb") as out:
                while length := inp.read(_LENGTH):
                    c, items = pickle.loads(inp.read(int.from_bytes(length, "little")))
                    out.write(_frame((c, *_run(self._fn, items))))
                    out.flush()
            status = 0
        finally:
            os._exit(status)

    def _read_item(self) -> None:
        """Read one more item into the chunk being read; a full chunk, or
        the last one, is queued for the workers."""
        try:
            self._reading.append(next(self._items))
            if len(self._reading) < self._chunk:
                return
        except StopIteration:
            self._exhausted = True
        except Exception as exc:
            self._exhausted, self._failure = True, exc
        if self._reading:
            self._chunks[self._next] = self._reading
            self._queue.append(self._next)
            self._next += 1
            self._reading = []

    def _send(self) -> None:
        """Send the queued chunks to the workers that compute none, in
        chunk order. A worker gone stops the dealing."""
        for worker in self._workers.values():
            if not self._queue or not self._dealing:
                return
            if worker.chunk is None:
                c = self._queue.popleft()
                try:
                    _write_all(worker.tasks, _frame((c, self._chunks[c])))
                except BrokenPipeError:
                    self._stop_dealing()
                    return
                worker.chunk = c

    def _stop_dealing(self) -> None:
        self._dealing = False
        for worker in self._workers.values():
            if worker.tasks is not None:
                os.close(worker.tasks)
                worker.tasks = None

    def _receive(self, timeout: int | None) -> None:
        """Wait up to ``timeout`` ms (None: until one arrives) for the
        workers, then keep every whole result they sent. A worker that
        ends stops the dealing."""
        for fd, _ in self._poll.poll(timeout):
            worker = self._workers[fd]
            data = os.read(fd, 1 << 20)
            if not data:
                self._poll.unregister(fd)
                os.close(fd)
                del self._workers[fd]
                if worker.tasks is not None:
                    os.close(worker.tasks)
                self._stop_dealing()
                continue
            buf = worker.unread
            buf += data
            while len(buf) >= _LENGTH:
                end = _LENGTH + int.from_bytes(buf[:_LENGTH], "little")
                if len(buf) < end:
                    break
                c, results, failure = pickle.loads(buf[_LENGTH:end])
                self._done[c] = results, failure
                worker.chunk = None
                del buf[:end]

    def _owned(self, c: int) -> bool:
        return any(w.chunk == c for w in self._workers.values())

    def _advance(self, c: int) -> None:
        """One move toward chunk ``c``'s results: send what is queued,
        read one more item while fewer than twice the workers' count of
        chunks are read from ``c`` on and then take the results that
        have arrived, or else wait for one."""
        self._send()
        if not self._dealing:
            return
        if self._exhausted and not self._queue:
            self._stop_dealing()        # every chunk is out; the workers end
        elif not self._exhausted and self._next < c + 2 * self.processes:
            self._read_item()
            self._receive(0)
        else:
            self._receive(None)         # a worker computes each chunk not done

    def __iter__(self) -> Iterator:
        c = 0
        while True:
            while c not in self._done:
                if c == self._next and self._exhausted:
                    self._stop_dealing()
                    while self._workers:    # each ends once its task pipe is closed
                        self._receive(None)
                    if self._failure is not None:
                        raise self._failure
                    return
                if self._dealing:
                    self._advance(c)
                elif self._owned(c):
                    self._receive(None)
                elif c < self._next:
                    self._done[c] = _run(self._fn, self._chunks[c])
                else:
                    self._read_item()
            results, failure = self._done.pop(c)
            del self._chunks[c]
            c += 1
            yield from results
            if failure is not None:
                raise failure

    def close(self) -> None:
        """Stop the dealing, kill the workers still running and reap every one."""
        self._stop_dealing()
        for fd, worker in list(self._workers.items()):
            self._poll.unregister(fd)
            os.close(fd)
            os.kill(worker.pid, signal.SIGKILL)
        self._workers.clear()
        while self._pids:
            os.waitpid(self._pids[-1], 0)
            self._pids.pop()
