"""The ordered map of per-item work over forked processes."""

import ctypes
import glob
import os
import resource
import signal
import time

import numpy as np
import pytest

from edge_lab import _procmap
from edge_lab._procmap import OrderedMap
from edge_lab.numerics import NonConvergenceError


@pytest.fixture(autouse=True)
def _no_child_left():
    """A test that waits on its workers for 60 s fails instead of hanging,
    and every worker it forks is reaped by the time it ends."""

    def expire(signum, frame):
        raise TimeoutError("still waiting on the workers after 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _square_with_pid(i):
    return i * i, os.getpid()


def _results(fn, items, chunk, workers):
    with OrderedMap(fn, items, chunk, workers) as results:
        return list(results), results.processes


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_results_in_item_order(workers):
    results, processes = _results(_square_with_pid, range(23), 2, workers)
    assert [r for r, _ in results] == [i * i for i in range(23)]
    assert processes == workers
    pids = {pid for _, pid in results}
    assert (pids == {os.getpid()}) == (workers == 1)


def test_fewer_than_two_chunks_fork_nothing():
    results, processes = _results(_square_with_pid, range(4), 4, 3)
    assert processes == 1 and {pid for _, pid in results} == {os.getpid()}
    assert _results(_square_with_pid, [], 4, 3) == ([], 1)


def test_at_most_one_process_per_chunk():
    assert _results(_square_with_pid, range(6), 2, 5)[1] == 3


def test_one_process_where_fork_is_missing(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert _procmap.cpu_count() == 1
    results, processes = _results(_square_with_pid, range(9), 2, None)
    assert processes == 1 and [r for r, _ in results] == [i * i for i in range(9)]


def test_default_count_is_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert _results(_square_with_pid, range(9), 2, None)[1] == 2


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("bad", [[9], [9, 5], [5, 9, 14]])
def test_lowest_failing_item_raised(workers, bad):
    """The items before the lowest failing one are yielded, then its
    exception is raised with its class, message and attributes, whichever
    process met it first."""

    def fn(i):
        if i in bad:
            raise NonConvergenceError(f"item {i}", [float(i), 0.5])
        return i

    yielded = []
    with pytest.raises(NonConvergenceError) as err:
        with OrderedMap(fn, range(17), 2, workers) as results:
            yielded.extend(results)
    assert str(err.value) == f"item {min(bad)}"
    assert err.value.history == [float(min(bad)), 0.5]
    assert yielded == list(range(min(bad)))


def test_chunk_of_a_lost_worker_computed_here():
    """A worker that ends without delivering its chunk (here the one of
    item 5) leaves it, and every chunk not yet dealt, to the caller."""
    parent = os.getpid()

    def fn(i):
        if i == 5 and os.getpid() != parent:
            os._exit(3)
        return i, os.getpid()

    results, processes = _results(fn, range(20), 2, 2)
    assert processes == 2 and [r for r, _ in results] == list(range(20))
    assert results[5][1] == parent


def test_unpicklable_failure_raised_by_the_caller():
    """An exception a worker cannot send ends the worker; the caller
    computes the chunk and raises the exception itself."""

    class Unpicklable(ValueError):
        def __init__(self, message):
            super().__init__(message)
            self.hook = lambda: None

    def fn(i):
        if i == 7:
            raise Unpicklable(f"item {i} in {os.getpid()}")
        return i

    with pytest.raises(Unpicklable, match=f"item 7 in {os.getpid()}$"):
        _results(fn, range(12), 2, 2)


def test_chunks_of_a_failed_fork_computed_here(monkeypatch):
    """A fork that fails, at once or after one succeeded, leaves every
    chunk to the caller, and the worker forked is reaped."""
    fork = os.fork
    for forks in (0, 1):
        forked = []

        def some_forks():
            if len(forked) == forks:
                raise BlockingIOError("fork: resource temporarily unavailable")
            forked.append(fork())
            return forked[-1]
        monkeypatch.setattr(os, "fork", some_forks)
        results, processes = _results(_square_with_pid, range(9), 2, 3)
        assert len(forked) == forks
        assert [r for r, _ in results] == [i * i for i in range(9)]
        assert processes == 1 and {pid for _, pid in results} == {os.getpid()}
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def test_stalled_worker_does_not_hold_up_the_others():
    """The worker of item 0 stalls for a second. The other two take every
    chunk submitted meanwhile (items 1-5: twice the workers' count of
    chunks of one item) and deliver results larger than a pipe holds; a
    slow chunk holds back no more: the items, drawn from a generator, run
    fewer than that many ahead of the results yielded."""
    parent = os.getpid()
    big = np.arange(20000.0)            # 160 kB, beyond a 64 KiB pipe

    def fn(i):
        if i == 0 and os.getpid() != parent:
            time.sleep(1.0)
        return os.getpid(), big + i

    drawn = []

    def items():
        for i in range(12):
            drawn.append(i)
            yield i

    held = []
    with OrderedMap(fn, items(), 1, 3, count=12) as results:
        got = []
        for r in results:
            got.append(r)
            held.append(len(drawn) - len(got))
    assert all(np.array_equal(a, big + i) for i, (_, a) in enumerate(got))
    stalled = got[0][0]
    assert stalled != parent
    assert all(pid not in (stalled, parent) for pid, _ in got[1:6])
    assert max(held) < 2 * 3


def test_interrupt_reaps_every_worker():
    """An interrupt while the workers still compute kills and reaps them."""

    def fn(i):
        time.sleep(0.05)
        return i

    with pytest.raises(KeyboardInterrupt):
        with OrderedMap(fn, range(40), 1, 2) as results:
            for i in results:
                if i == 2:
                    raise KeyboardInterrupt


def test_interrupt_with_items_beyond_a_pipe():
    """An interrupt while the pool still writes items larger than a pipe
    holds (300 kB, to two workers that both compute) returns at once and
    reaps every worker: no thread is left writing to a pipe no worker reads."""
    items = [np.full(37500, float(i)) for i in range(8)]

    def fn(a):
        if a[0] > 0:
            time.sleep(30)
        return a[0]

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        with OrderedMap(fn, items, 1, 2) as results:
            assert next(iter(results)) == 0
            raise KeyboardInterrupt
    assert results.processes == 2
    assert time.monotonic() - start < 10


def test_workers_run_blas_on_one_thread():
    """Each forked worker runs numpy's OpenBLAS on one thread, whatever
    this process runs it on."""
    get = None
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                       "numpy.libs", "*openblas*")):
        get = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", get)
    if get is None:
        pytest.skip("numpy's bundled OpenBLAS not found")
    with OrderedMap(lambda i: (os.getpid(), get()), range(8), 2, workers=2) as m:
        results = list(m)
    assert m.processes == 2
    assert {n for pid, n in results if pid != os.getpid()} == {1}


def test_workers_leave_sigint_to_the_caller():
    """A worker ignores SIGINT, so a terminal's Ctrl-C interrupts the
    caller alone, which then kills and reaps the workers."""
    with OrderedMap(lambda i: (os.getpid(), signal.getsignal(signal.SIGINT)),
                    range(8), 2, workers=2) as m:
        results = list(m)
    assert m.processes == 2
    assert {h for pid, h in results if pid != os.getpid()} == {signal.SIG_IGN}
    assert signal.getsignal(signal.SIGINT) is signal.default_int_handler


def test_workers_keep_their_freed_heap():
    """A worker that frees 16 MB of 64 kB blocks takes them again without
    page faults, whatever malloc thresholds its fork left it: glibc keeps
    the freed heap instead of returning it at every step."""
    if not hasattr(ctypes.CDLL(None), "mallopt"):
        pytest.skip("no glibc mallopt")

    def churn():
        blocks = [np.ones(8192) for _ in range(256)]
        del blocks

    def faults(i):
        churn()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        churn()
        return os.getpid(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    with OrderedMap(faults, range(4), 1, workers=2) as m:
        results = list(m)
    assert m.processes == 2
    assert max(n for pid, n in results if pid != os.getpid()) < 256


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_items_drawn_within_the_look_ahead(workers):
    """Items come from a generator, drawn only as the map needs them: while
    the results of chunk c are yielded, at most the items of chunks
    0..c + 2 * workers - 1 are drawn (0..c without workers), and the map
    does read that far ahead."""
    drawn = []
    parent = os.getpid()

    def items():
        for i in range(60):
            drawn.append(i)
            yield i

    def fn(i):
        if os.getpid() != parent:
            time.sleep(0.01 if i < 3 else 0.001)
        return i

    chunk, ahead = 3, []
    with OrderedMap(fn, items(), chunk, workers, count=60) as results:
        for i in results:
            c = i // chunk
            window = c + 1 if workers == 1 else c + 2 * workers
            ahead.append(len(drawn) - window * chunk)
        assert results.processes == workers
    assert sorted(drawn) == drawn == list(range(60))
    assert max(ahead) == 0


@pytest.mark.parametrize("workers", [1, 2])
def test_failing_items_raise_after_the_items_before(workers):
    """An exception of the items themselves is raised once every item
    drawn before it has its result."""

    def items():
        yield from range(7)
        raise NonConvergenceError("items ran out", [7.0])

    yielded = []
    with pytest.raises(NonConvergenceError, match="items ran out") as err:
        with OrderedMap(lambda i: i * i, items(), 2, workers, count=10) as results:
            yielded.extend(results)
    assert yielded == [i * i for i in range(7)] and err.value.history == [7.0]
