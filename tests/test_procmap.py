"""The ordered map of per-item work over forked processes."""

import os
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
    def no_fork():
        raise BlockingIOError("fork: resource temporarily unavailable")
    monkeypatch.setattr(os, "fork", no_fork)
    results, processes = _results(_square_with_pid, range(9), 2, 3)
    assert processes == 1 and {pid for _, pid in results} == {os.getpid()}


def test_stalled_worker_does_not_hold_up_the_others():
    """The worker of item 0 stalls for a second. The other two take every
    chunk dealt meanwhile (items 1-5: twice the workers' count of chunks
    of one item) and deliver results larger than a pipe holds, which the
    caller reads as they arrive; a slow chunk holds back no more."""
    parent = os.getpid()
    big = np.arange(20000.0)            # 160 kB, beyond a 64 KiB pipe

    def fn(i):
        if i == 0 and os.getpid() != parent:
            time.sleep(1.0)
        return os.getpid(), big + i

    held = []
    with OrderedMap(fn, range(12), 1, 3) as results:
        got = []
        for r in results:
            got.append(r)
            held.append(len(results._done))
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
