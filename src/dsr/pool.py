"""One pool of forked processes for every parallel pass.

A pass is a run of independent units 0 .. n - 1: bands of references when
matching, chunks of groups when solving. ``Pool(n)`` plans W processes, one
per usable core and at most one per unit, and no option sets it; W is 1
without ``os.fork`` or while other Python threads run, since a fork copies
only the calling thread and their locks might be held.

``Pool.forked(run)`` forks the W - 1 helpers once, for as long as its block
lasts. Each runs ``run(unit, worker)`` on its own copy of the parent's
memory, so whatever it must hand back (a table's rows, a chunk's index and
result) goes into arrays from ``shared``, anonymous shared memory mapped
before the fork. ``Pool.answers`` runs a pass in lockstep: unit c runs on
process c mod W, the parent being process 0, and the caller takes the
answers in unit order. Two pipes per helper carry the hand-offs. An order is
a unit number; a helper gets its next one once the caller has taken its last
answer, so until then the caller may read what the helper wrote. An answer
is the two floats ``run`` returned, or the exception it raised, pickled.
Each wait polls for ``_SPIN_S`` and then sleeps in ``poll``, which takes a
descriptor of any number, unlike ``select``.

Leave rules. A helper ignores SIGINT, the parent's to handle, and leaves
only through ``os._exit`` at the end of file of its order pipe: the parent
closes the pipe when the block ends, also by an exception, and waits for
the helper, so none outlives the block. A helper that ends
without an answer, also one whose exception cannot be pickled, is a
``NumericError`` in the parent (exit 3). A failed pipe or fork, as under a
descriptor or process limit, closes what was opened for that helper and
ends the forking; the pass runs on the processes it has. So does a fork
that warns, as Python 3.12 and later do in a process with other OS threads
(a BLAS pool): the new helper is told to leave and waited for, and then the
warning is issued, so a filter that makes it an error fails the call with
no helper left.
"""

from __future__ import annotations

import math
import mmap
import os
import pickle
import select
import signal
import struct
import threading
import time
import warnings
from contextlib import contextmanager

import numpy as np

from .errors import NumericError

#: A unit order to a helper: the unit's number; end of file means leave.
_ORDER = struct.Struct("<q")
#: A helper's answer to one order: the two floats ``run`` returned, and the
#: byte count of a pickled exception that follows, 0 when none does.
_ANSWER = struct.Struct("<ddq")
#: Seconds a wait on a pipe polls before it sleeps in ``poll``: a hand-off
#: takes well under a unit's time, less than waking from a sleep.
_SPIN_S = 0.002


def shared(shape, dtype=np.float64) -> np.ndarray:
    """A zero-filled array in anonymous shared memory: what a forked helper
    writes there the parent reads, and the reverse."""
    dtype = np.dtype(dtype)
    return np.frombuffer(mmap.mmap(-1, dtype.itemsize * math.prod(shape)),
                         dtype=dtype).reshape(shape)


def _worker_count() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _recv(fd: int, size: int) -> bytes:
    """``size`` bytes from the non-blocking pipe ``fd``, or fewer at end of
    file; end of file wakes a sleeping wait as a hang-up."""
    data, poller = b"", None
    spin_until = time.perf_counter() + _SPIN_S
    while len(data) < size:
        try:
            part = os.read(fd, size - len(data))
        except BlockingIOError:
            if poller is not None:
                poller.poll()
            elif time.perf_counter() > spin_until:
                poller = select.poll()
                poller.register(fd, select.POLLIN)
            continue
        if not part:
            break
        data += part
    return data


def _leave(pid: int, orders: int, answers: int) -> None:
    """Close a helper's pipe ends, which tells it to leave, and wait for it."""
    os.close(orders)
    os.close(answers)
    try:
        os.waitpid(pid, 0)
    except ChildProcessError:  # reaped already, as under SIGCHLD = SIG_IGN
        pass


class Pool:
    """Processes for passes of ``units`` units: ``size`` planned, and while
    ``forked`` runs, (pid, order pipe, answer pipe) of each helper in
    ``helpers``; ``wait_s`` sums the parent's waits for answers."""

    def __init__(self, units: int):
        self.units = units
        safe = hasattr(os, "fork") and threading.active_count() == 1
        self.size = min(_worker_count(), units) if safe else 1
        self.helpers: list[tuple[int, int, int]] = []
        self.wait_s = 0.0

    @property
    def workers(self) -> int:
        """Processes that run a pass now: this one and its helpers."""
        return len(self.helpers) + 1

    @contextmanager
    def forked(self, run):
        """Fork up to ``size - 1`` helpers that run ``run`` on the units
        ``answers`` orders, for as long as the block lasts."""
        try:
            for worker in range(1, self.size):
                fds = ()
                try:
                    fds += os.pipe()
                    fds += os.pipe()
                    # a warning raised inside os.fork would lose the child's pid
                    with warnings.catch_warnings(record=True) as warned:
                        warnings.simplefilter("always")
                        pid = os.fork()
                except OSError:
                    for fd in fds:
                        os.close(fd)
                    break
                orders, order_end, answer_end, answers = fds
                if pid == 0:
                    _serve(run, worker, orders, answers,
                           (order_end, answer_end,
                            *(fd for _, *ends in self.helpers for fd in ends)))
                self.helpers.append((pid, order_end, answer_end))
                os.close(orders)
                os.close(answers)
                if warned:
                    _leave(*self.helpers.pop())
                    for w in warned:
                        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
                    break
                os.set_blocking(answer_end, False)
            yield self
        finally:
            while self.helpers:
                _leave(*self.helpers.pop(0))

    def answers(self, run):
        """Yield (worker, answer) for every unit, in unit order: process
        c mod W runs unit c, this one through ``run(c, 0)`` and a helper
        through the ``run`` it forked with."""
        workers = self.workers
        for unit in range(1, min(workers, self.units)):
            self._order(unit)
        for unit in range(self.units):
            worker = unit % workers
            yield worker, (self._answer(worker) if worker else run(unit, 0))
            if worker and unit + workers < self.units:
                self._order(unit + workers)

    def _order(self, unit: int) -> None:
        """Send unit ``unit`` to the helper that runs it."""
        os.write(self.helpers[unit % self.workers - 1][1], _ORDER.pack(unit))

    def _answer(self, worker: int) -> tuple[float, float]:
        """The answer helper ``worker`` posts once its unit has run."""
        pid, _, answers = self.helpers[worker - 1]
        t_wait = time.perf_counter()
        head = _recv(answers, _ANSWER.size)
        if len(head) < _ANSWER.size:
            raise NumericError(f"helper process {pid} ended in the middle of a pass")
        *answer, size = _ANSWER.unpack(head)
        if size:
            raise pickle.loads(_recv(answers, size))
        self.wait_s += time.perf_counter() - t_wait
        return tuple(answer)


def _serve(run, worker: int, orders: int, answers: int, inherited) -> None:
    """A helper's whole life: close the parent's pipe ends it
    ``inherited``, then run each ordered unit and post its answer, until
    the end of file of its order pipe. Unwinding would run the parent's
    code in this process, so an exception is posted instead."""
    status = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        for fd in inherited:
            os.close(fd)
        os.set_blocking(orders, False)
        while len(order := _recv(orders, _ORDER.size)) == _ORDER.size:
            os.write(answers, _ANSWER.pack(*run(*_ORDER.unpack(order), worker), 0))
        status = 0
    except BaseException as exc:  # noqa: B036  (posted, then the process ends)
        try:
            raised = pickle.dumps(exc)
            os.write(answers, _ANSWER.pack(0.0, 0.0, len(raised)) + raised)
        except BaseException:  # noqa: B036  (the parent sees the end of file)
            pass
    finally:
        os._exit(status)
