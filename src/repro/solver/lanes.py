"""Element-block lanes: one solver's force kernel on every spare CPU.

Section 4.3 of the paper puts more than 70 % of solver time in the
element force kernel, and the paper runs it on every core.  A solver
without a halo exchanger (serial, batched, campaign and service runs)
does the same with **lanes**: lane 0 is the thread that calls
:meth:`~repro.solver.solver.GlobalSolver.run`, lanes ``1 .. n`` are
helper threads that live exactly as long as that run
(:meth:`Lanes.running`).  The helpers come from the process-wide budget
:data:`HELPERS` (``k - 1`` tokens for ``k`` usable CPUs,
:func:`repro.config.cpus.run_slot_count`), so concurrent runs share the
spare CPUs instead of multiplying threads; a run that finds no token
free runs on its caller alone.

:meth:`Lanes.apply` splits one subset's element blocks into contiguous
shares, one per lane, at block boundaries.  Every block is computed
exactly as a one-lane run computes it — same workspace layout, same
per-item ``matmul`` shapes, no reduction over elements — so the result
is bit-identical whatever the lane count.  The caller keeps everything
around the split (gather, scatter, coupling, sources, Newmark): ``np.take``
and ``np.bincount`` hold the GIL, so a second thread would not speed
them up.

Each helper has its own :class:`~repro.kernels.weakform.Workspace` —
the token itself: allocated and touched by the set-up of the first
solver that can use it, so no later set-up or first step pays its page
faults — its own CPU-time tally (added to the caller's
``compute_cpu_s``) and, on a traced run, its own
:class:`~repro.obs.tracer.Tracer` (same pid and epoch, ``tid`` = lane
index) whose spans the caller grafts under its open kernel span after
every join.  An exception raised on a helper
re-raises on the caller once every lane has finished the call.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator

from ..config import constants, cpus
from ..kernels.weakform import Workspace
from ..obs.tracer import Tracer

__all__ = ["HELPERS", "HelperBudget", "Lanes"]


class HelperBudget:
    """``run_slot_count() - 1`` helper tokens shared by every run of the
    process, each token the workspace its helper lane runs in.

    The capacity is read at each :meth:`take`, so it follows the CPUs
    the process may use when a run starts.  A workspace is made once
    (by :meth:`reserve` at set-up, or by a take that finds none free)
    and reused by every later run.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._free: list[Workspace] = []
        #: Tokens held by running solvers right now.
        self.taken = 0
        #: Workspaces allocated so far.
        self.made = 0

    def reserve(self, count: int) -> None:
        """Have ``count`` workspaces, every page touched (set-up)."""
        with self._lock:
            while self.made < count:
                self._free.append(self._new())

    def take(self, want: int) -> list[Workspace]:
        """Up to ``want`` of the free tokens."""
        with self._lock:
            count = max(0, min(want, cpus.run_slot_count() - 1 - self.taken))
            self.taken += count
            return [self._free.pop() if self._free else self._new() for _ in range(count)]

    def give(self, tokens: list[Workspace]) -> None:
        """Return tokens taken by :meth:`take`."""
        with self._lock:
            self.taken -= len(tokens)
            self._free.extend(tokens)

    def _new(self) -> Workspace:
        ws = Workspace(constants.NGLLX)
        for buf in (ws.a, ws.b, ws.c, ws.memory):
            buf.fill(0.0)
        self.made += 1
        return ws


#: The one budget of the process.
HELPERS = HelperBudget()


class _Helper:
    """One helper lane: thread, workspace, tracer and two hand-off gates
    (locks held while closed: ``go`` opens to start a share, ``done``
    when it has finished)."""

    __slots__ = ("ws", "tracer", "thread", "go", "done", "task", "error", "cpu_s")

    def __init__(self, ws: Workspace, tracer):
        self.ws = ws
        self.tracer = tracer
        self.go = threading.Lock()
        self.go.acquire()
        self.done = threading.Lock()
        self.done.acquire()
        self.task = None
        self.error: BaseException | None = None
        self.cpu_s = 0.0
        self.thread = threading.Thread(
            target=self._serve, name=f"lane-{ws.lane}", daemon=True
        )

    def _serve(self) -> None:
        while True:
            self.go.acquire()
            task = self.task
            if task is None:
                return
            operator, field, out, relax, first, last = task
            t0 = time.thread_time()
            try:
                operator.apply(field, out, relax, self.ws, first, last)
            except BaseException as exc:  # handed to the caller
                self.error = exc
            self.cpu_s = time.thread_time() - t0
            self.done.release()


class Lanes:
    """The lanes of one solver: lane 0 is the caller, with workspace ``ws``
    and the solver's ``tracer``; with ``helpers`` (no halo exchanger), its
    runs add what helper lanes the budget grants.  Outside :meth:`running`
    there is only lane 0."""

    def __init__(self, ws: Workspace, tracer, helpers: bool):
        self.ws = ws
        self.helpers = helpers
        if helpers:
            HELPERS.reserve(cpus.run_slot_count() - 1)
        #: Span recorder per running lane (the relax hook's, by ``ws.lane``).
        self.tracers: list = [tracer]
        #: CPU seconds the helpers have spent in their shares (this
        #: solver's whole life); the caller adds them to its own.
        self.helper_cpu_s = 0.0
        self._helpers: list[_Helper] = []

    @contextmanager
    def running(self) -> Iterator[None]:
        """Start the helpers the budget grants, and stop and join them
        (returning their tokens) when the block exits, however it exits."""
        tokens = HELPERS.take(cpus.run_slot_count()) if self.helpers else []
        tracer = self.tracers[0]
        try:
            for lane, ws in enumerate(tokens, 1):
                ws.lane = lane
                lane_tracer = (
                    Tracer(pid=tracer.pid, tid=ws.lane, epoch=tracer.epoch)
                    if tracer.enabled
                    else tracer
                )
                helper = _Helper(ws, lane_tracer)
                helper.thread.start()
                self._helpers.append(helper)
                self.tracers.append(lane_tracer)
            yield
        finally:
            for helper in self._helpers:
                helper.task = None
                helper.go.release()
            for helper in self._helpers:
                helper.thread.join()
            self._helpers = []
            del self.tracers[1:]
            HELPERS.give(tokens)

    def apply(self, operator, field, out, relax) -> None:  # repro: hot-loop
        """``operator.apply(field, out, relax, ...)`` over all its blocks,
        split across the lanes.  A subset of fewer blocks than two stays
        on the caller."""
        helpers = self._helpers
        nblocks = operator.nblocks
        shares = min(len(helpers) + 1, nblocks)
        if shares < 2:
            operator.apply(field, out, relax, self.ws)
            return
        for i in range(1, shares):
            helper = helpers[i - 1]
            first, last = i * nblocks // shares, (i + 1) * nblocks // shares
            helper.task = (operator, field, out, relax, first, last)
            helper.go.release()
        try:
            operator.apply(field, out, relax, self.ws, 0, nblocks // shares)
        finally:
            error = None
            tracer = self.tracers[0]
            for helper in helpers[: shares - 1]:
                helper.done.acquire()
                self.helper_cpu_s += helper.cpu_s
                if helper.error is not None:
                    error, helper.error = error or helper.error, None
                if tracer.enabled:
                    tracer.graft(helper.tracer.records)
                    helper.tracer.records.clear()
        if error is not None:
            raise error
