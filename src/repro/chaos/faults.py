"""Deterministic fault injection for the virtual cluster.

The paper's 62K-core production runs survive (or die by) hung ranks,
lost messages, and corrupted restart files.  This module makes those
failures *reproducible*: a :class:`FaultPlan` is a seeded, serializable
list of :class:`FaultSpec` entries that every rank's
:class:`~repro.parallel.comm.VirtualComm` consults on each send and
receive (:meth:`FaultPlan.on_send`, :meth:`FaultPlan.on_recv`) — drop,
delay, duplicate, or bit-flip a message, or crash/stall the rank when a
matching operation occurs.  Both the blocking halo exchange and the
overlapped ``isend``/``irecv``/``waitall`` path
(:mod:`repro.parallel.halo`) are attackable without modification; where
the plan sits relative to the comm sanitizer and the failure detector is
set out once, in the :mod:`repro.parallel.comm` module docstring.

Trigger semantics are count-based and therefore deterministic: a spec
matches operations by (rank, op kind, tag, peer) and fires on the
``after_matches``-th match (0-based), up to ``max_fires`` times.  The
plan records every fired fault in ``plan.events`` and, when a metrics
registry is attached, as ``chaos.faults.<kind>`` counters — so drills
show up in the same observability stream as the run they disturb.

Firing state lives on the plan, not the cluster: a retried attempt that
reuses the same plan does *not* re-fire exhausted faults, which is
exactly the transient-failure model the campaign retry policy is built
for (fail once, succeed on resubmission).  Call :meth:`FaultPlan.reset`
to rearm a plan for a fresh drill.
"""

from __future__ import annotations

import json
import random
import threading
from dataclasses import asdict, dataclass

import numpy as np

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # imported lazily at runtime to keep layering acyclic
    from ..obs.metrics import MetricsRegistry

__all__ = [
    "FAULT_KINDS",
    "COMM_FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "InjectedRankCrash",
]

#: Message-level faults, applied by :meth:`FaultPlan.on_send` and ``on_recv``.
COMM_FAULT_KINDS = ("drop", "delay", "duplicate", "bitflip", "crash", "stall")

#: All fault kinds; ``poison`` is a solver-side fault (NaN written into a
#: field at a chosen step) applied through :meth:`FaultPlan.solver_callback`.
FAULT_KINDS = COMM_FAULT_KINDS + ("poison",)

_OPS = ("send", "recv", "any")


class InjectedRankCrash(RuntimeError):
    """A ``crash`` fault fired: the rank dies mid-operation.

    Deliberately *not* a typed parallel error — the launcher wraps it in
    :class:`~repro.parallel.errors.RankFailedError` exactly as it would
    any other unexpected rank death, so the retry path under test sees
    the same exception a real failure produces.
    """


@dataclass
class FaultSpec:
    """One injectable fault.

    Parameters
    ----------
    kind : one of :data:`FAULT_KINDS`.
    rank : the rank whose endpoint (or solver) carries the fault.
    op : ``send``/``recv``/``any`` — which communicator operations the
        spec matches (ignored for ``poison``).
    tag : match only operations with this message tag (None = any).
    peer : match only this destination/source rank (None = any).
    after_matches : fire on the (``after_matches`` + 1)-th matching
        operation — the deterministic "at a chosen step" trigger (each
        halo round produces a fixed, schedule-independent count of
        matching operations per tag).
    max_fires : how many times the spec may fire (1 = a transient fault
        that a retried attempt survives).
    delay_s : sleep applied by ``delay`` (before the op proceeds) and
        ``stall`` (the rank hangs long enough for peers' per-receive
        deadlines to expire).
    bit : bit index flipped by ``bitflip`` within the payload bytes;
        -1 picks a position from the plan's seeded RNG.
    step, region : solver-side triggers.  For ``poison`` (``step``
        required) a NaN is written into the displacement field (of
        ``region``, or the first solid region when None) after that
        step.  A ``crash`` with ``step`` set fires through the solver
        callback instead of the communicator: the rank raises
        :class:`InjectedRankCrash` right after completing that step —
        the deterministic "rank dies at step N" trigger the resilience
        drills and the respawn-recovery property test are built on.
    """

    kind: str
    rank: int
    op: str = "any"
    tag: int | None = None
    peer: int | None = None
    after_matches: int = 0
    max_fires: int = 1
    delay_s: float = 0.0
    bit: int = 0
    step: int | None = None
    region: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if self.op not in _OPS:
            raise ValueError(f"fault op must be one of {_OPS}, got {self.op!r}")
        if self.rank < 0:
            raise ValueError(f"fault rank must be >= 0, got {self.rank}")
        if self.after_matches < 0 or self.max_fires < 1:
            raise ValueError("after_matches must be >= 0 and max_fires >= 1")
        if self.kind == "poison" and self.step is None:
            raise ValueError("poison faults need a step")

    def matches_op(self, rank: int, op: str, tag: int, peer: int) -> bool:
        """Does this spec match one communicator operation?

        Solver-side specs never match here: ``poison`` always fires via
        the step callback, and so does a ``crash`` carrying a ``step``
        (a step-pinned crash must not fire early on message traffic).
        """
        if self.kind == "poison" or rank != self.rank:
            return False
        if self.kind == "crash" and self.step is not None:
            return False
        if self.op != "any" and self.op != op:
            return False
        if self.tag is not None and self.tag != tag:
            return False
        if self.peer is not None and self.peer != peer:
            return False
        return True


class FaultPlan:
    """A seeded, deterministic, serializable set of faults plus their
    firing state.

    The plan is the single artifact of a chaos drill: build it (or load
    it from JSON), hand it to ``VirtualCluster(fault_plan=plan)`` or
    ``run_distributed_simulation(fault_plan=plan)``, and read
    ``plan.events`` afterwards to see exactly what fired where.
    """

    def __init__(self, specs: list[FaultSpec] | None = None, seed: int = 0):
        self.specs: list[FaultSpec] = list(specs or [])
        self.seed = int(seed)
        self._rng = random.Random(self.seed)
        self._lock = threading.Lock()
        self._match_counts: dict[int, int] = {}
        self._fire_counts: dict[int, int] = {}
        #: Every fired fault as a dict (spec index, kind, rank, op, tag).
        self.events: list[dict] = []
        self.metrics: "MetricsRegistry | None" = None

    # -- construction helpers ------------------------------------------------

    def add(self, spec: FaultSpec) -> "FaultPlan":
        self.specs.append(spec)
        return self

    def attach_metrics(self, registry: "MetricsRegistry | None") -> "FaultPlan":
        """Count fired faults as ``chaos.faults.<kind>`` in ``registry``."""
        self.metrics = registry
        return self

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "specs": [asdict(s) for s in self.specs],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FaultPlan":
        return cls(
            specs=[FaultSpec(**s) for s in d.get("specs", [])],
            seed=int(d.get("seed", 0)),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    # -- firing --------------------------------------------------------------

    def reset(self) -> None:
        """Rearm every spec (fresh drill; the event log is cleared too)."""
        with self._lock:
            self._match_counts.clear()
            self._fire_counts.clear()
            self.events.clear()
            self._rng = random.Random(self.seed)

    def fired(self, index: int) -> int:
        with self._lock:
            return self._fire_counts.get(index, 0)

    @property
    def total_fired(self) -> int:
        with self._lock:
            return sum(self._fire_counts.values())

    def _record(self, index: int, spec: FaultSpec, **info) -> None:
        # Called with the lock held.
        self._fire_counts[index] = self._fire_counts.get(index, 0) + 1
        event = {"spec": index, "kind": spec.kind, "rank": spec.rank, **info}
        self.events.append(event)
        if self.metrics is not None:
            self.metrics.counter(f"chaos.faults.{spec.kind}").add(1)
            self.metrics.counter("chaos.faults.total").add(1)

    def match_op(
        self, rank: int, op: str, tag: int, peer: int
    ) -> list[FaultSpec]:
        """Record one communicator operation; return the specs that fire.

        Thread-safe: rank programs run on threads and consult the shared
        plan concurrently.
        """
        fired: list[FaultSpec] = []
        with self._lock:
            for index, spec in enumerate(self.specs):
                if not spec.matches_op(rank, op, tag, peer):
                    continue
                seen = self._match_counts.get(index, 0)
                self._match_counts[index] = seen + 1
                if seen < spec.after_matches:
                    continue
                if self._fire_counts.get(index, 0) >= spec.max_fires:
                    continue
                self._record(index, spec, op=op, tag=tag, peer=peer)
                fired.append(spec)
        return fired

    def pick_bit(self, nbytes: int, spec: FaultSpec) -> int:
        """Resolve a bitflip position (seeded when ``spec.bit`` is -1)."""
        nbits = max(1, nbytes * 8)
        if spec.bit >= 0:
            return spec.bit % nbits
        with self._lock:
            return self._rng.randrange(nbits)

    def on_send(
        self, rank: int, dest: int, tag: int, payload,
        idle: "Callable[[float], None]",
    ) -> tuple:
        """Apply this plan to one send; return the payloads to deliver.

        ``crash`` raises :class:`InjectedRankCrash`, ``stall``/``delay``
        wait through ``idle`` (the communicator's unslotted, cancellable
        wait: a stalled rank holds no run slot), ``bitflip`` corrupts a
        copy of the payload; the result is empty after a ``drop`` (the
        peer's receive times out) and holds the payload twice after a
        ``duplicate``.
        """
        fired = self.match_op(rank, "send", tag, dest)
        if not fired:
            return (payload,)
        self._apply_common(rank, fired, idle)
        for spec in fired:
            if spec.kind == "bitflip":
                payload = np.array(payload, copy=True)
                raw = payload.view(np.uint8).reshape(-1)
                pos = self.pick_bit(raw.size, spec)
                raw[pos // 8] ^= np.uint8(1 << (pos % 8))
        if any(s.kind == "drop" for s in fired):
            return ()
        if any(s.kind == "duplicate" for s in fired):
            return (payload, payload)
        return (payload,)

    def on_recv(
        self, rank: int, source: int, tag: int,
        idle: "Callable[[float], None]",
    ) -> None:
        """Apply this plan to one receive (``crash``/``stall``/``delay``,
        waiting through ``idle`` as in :meth:`on_send`)."""
        fired = self.match_op(rank, "recv", tag, source)
        if fired:
            self._apply_common(rank, fired, idle)

    @staticmethod
    def _apply_common(
        rank: int, fired: list[FaultSpec], idle: "Callable[[float], None]"
    ) -> None:
        """Handle crash/stall/delay (shared by send and recv paths)."""
        for spec in fired:
            if spec.kind == "crash":
                raise InjectedRankCrash(f"rank {rank}: injected crash")
            if spec.kind in ("stall", "delay") and spec.delay_s > 0:
                idle(spec.delay_s)

    # -- solver-side faults --------------------------------------------------

    def solver_callback(self, rank: int = 0) -> "Callable[[int, object], None]":
        """A ``cb(step, solver)`` applying this plan's solver-side faults.

        Pass it through ``GlobalSolver.run(callbacks=[...])`` (the
        distributed launcher wires it in automatically whenever a plan
        is armed).  After the matching step completes, a ``poison`` spec
        writes a NaN into the displacement field of the chosen region —
        the blow-up the :class:`~repro.chaos.sentinel.HealthSentinel`
        must catch within one check interval — and a step-pinned
        ``crash`` spec raises :class:`InjectedRankCrash`, killing the
        rank at a deterministic step (the trigger the resilience
        recovery drills use).
        """

        def fire(step: int, solver) -> None:
            with self._lock:
                due = [
                    (i, s)
                    for i, s in enumerate(self.specs)
                    if s.kind in ("poison", "crash")
                    and s.rank == rank
                    and s.step == step
                    and self._fire_counts.get(i, 0) < s.max_fires
                ]
                for index, spec in due:
                    self._record(index, spec, step=step)
            # Apply outside the lock: the crash raise must not wedge
            # other ranks' concurrent plan lookups.
            for _index, spec in due:
                if spec.kind == "crash":
                    raise InjectedRankCrash(
                        f"rank {rank}: injected crash after step {step}"
                    )
                region = spec.region
                if region is None:
                    region = solver.solid_codes[0]
                solver.solid[region].displ[0, 0] = np.nan  # event 0, point 0

        return fire
