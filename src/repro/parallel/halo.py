"""Halo assembly across mesh slices — the SEM's only recurring communication.

Section 2.4 of the paper: summing elemental contributions at global points
shared between slices is the assembly stage that "involves communication
between distinct CPUs (based on message passing with MPI)".  This module
builds, from all slices' boundary geometry, the point-matched exchange
lists each rank needs, and implements the per-step exchange over a
:class:`~repro.parallel.comm.VirtualComm`.

Matching is geometric (quantised coordinates), so intra-chunk faces,
cross-chunk edges, cube/shell seams, and corner points shared by many
ranks are all handled uniformly.  Each rank sends its *local contribution*
at every shared point to every co-owner and adds what it receives, which
reproduces the assembled sum exactly (the sum is over distinct rank
contributions, each counted once).

A round is written once — pack per neighbour in sorted rank order and
send, register the receives; then complete the sends, receive in sorted
neighbour order, and add — over a ``{region: array}`` dict, so several
regions travel in ONE message per neighbour (the paper's 33% message-count
reduction) and one region is a dict of one.  It is offered in two forms:

* **non-blocking** — :meth:`HaloExchanger.post` sends this rank's
  shared-point contributions with ``isend`` and registers ``irecv``
  requests, returning a :class:`PendingExchange`; the caller computes
  interior elements while the messages fly, then
  :meth:`HaloExchanger.complete` finishes the receives and adds them.
  Posting is traced as a ``halo.post`` span and the receives as a
  ``halo.wait`` span, so the *visible* (unhidden) communication time of an
  overlapped step is exactly the ``halo.wait`` total — the quantity the
  A-OVERLAP benchmark compares against the blocking ``halo.exchange`` time.
* **blocking** — :meth:`HaloExchanger.assemble` is the same post completed
  at once, with nothing in between to overlap.  One ``halo.exchange`` span
  covers the post and the receives.

In both forms the receives run inside the communicator's
:meth:`~repro.parallel.comm.VirtualComm.waiting` block and the span closes
inside it too: a receive that blocks gives the rank's run slot up, and
the slot is taken back only after the span, inside a ``rank.slot_wait``
span of its own — then the adds run.  So the queue for a run slot is
never counted as communication, nor left unattributed in the step.

Both forms run the same two bodies, so the received-contribution add order
(sorted neighbour rank, then region) cannot differ between them: an
overlapped run is bit-identical to a blocking one.

The exchanger is payload-opaque: every array it is handed is
*point-leading*, ``(nglob, ...)``, and whatever trails the point axis —
nothing for a mass matrix, the 3 components, or ``(B, 3)`` for the B
events of a multi-event solver, which hands over ``np.moveaxis(a, 0, 1)``
views of its ``(B, nglob[, 3])`` arrays — travels as one block per
shared point.  ``array[ids]`` / ``array[ids] += block`` are the only
indexing forms, so **all B events share one message per neighbour per
step** (B times fewer messages than B sequential runs) while the values
and the receive-side add order of each event are exactly those of a
single-event exchange.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..mesh.element import RegionMesh, SliceMesh
from ..mesh.interfaces import external_faces, face_values
from ..mesh.numbering import group_rows
from ..obs.tracer import maybe_tracer
from .tags import (
    ASSEMBLE_MERGED,
    ASSEMBLE_REGION,
    OVERLAP_MERGED,
    OVERLAP_REGION,
    region_tag,
)

__all__ = [
    "RegionHalo",
    "build_halos",
    "HaloExchanger",
    "PendingExchange",
]


@dataclass
class RegionHalo:
    """One rank's exchange lists for one region.

    ``neighbors`` maps neighbor rank -> local global-point indices shared
    with that neighbor, ordered by the quantised coordinates so both sides
    enumerate the shared points identically.
    """

    region: int
    rank: int
    neighbors: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def n_neighbors(self) -> int:
        return len(self.neighbors)

    def total_points(self) -> int:
        return int(sum(ids.size for ids in self.neighbors.values()))

    def halo_point_ids(self) -> np.ndarray:
        """Sorted unique local global-point ids shared with any neighbour.

        This is the point set that separates *boundary* elements (which
        touch at least one of these points and therefore contribute to the
        outgoing halo messages) from *interior* elements (which cannot) —
        see :func:`repro.mesh.partition.split_elements`.
        """
        if not self.neighbors:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(list(self.neighbors.values())))


def _boundary_points(mesh: RegionMesh, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(quantised coords, global ids) of all points on external faces."""
    faces = external_faces(mesh.ibool)
    keys = np.round(face_values(mesh.xyz, faces).reshape(-1, 3) / tol).astype(np.int64)
    ids = face_values(mesh.ibool, faces).ravel()
    # Deduplicate per rank (a point may lie on several external faces).
    first = np.sort(group_rows(keys)[0])
    return keys[first], ids[first]


def build_halos(
    slices: list[SliceMesh], tolerance_km: float = 1e-5
) -> dict[int, dict[int, RegionHalo]]:
    """Build all ranks' halos: ``halos[rank][region] -> RegionHalo``.

    Groups all ranks' boundary points of a region by quantised coordinates
    once.  Points shared by k ranks generate exchanges between all k(k-1)
    ordered pairs, which the additive exchange needs; memory stays
    proportional to those pairs (no points x ranks table).
    """
    halos: dict[int, dict[int, RegionHalo]] = {
        rank: {
            region: RegionHalo(region=region, rank=rank) for region in sl.regions
        }
        for rank, sl in enumerate(slices)
    }
    for region in {region for sl in slices for region in sl.regions}:
        owners = [rank for rank, sl in enumerate(slices) if region in sl.regions]
        boundary = [
            _boundary_points(slices[rank].regions[region], tolerance_km)
            for rank in owners
        ]
        ids = np.concatenate([gids for _, gids in boundary])
        rank_of = np.repeat(owners, [gids.size for _, gids in boundary])
        # Groups are numbered in lexicographic key order — the order both
        # sides of a pair enumerate their shared points in.
        _, group = group_rows(np.concatenate([keys for keys, _ in boundary]))
        # Co-owners of a point sit side by side (ranks ascending: stable).
        members = np.argsort(group, kind="stable")
        g = group[members]
        # Every ordered pair of co-owners: members ``s`` apart in one group
        # (seeded with an empty run so a region shared with nobody works).
        a, b = [members[:0]], [members[:0]]
        for s in range(1, int(np.bincount(group).max(initial=1))):
            i = np.flatnonzero(g[s:] == g[:-s])
            a += [members[i], members[i + s]]
            b += [members[i + s], members[i]]
        a, b = np.concatenate(a), np.concatenate(b)
        order = np.lexsort((group[a], rank_of[b], rank_of[a]))
        a, b = a[order], b[order]
        cuts = np.flatnonzero(np.diff(rank_of[a] * len(slices) + rank_of[b])) + 1
        for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, a.size]):
            if lo < hi:
                rank_a, rank_b = int(rank_of[a[lo]]), int(rank_of[b[lo]])
                halos[rank_a][region].neighbors[rank_b] = ids[a[lo:hi]]
    return halos


@dataclass
class PendingExchange:
    """An in-flight halo round: posted sends + open receives.

    Returned by :meth:`HaloExchanger.post` and consumed exactly once by
    :meth:`HaloExchanger.complete`.  ``recv_requests`` maps neighbour
    rank -> the posted :class:`~repro.parallel.comm.RecvRequest` (in
    sorted-rank order); ``send_requests`` keeps the posted
    :class:`~repro.parallel.comm.SendRequest` handles so the completion
    waits *every* request of the round — the leaked-request invariant
    rule R1 and the comm sanitizer both enforce.
    """

    regions: tuple[int, ...]
    recv_requests: dict[int, object] = field(default_factory=dict)
    send_requests: list = field(default_factory=list)
    bytes_sent: int = 0


class HaloExchanger:
    """Per-rank exchange engine bound to a communicator.

    One *round* (:meth:`_post`, :meth:`_receive`, :meth:`_add`) in two forms:
    non-blocking :meth:`post` ... :meth:`complete`, and blocking
    :meth:`assemble` — see the module docstring.  Tags come from the
    :mod:`repro.parallel.tags` registry: a one-region round uses that
    region's channel, a multi-region round the merged one, and the two
    forms use distinct bases so a posted exchange can never collide with
    a blocking one.

    With a tracer attached, a blocking round is one ``halo.exchange``
    span whose counters record both directions of the traffic (messages,
    bytes) — the raw data of the paper's IPM summaries; a non-blocking
    one is a ``halo.post`` span (sends) and a ``halo.wait`` span
    (receives).
    """

    #: The solver hands both solid regions over as ONE round (the paper's
    #: "reduction of MPI messages by 33% inside each chunk by handling
    #: crust mantle and inner core simultaneously").  The A-MSG ablation
    #: and its tests clear it on the class to run per-region rounds.
    merge_regions = True

    def __init__(
        self,
        comm,
        halos_for_rank: dict[int, RegionHalo],
        tracer=None,
    ):
        self.comm = comm
        self.halos = halos_for_rank
        self.tracer = maybe_tracer(tracer)
        #: Cumulative seconds blocked on halo receives (the *visible*
        #: communication time), kept even without a tracer so streaming
        #: telemetry can difference it per step at near-zero cost.
        self.wait_s = 0.0

    # -- the one round ------------------------------------------------------

    def _neighbors(self, regions: tuple[int, ...]) -> list[int]:
        """Sorted union of neighbour ranks over the given regions."""
        neighbors: set[int] = set()
        for region in regions:
            halo = self.halos.get(region)
            if halo is not None:
                neighbors.update(halo.neighbors)
        return sorted(neighbors)

    def _shared(self, regions: tuple[int, ...], nbr: int):
        """``(region, shared point ids)`` for one neighbour, in the
        (sorted) region order both sides pack and unpack by."""
        for region in regions:
            halo = self.halos.get(region)
            if halo is not None and nbr in halo.neighbors:
                yield region, halo.neighbors[nbr]

    def _pack(
        self, regions: tuple[int, ...], arrays: dict[int, np.ndarray], nbr: int
    ) -> np.ndarray:
        """This rank's shared-point values for one neighbour, flattened."""
        return np.concatenate([
            arrays[region][ids].reshape(-1)
            for region, ids in self._shared(regions, nbr)
        ])

    def _unpack_add(
        self,
        regions: tuple[int, ...],
        arrays: dict[int, np.ndarray],
        nbr: int,
        received: np.ndarray,
    ) -> None:
        """Add one neighbour's packed contribution into the target arrays."""
        offset = 0
        for region, ids in self._shared(regions, nbr):
            array = arrays[region]
            block_shape = (ids.size, *array.shape[1:])
            count = int(np.prod(block_shape))
            block = received[offset : offset + count].reshape(block_shape)
            offset += count
            # ids are unique within one neighbor list (deduplicated at
            # construction), so plain fancy-index addition is exact.
            array[ids] += block
        if offset != received.size:
            raise ValueError(
                f"combined halo payload from rank {nbr} has "
                f"{received.size} values, consumed {offset}"
            )

    def _post(
        self, arrays: dict[int, np.ndarray], region_base: int, merged_base: int
    ) -> PendingExchange:
        """Send every neighbour its message (sorted rank order; the send
        copies the shared-point values, so the arrays are free to change
        afterwards) and register the matching receives."""
        regions = tuple(sorted(arrays))
        tag = (
            region_tag(region_base, regions[0])
            if len(regions) == 1
            else merged_base
        )
        pending = PendingExchange(regions=regions)
        neighbors = self._neighbors(regions)
        for nbr in neighbors:
            payload = self._pack(regions, arrays, nbr)
            pending.send_requests.append(self.comm.isend(nbr, payload, tag=tag))
            pending.bytes_sent += payload.nbytes
        for nbr in neighbors:
            pending.recv_requests[nbr] = self.comm.irecv(nbr, tag=tag)
        return pending

    def _receive(self, pending: PendingExchange) -> list[np.ndarray]:
        """Wait for every request of the round; the received payloads in
        sorted-neighbour order."""
        t_wait = time.perf_counter()
        for req in pending.send_requests:
            req.wait()
        received = [req.wait() for req in pending.recv_requests.values()]
        self.wait_s += time.perf_counter() - t_wait
        return received

    def _take_slot(self) -> None:
        """Take back the run slot a blocking receive gave up."""
        with self.tracer.span("rank.slot_wait"):
            self.comm.take_slot()

    def _add(
        self,
        pending: PendingExchange,
        arrays: dict[int, np.ndarray],
        received: list[np.ndarray],
    ) -> None:
        """Add the received contributions in sorted-neighbour, then region,
        order — the one add order of both forms, which is why they agree
        bit for bit."""
        for nbr, data in zip(pending.recv_requests, received):
            self._unpack_add(pending.regions, arrays, nbr, data)

    # -- its two forms ------------------------------------------------------

    def assemble(self, arrays: dict[int, np.ndarray]) -> None:
        """Blocking round: sum the other ranks' contributions into the
        point-leading ``{region: array}`` arrays *in place*."""
        with self.comm.waiting():
            with self.tracer.span("halo.exchange", regions=len(arrays)) as span:
                pending = self._post(arrays, ASSEMBLE_REGION, ASSEMBLE_MERGED)
                received = self._receive(pending)
                span.add(
                    messages=2 * len(pending.recv_requests),
                    bytes=pending.bytes_sent + sum(r.nbytes for r in received),
                )
        self._take_slot()
        self._add(pending, arrays, received)

    def post(self, arrays: dict[int, np.ndarray]) -> PendingExchange:
        """Post a round without blocking.

        Each array must already carry this rank's *complete* local
        contribution at every shared point — with the interior/boundary
        element split that holds after the boundary-element pass alone,
        since interior elements touch no shared point.  Returns the
        pending round for :meth:`complete`.
        """
        with self.tracer.span("halo.post", regions=len(arrays)) as span:
            pending = self._post(arrays, OVERLAP_REGION, OVERLAP_MERGED)
            span.add(
                messages=len(pending.send_requests), bytes=pending.bytes_sent
            )
        return pending

    def complete(
        self, pending: PendingExchange, arrays: dict[int, np.ndarray]
    ) -> None:
        """Complete a :meth:`post`: wait for every neighbour and add its
        contribution into ``arrays`` in place."""
        with self.comm.waiting():
            with self.tracer.span("halo.wait", regions=len(arrays)) as span:
                received = self._receive(pending)
                span.add(
                    messages=len(pending.recv_requests),
                    bytes=sum(r.nbytes for r in received),
                )
        self._take_slot()
        self._add(pending, arrays, received)
