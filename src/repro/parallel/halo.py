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

Two exchange styles are provided:

* **blocking** — :meth:`HaloExchanger.assemble` (one region) and
  :meth:`HaloExchanger.assemble_many` (several regions packed into one
  message per neighbour, the paper's 33% message-count reduction).  One
  ``halo.exchange`` span covers the whole round.
* **non-blocking** — :meth:`HaloExchanger.post` / :meth:`HaloExchanger.wait`
  (and the merged :meth:`HaloExchanger.post_many` /
  :meth:`HaloExchanger.wait_many`): ``post`` sends this rank's shared-point
  contributions with ``isend`` and registers ``irecv`` requests, returning
  a :class:`PendingExchange`; the caller computes interior elements while
  the messages fly, then ``wait`` completes the receives and adds them.
  Posting is traced as a ``halo.post`` span and the completion as a
  ``halo.wait`` span, so the *visible* (unhidden) communication time of an
  overlapped step is exactly the ``halo.wait`` total — the quantity the
  A-OVERLAP benchmark compares against the blocking ``halo.exchange`` time.

The received-contribution add order (sorted neighbour rank, then region)
is identical between the two styles, so an overlapped run is bit-identical
to a blocking one.

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
from ..mesh.interfaces import FACE_SLICES, external_faces
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

    def message_bytes(self, ncomp: int, itemsize: int = 8) -> int:
        """Bytes this rank sends per exchange of an ncomp-component field."""
        return self.total_points() * ncomp * itemsize

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
    keys = []
    ids = []
    for ispec, face_id in faces:
        pts = mesh.xyz[(ispec, *FACE_SLICES[face_id])].reshape(-1, 3)
        gids = mesh.ibool[(ispec, *FACE_SLICES[face_id])].ravel()
        keys.append(np.round(pts / tol).astype(np.int64))
        ids.append(gids)
    if not keys:
        return np.empty((0, 3), dtype=np.int64), np.empty(0, dtype=np.int64)
    keys = np.concatenate(keys)
    ids = np.concatenate(ids)
    # Deduplicate per rank (a point may lie on several external faces).
    _, first = np.unique(keys, axis=0, return_index=True)
    return keys[np.sort(first)], ids[np.sort(first)]


def build_halos(
    slices: list[SliceMesh], tolerance_km: float = 1e-5
) -> dict[int, dict[int, RegionHalo]]:
    """Build all ranks' halos: ``halos[rank][region] -> RegionHalo``.

    Cross-matches every pair of ranks' boundary points per region.  Points
    shared by k ranks generate exchanges between all k(k-1) ordered pairs,
    which the additive exchange needs.
    """
    nranks = len(slices)
    # Collect per rank/region boundary keys.
    boundary: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    regions = set()
    for rank, sl in enumerate(slices):
        for region, mesh in sl.regions.items():
            regions.add(region)
            boundary[(rank, region)] = _boundary_points(mesh, tolerance_km)
    halos: dict[int, dict[int, RegionHalo]] = {
        rank: {
            region: RegionHalo(region=region, rank=rank)
            for region in slices[rank].regions
        }
        for rank in range(nranks)
    }
    for region in regions:
        # Global map: key tuple -> list of (rank, local global id).
        owners: dict[tuple[int, int, int], list[tuple[int, int]]] = {}
        for rank in range(nranks):
            keys, ids = boundary.get((rank, region), (None, None))
            if keys is None:
                continue
            for key, gid in zip(map(tuple, keys), ids):
                owners.setdefault(key, []).append((rank, int(gid)))
        # Shared points -> pairwise exchange lists, keyed for ordering.
        pair_points: dict[tuple[int, int], list[tuple[tuple, int]]] = {}
        for key, own in owners.items():
            if len(own) < 2:
                continue
            for rank_a, gid_a in own:
                for rank_b, _gid_b in own:
                    if rank_a == rank_b:
                        continue
                    pair_points.setdefault((rank_a, rank_b), []).append(
                        (key, gid_a)
                    )
        for (rank_a, rank_b), entries in pair_points.items():
            entries.sort(key=lambda e: e[0])  # same order on both sides
            ids = np.asarray([gid for _, gid in entries], dtype=np.int64)
            halos[rank_a][region].neighbors[rank_b] = ids
    return halos


@dataclass
class PendingExchange:
    """An in-flight non-blocking halo round: posted sends + open receives.

    Returned by :meth:`HaloExchanger.post` / :meth:`HaloExchanger.post_many`
    and consumed exactly once by the matching ``wait``/``wait_many``.
    ``recv_requests`` maps neighbour rank -> the posted
    :class:`~repro.parallel.comm.RecvRequest`; ``send_requests`` keeps the
    posted :class:`~repro.parallel.comm.SendRequest` handles so the wait
    completes *every* request of the round — the leaked-request invariant
    rule R1 and the comm sanitizer both enforce.
    """

    regions: tuple[int, ...]
    tag: int
    recv_requests: dict[int, object] = field(default_factory=dict)
    send_requests: list = field(default_factory=list)
    bytes_sent: int = 0


class HaloExchanger:
    """Per-rank exchange engine bound to a communicator.

    ``assemble(region, array)`` sends this rank's contributions at the
    shared points of each neighbor and adds the received contributions,
    returning the fully assembled array.  Tags come from the
    :mod:`repro.parallel.tags` registry: per-region channels separate the
    fluid and solid exchanges, and the non-blocking rounds use distinct
    bases so a posted exchange can never collide with a blocking one
    (the setup-time mass assembly).

    With a tracer attached, every blocking exchange becomes a
    ``halo.exchange`` span whose counters record both directions of the
    traffic (messages, bytes, shared points) — the raw data of the paper's
    IPM summaries.  Non-blocking rounds split into a ``halo.post`` span
    (sends) and a ``halo.wait`` span (receives + adds); the wait span's
    duration is the unhidden communication time.
    """

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

    # -- shared pack/unpack helpers ----------------------------------------

    def _merged_neighbors(self, regions: list[int]) -> list[int]:
        """Sorted union of neighbour ranks over the given regions."""
        neighbors: set[int] = set()
        for region in regions:
            halo = self.halos.get(region)
            if halo is not None:
                neighbors.update(halo.neighbors)
        return sorted(neighbors)

    def _pack(
        self, regions: list[int], arrays: dict[int, np.ndarray], nbr: int
    ) -> np.ndarray:
        """Concatenate this rank's shared-point values for one neighbour,
        region order fixed by the (sorted) region list."""
        parts = []
        for region in regions:
            halo = self.halos.get(region)
            if halo is None or nbr not in halo.neighbors:
                continue
            parts.append(arrays[region][halo.neighbors[nbr]].reshape(-1))
        return np.concatenate(parts)

    def _unpack_add(
        self,
        regions: list[int],
        arrays: dict[int, np.ndarray],
        nbr: int,
        received: np.ndarray,
    ) -> None:
        """Add one neighbour's packed contribution into the target arrays."""
        offset = 0
        for region in regions:
            halo = self.halos.get(region)
            if halo is None or nbr not in halo.neighbors:
                continue
            ids = halo.neighbors[nbr]
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

    # -- blocking exchanges -------------------------------------------------

    def assemble(self, region: int, array: np.ndarray) -> np.ndarray:
        halo = self.halos.get(region)
        if halo is None or not halo.neighbors:
            return array
        tag = region_tag(ASSEMBLE_REGION, region)
        with self.tracer.span("halo.exchange", region=region) as span:
            # Capture local contributions before any addition.
            outgoing = {
                nbr: array[ids].copy()
                for nbr, ids in sorted(halo.neighbors.items())
            }
            sent = 0
            for nbr, payload in outgoing.items():
                self.comm.send(nbr, payload, tag=tag)
                sent += payload.nbytes
            received_bytes = 0
            t_wait = time.perf_counter()
            for nbr, ids in sorted(halo.neighbors.items()):
                received = self.comm.recv(nbr, tag=tag)
                received_bytes += received.nbytes
                # ids are unique within one neighbor list (deduplicated at
                # construction), so plain fancy-index addition is exact.
                array[ids] += received
            self.wait_s += time.perf_counter() - t_wait
            span.add(
                messages=2 * len(outgoing),
                bytes=sent + received_bytes,
                points=halo.total_points(),
            )
        return array

    def assemble_many(self, arrays: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
        """Assemble several regions with ONE message per neighbour.

        The paper's Section-1 optimisation: "reduction of MPI messages by
        33% inside each chunk by handling crust mantle and inner core
        simultaneously" — instead of one exchange per solid region, the
        shared values of all given regions are packed into a single
        message per neighbour (region order fixed by sorted region code).
        """
        regions = sorted(arrays)
        neighbors = self._merged_neighbors(regions)
        tag = ASSEMBLE_MERGED
        with self.tracer.span("halo.exchange", merged_regions=len(regions)) as span:
            sent = 0
            for nbr in neighbors:
                payload = self._pack(regions, arrays, nbr)
                self.comm.send(nbr, payload, tag=tag)
                sent += payload.nbytes
            received_bytes = 0
            t_wait = time.perf_counter()
            for nbr in neighbors:
                received = self.comm.recv(nbr, tag=tag)
                received_bytes += received.nbytes
                self._unpack_add(regions, arrays, nbr, received)
            self.wait_s += time.perf_counter() - t_wait
            span.add(messages=2 * len(neighbors), bytes=sent + received_bytes)
        return arrays

    # -- non-blocking exchanges ---------------------------------------------

    def post(self, region: int, array: np.ndarray) -> PendingExchange:
        """Post one region's halo exchange without blocking.

        ``array`` must already carry this rank's *complete* local
        contribution at every shared point — with the interior/boundary
        element split that holds after the boundary-element pass alone,
        since interior elements touch no shared point.  Returns the
        pending round for :meth:`wait`.
        """
        tag = region_tag(OVERLAP_REGION, region)
        pending = PendingExchange(regions=(region,), tag=tag)
        halo = self.halos.get(region)
        if halo is None or not halo.neighbors:
            return pending
        with self.tracer.span("halo.post", region=region) as span:
            for nbr, ids in sorted(halo.neighbors.items()):
                payload = array[ids]
                pending.send_requests.append(
                    self.comm.isend(nbr, payload, tag=tag)
                )
                pending.bytes_sent += payload.nbytes
            for nbr in sorted(halo.neighbors):
                pending.recv_requests[nbr] = self.comm.irecv(nbr, tag=tag)
            span.add(
                messages=len(pending.recv_requests),
                bytes=pending.bytes_sent,
                points=halo.total_points(),
            )
        return pending

    def wait(self, pending: PendingExchange, array: np.ndarray) -> np.ndarray:
        """Complete a :meth:`post`: wait for every neighbour and add its
        contribution.  The add order (sorted neighbour rank) matches
        :meth:`assemble`, keeping the two paths bit-identical."""
        t_wait = time.perf_counter()
        for req in pending.send_requests:
            req.wait()
        if not pending.recv_requests:
            self.wait_s += time.perf_counter() - t_wait
            return array
        (region,) = pending.regions
        halo = self.halos[region]
        with self.tracer.span("halo.wait", region=region) as span:
            received_bytes = 0
            for nbr in sorted(pending.recv_requests):
                received = pending.recv_requests[nbr].wait()
                received_bytes += received.nbytes
                array[halo.neighbors[nbr]] += received
            span.add(messages=len(pending.recv_requests), bytes=received_bytes)
        self.wait_s += time.perf_counter() - t_wait
        return array

    def post_many(self, arrays: dict[int, np.ndarray]) -> PendingExchange:
        """Non-blocking :meth:`assemble_many`: one posted message per
        neighbour carrying every given region's shared-point values."""
        regions = sorted(arrays)
        neighbors = self._merged_neighbors(regions)
        tag = OVERLAP_MERGED
        pending = PendingExchange(regions=tuple(regions), tag=tag)
        if not neighbors:
            return pending
        with self.tracer.span("halo.post", merged_regions=len(regions)) as span:
            for nbr in neighbors:
                payload = self._pack(regions, arrays, nbr)
                pending.send_requests.append(
                    self.comm.isend(nbr, payload, tag=tag)
                )
                pending.bytes_sent += payload.nbytes
            for nbr in neighbors:
                pending.recv_requests[nbr] = self.comm.irecv(nbr, tag=tag)
            span.add(messages=len(neighbors), bytes=pending.bytes_sent)
        return pending

    def wait_many(
        self, pending: PendingExchange, arrays: dict[int, np.ndarray]
    ) -> dict[int, np.ndarray]:
        """Complete a :meth:`post_many`; add order (sorted neighbour, then
        region) matches :meth:`assemble_many` bit for bit."""
        t_wait = time.perf_counter()
        for req in pending.send_requests:
            req.wait()
        if not pending.recv_requests:
            self.wait_s += time.perf_counter() - t_wait
            return arrays
        regions = list(pending.regions)
        with self.tracer.span("halo.wait", merged_regions=len(regions)) as span:
            received_bytes = 0
            for nbr in sorted(pending.recv_requests):
                received = pending.recv_requests[nbr].wait()
                received_bytes += received.nbytes
                self._unpack_add(regions, arrays, nbr, received)
            span.add(messages=len(pending.recv_requests), bytes=received_bytes)
        self.wait_s += time.perf_counter() - t_wait
        return arrays
