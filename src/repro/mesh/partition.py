"""Interior/boundary element classification for comm/compute overlap.

The overlapped time loop (paper Section 2.4 / the SPECFEM3D_GLOBE
``iphase`` loop structure) relies on one mesh-side fact: an element whose
GLL points include no slice-shared global point can contribute nothing to
an outgoing halo message.  Splitting each region's elements into

* **boundary** — at least one of the element's ``ibool`` entries is a
  halo point (shared with some neighbouring rank), and
* **interior** — none are,

lets the solver compute boundary elements first, post the halo exchange
with their (complete) shared-point contributions, and compute the interior
elements while the messages are in flight.

The split is purely index arithmetic over the existing ``ibool`` numbering
and each region's :class:`~repro.parallel.halo.RegionHalo`; the two index
sets partition ``range(nspec)`` exactly (no overlap, no gap) — a property
test pins this across NEX/NPROC_XI combinations.

:func:`boundary_first` then reorders a slice's elements so each split is
two contiguous runs — boundary ``0:nb``, interior ``nb:nspec`` — which is
the only split the solver accepts: every subset's geometry and materials
are views, the attenuation memory relaxes in place, and the kernel
writes straight into the split region's stash.  The distributed launcher
orders every slice this way whatever the halo schedule, so a blocking and
an overlapped run of one world share one element order and stay
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cuthill_mckee import reorder_elements
from .element import RegionMesh

__all__ = [
    "ElementSplit",
    "boundary_first",
    "split_elements",
    "split_slice_elements",
]


@dataclass(frozen=True)
class ElementSplit:
    """One region's element partition: ascending element index arrays."""

    interior: np.ndarray
    boundary: np.ndarray

    @property
    def nspec(self) -> int:
        return self.interior.size + self.boundary.size

    @property
    def boundary_fraction(self) -> float:
        """Share of elements on the halo — the surface-to-volume ratio
        that bounds how much compute is available to hide messages."""
        n = self.nspec
        return self.boundary.size / n if n else 0.0


def split_elements(ibool: np.ndarray, halo_point_ids: np.ndarray) -> ElementSplit:
    """Partition elements by whether they touch any halo point.

    Parameters
    ----------
    ibool : (nspec, n, n, n) local-to-global numbering of one region.
    halo_point_ids : global point ids shared with any neighbouring rank
        (:meth:`repro.parallel.halo.RegionHalo.halo_point_ids`; repeats
        are harmless).

    Returns ascending ``interior``/``boundary`` index arrays that together
    enumerate every element exactly once, so kernels evaluated on the two
    subsets cover the same work as one full-mesh evaluation.
    """
    nspec = ibool.shape[0]
    if halo_point_ids.size == 0:
        return ElementSplit(
            interior=np.arange(nspec, dtype=np.int64),
            boundary=np.empty(0, dtype=np.int64),
        )
    nglob = int(ibool.max()) + 1
    is_halo_point = np.zeros(nglob, dtype=bool)
    is_halo_point[halo_point_ids] = True
    touches = is_halo_point[ibool.reshape(nspec, -1)].any(axis=1)
    all_elements = np.arange(nspec, dtype=np.int64)
    return ElementSplit(
        interior=all_elements[~touches], boundary=all_elements[touches]
    )


def split_slice_elements(slice_mesh, halos_for_rank) -> dict[int, ElementSplit]:
    """Split every region of one rank's slice: region code -> split.

    ``halos_for_rank`` maps region code to that rank's
    :class:`~repro.parallel.halo.RegionHalo`; regions without a halo entry
    (serial runs, or a region this rank shares with nobody) classify every
    element as interior, which makes the overlapped step degenerate to the
    purely local one.
    """
    splits: dict[int, ElementSplit] = {}
    for region, mesh in slice_mesh.regions.items():
        halo = halos_for_rank.get(region)
        # Every neighbour's list, repeats included: split_elements only
        # marks the ids, so the sort of halo_point_ids() would be waste.
        ids = [np.empty(0, dtype=np.int64)]
        if halo is not None:
            ids += halo.neighbors.values()
        splits[region] = split_elements(mesh.ibool, np.concatenate(ids))
    return splits


def _reordered(mesh: RegionMesh, order: np.ndarray) -> RegionMesh:
    """``mesh`` with its elements permuted (``order[new] = old``): every
    per-element array, the transversely-isotropic moduli included."""
    names = [
        name for name in ("xyz", "ibool", "rho", "kappa", "mu", "q_mu")
        if getattr(mesh, name) is not None
    ]
    arrays = reorder_elements(order, *(getattr(mesh, name) for name in names))
    changes = dict(zip(names, arrays))
    m = mesh.ti_moduli
    if m is not None:
        changes["ti_moduli"] = type(m)(
            *reorder_elements(order, m.A, m.C, m.L, m.N, m.F)
        )
    return replace(mesh, **changes)


def boundary_first(slice_mesh, halos_for_rank) -> dict[int, ElementSplit]:
    """Reorder every region of ``slice_mesh`` in place, boundary elements
    first (each side keeps its relative order), and return its splits —
    now ``boundary = 0:nb``, ``interior = nb:nspec``.

    Global point numbering is untouched, so halos built before the
    reorder stay valid.
    """
    splits: dict[int, ElementSplit] = {}
    for region, split in split_slice_elements(slice_mesh, halos_for_rank).items():
        mesh = slice_mesh.regions[region]
        nb = split.boundary.size
        order = np.concatenate([split.boundary, split.interior])
        if not np.array_equal(order, np.arange(mesh.nspec)):
            slice_mesh.regions[region] = _reordered(mesh, order)
        splits[region] = ElementSplit(
            interior=np.arange(nb, mesh.nspec, dtype=np.int64),
            boundary=np.arange(nb, dtype=np.int64),
        )
    return splits
