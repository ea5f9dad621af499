"""Local -> global numbering: building ``ibool`` from GLL coordinates.

In the SEM, GLL points on element faces/edges/corners are shared between
neighbouring elements (Figure 3 of the paper).  The mesher must identify
coincident local points and assign each distinct location one *global*
degree-of-freedom index; the solver then sums elemental contributions into
the global arrays through ``ibool``.  Identification is done by exact
matching of coordinates rounded to a tolerance — robust because the mesher
evaluates analytic mappings, so shared points agree to machine precision.
A caller that knows the mesh's structure (the mesher: a chunk's interior
is a structured grid) passes per-point ``labels`` instead, and only the
points it cannot label are matched by coordinates.

Also provides the global-point renumbering pass the paper builds on
(Section 4.2): renumbering points in first-touch order of the element loop
minimises the memory strides of the gather/scatter into the global arrays.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "group_rows",
    "build_global_numbering",
    "renumber_first_touch",
    "apply_global_permutation",
    "average_global_stride",
]

#: Rounding scale for coordinate matching, relative to the coordinate span.
_REL_TOLERANCE = 1e-9


def _quantise(points: np.ndarray, tolerance: float) -> np.ndarray:
    """Integer-quantised coordinates for exact dictionary matching."""
    return np.round(points / tolerance).astype(np.int64)


def group_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group equal rows of an ``(N, k)`` integer array.

    Returns ``(first_index, inverse)`` exactly as ``np.unique(keys, axis=0,
    return_index=True, return_inverse=True)`` does — groups in
    lexicographic row order, ``first_index[g]`` the first row of group
    ``g``, ``inverse[i]`` the group of row ``i`` — from one stable
    ``lexsort`` of the columns and an adjacent-row compare, without
    ``np.unique``'s detour through a structured dtype (several times
    slower on the mesher's (N, 3) int64 keys).
    """
    n = keys.shape[0]
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    starts = np.ones(n, dtype=bool)
    starts[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    # Stable sort: the first row of a group has its smallest original index.
    return order[starts], inverse


def _first_touch(labels: np.ndarray, n_labels: int) -> tuple[np.ndarray, int]:
    """Number labels in the order the flat element loop first touches them.

    ``labels`` holds integers in ``[0, n_labels)``.  Returns ``(perm,
    count)``: ``perm[label]`` is the label's rank among the ``count``
    distinct labels by first occurrence in ``labels.ravel()``, -1 for a
    label that never occurs.  One ``np.minimum.at`` finds each label's
    first position; no sort, no Python loop.
    """
    flat = labels.ravel()
    first = np.full(n_labels, flat.size, dtype=np.intp)
    np.minimum.at(first, flat, np.arange(flat.size, dtype=np.intp))
    is_first = np.zeros(flat.size, dtype=bool)
    is_first[first[first < flat.size]] = True
    # flat[is_first] lists each label once, in first-touch order.
    touched = flat[is_first]
    perm = np.full(n_labels, -1, dtype=np.int64)
    perm[touched] = np.arange(touched.size)
    return perm, int(touched.size)


def build_global_numbering(
    xyz: np.ndarray,
    tolerance: float | None = None,
    labels: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Build ``ibool`` for elements with GLL coordinates ``xyz``.

    Parameters
    ----------
    xyz : (nspec, n, n, n, 3) array of GLL point coordinates.
    tolerance : matching tolerance; defaults to ``1e-9 *`` coordinate span.
    labels : optional (nspec, n, n, n) integer array from a caller that
        knows the mesh's structure: points with equal labels ``>= 0``
        coincide, points with different labels ``>= 0`` do not, and no
        labelled point coincides with a point labelled ``-1``.  Only the
        ``-1`` points are matched by coordinates.  Without labels every
        point is.

    Returns
    -------
    ibool : (nspec, n, n, n) int64 array of 0-based global indices, numbered
        in first-encounter order over the element loop (so the numbering is
        already cache-friendly for that element order).
    nglob : number of distinct global points.
    """
    xyz = np.asarray(xyz, dtype=np.float64)
    if xyz.ndim != 5 or xyz.shape[-1] != 3:
        raise ValueError(f"expected (nspec, n, n, n, 3) coordinates, got {xyz.shape}")
    if tolerance is None:
        span = float(np.max(xyz) - np.min(xyz)) if xyz.size else 1.0
        tolerance = max(span, 1.0) * _REL_TOLERANCE
    flat = xyz.reshape(-1, 3)
    if labels is None:
        point_labels = np.full(flat.shape[0], -1, dtype=np.int64)
    else:
        point_labels = np.array(labels, dtype=np.int64).ravel()
    # Coincident unlabelled points become one label each, after the
    # caller's; the first-touch pass then numbers all labels at once.
    unlabelled = np.flatnonzero(point_labels < 0)
    base = int(point_labels.max(initial=-1)) + 1
    n_labels = base
    if unlabelled.size:
        first_index, inverse = group_rows(_quantise(flat[unlabelled], tolerance))
        point_labels[unlabelled] = base + inverse
        n_labels += first_index.size
    perm, nglob = _first_touch(point_labels, n_labels)
    return perm[point_labels].reshape(xyz.shape[:-1]), nglob


def renumber_first_touch(ibool: np.ndarray, nglob: int) -> tuple[np.ndarray, np.ndarray]:
    """Renumber global points in first-touch order of the element loop.

    This is the point-renumbering optimisation of [Komatitsch et al. 2008]
    that the paper credits with having already removed most L2 misses.
    Returns ``(new_ibool, permutation)`` where
    ``permutation[old_global] = new_global``.
    """
    perm, touched = _first_touch(ibool, nglob)
    if touched != nglob:
        raise ValueError(
            f"ibool references {touched} globals but nglob={nglob}"
        )
    return perm[ibool], perm


def apply_global_permutation(
    ibool: np.ndarray, perm: np.ndarray, *arrays: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Apply a global renumbering to ibool and any global-length arrays.

    ``perm[old] = new``.  Global arrays are reordered so that
    ``new_array[perm[g]] = old_array[g]``.
    """
    perm = np.asarray(perm)
    new_ibool = perm[ibool]
    out: list[np.ndarray] = [new_ibool]
    for arr in arrays:
        if arr.shape[0] != perm.size:
            raise ValueError(
                f"global array of length {arr.shape[0]} does not match "
                f"permutation of size {perm.size}"
            )
        new_arr = np.empty_like(arr)
        new_arr[perm] = arr
        out.append(new_arr)
    return tuple(out)


def average_global_stride(ibool: np.ndarray) -> float:
    """Mean |delta global index| between consecutive accesses of the
    element loop — the locality metric the Cuthill-McKee sorting of
    Section 4.2 minimises.  Lower is more cache-friendly."""
    flat = ibool.ravel().astype(np.int64)
    if flat.size < 2:
        return 0.0
    return float(np.mean(np.abs(np.diff(flat))))
