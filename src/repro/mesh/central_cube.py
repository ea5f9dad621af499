"""The inflated central cube at the centre of the inner core.

A cubed-sphere shell mesh cannot reach the Earth's centre (the mapping
degenerates at r = 0), so SPECFEM3D_GLOBE fills the middle of the inner
core with a hexahedral cube whose faces are *inflated* — blended toward the
sphere — to avoid the badly-shaped elements a flat-faced cube produces
(paper Section 1, citing [7]).

Geometry: a parameter point (a, b, c) in [-1, 1]^3 is mapped by

* finding m = max(|a|, |b|, |c|) (the concentric-cube "radius"),
* projecting (a,b,c)/m onto the owning cube face, whose transverse
  parameters are read as *scaled angles* xi = alpha*pi/4, eta = beta*pi/4 —
  the same equiangular convention as the chunk meshes, so the cube surface
  grid coincides point-for-point with the inner surface of the six
  inner-core shell columns,
* placing the surface point at radius ``r_s = rc * (1 + gamma*(n-1))``
  along the gnomonic direction (gamma = 0: sphere; gamma = 1: flat cube),
* scaling linearly by m toward the centre.

The paper also mentions "reduction of the central cube bottleneck by
cutting the cube in two": the cube's elements can be assigned either all
to the slices of chunk AB (legacy) or split between chunks AB and
AB_ANTIPODE (optimised); see :func:`assign_cube_columns`.
"""

from __future__ import annotations

import numpy as np

from ..cubed_sphere.mapping import NCHUNKS, chunk_rotation

__all__ = [
    "INFLATION_GAMMA",
    "cube_surface_radius",
    "map_cube_points",
    "assign_cube_columns",
]

#: Default inflation factor: 0 = sphere, 1 = flat-faced cube. SPECFEM uses a
#: partially inflated cube; 0.41 gives well-shaped elements at both the face
#: centres and the cube edges.
INFLATION_GAMMA = 0.41

_ROTATIONS = np.stack([chunk_rotation(face) for face in range(NCHUNKS)])
#: Each chunk rotation is a signed permutation: column j of face f has its
#: one nonzero entry, ``_SIGN_OF[f, j]``, in row ``_COLUMN_OF[f, j]``, so
#: ``(u @ R)[j] = u[_COLUMN_OF[f, j]] * _SIGN_OF[f, j]``.
_COLUMN_OF = np.abs(_ROTATIONS).argmax(axis=1)
_SIGN_OF = np.take_along_axis(_ROTATIONS, _COLUMN_OF[:, None, :], axis=1)[:, 0]


def cube_surface_radius(
    xi: np.ndarray, eta: np.ndarray, rc: float, gamma: float = INFLATION_GAMMA
) -> np.ndarray:
    """Radius of the inflated cube surface at chunk angles (xi, eta).

    ``n = sqrt(1 + tan^2 xi + tan^2 eta)`` is the gnomonic stretch factor;
    a flat cube face lies at ``rc * n`` and the sphere at ``rc``.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    n = np.sqrt(1.0 + np.tan(xi) ** 2 + np.tan(eta) ** 2)
    return rc * (1.0 + gamma * (n - 1.0))


def map_cube_points(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    rc: float,
    gamma: float = INFLATION_GAMMA,
) -> np.ndarray:
    """Map parameter points (a, b, c) in [-1,1]^3 into the central cube.

    Vectorised over arbitrary broadcastable shapes; returns (..., 3)
    Cartesian coordinates in the same units as ``rc``.  The mapping is
    continuous across the concentric-cube kink planes and exactly matches
    :func:`cube_surface_radius` on the boundary m = 1, which is how the
    cube glues conformally to the six inner-core shell columns.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    a, b, c = np.broadcast_arrays(a, b, c)
    shape = a.shape
    p = np.stack([a.ravel(), b.ravel(), c.ravel()], axis=-1)
    if np.any(np.abs(p) > 1.0 + 1e-12):
        raise ValueError("cube parameters must lie in [-1, 1]^3")
    m = np.maximum(np.maximum(np.abs(p[:, 0]), np.abs(p[:, 1])), np.abs(p[:, 2]))
    # The centre (m = 0) maps to the origin; it is carried through with
    # m = 1 (u = 0) and zeroed at the end.
    centre = m == 0
    u = p / np.where(centre, 1.0, m)[:, None]
    # Choose the owning face: the chunk whose local +z projection of u is
    # largest (ties broken toward the lowest chunk index: the comparison
    # below only replaces on strict improvement).  The chunk rotations are
    # signed permutations, so ``u @ R`` is a gather and a sign.
    z = u[:, _COLUMN_OF[:, 2]] * _SIGN_OF[:, 2]  # (N, face)
    best_z = np.full(u.shape[0], -np.inf)
    best_face = np.zeros(u.shape[0], dtype=np.intp)
    for face in range(NCHUNKS):
        better = z[:, face] > best_z + 1e-12
        best_z = np.where(better, z[:, face], best_z)
        best_face[better] = face
    best_l = (
        np.take_along_axis(u, _COLUMN_OF[best_face, :2], axis=1)
        * _SIGN_OF[best_face, :2]
    )
    # Transverse parameters are scaled angles (equiangular convention).
    xi = best_l[:, 0] * (np.pi / 4.0)
    eta = best_l[:, 1] * (np.pi / 4.0)
    tx, ty = np.tan(xi), np.tan(eta)
    n = np.sqrt(1.0 + tx * tx + ty * ty)
    r_s = rc * (1.0 + gamma * (n - 1.0))
    d_local = np.stack([tx / n, ty / n, 1.0 / n], axis=-1)
    # Back to the global frame by each point's own face: d_local @ R.T.
    # Each entry is one exact product plus exact zeros, one of them
    # d_local[:, 2] * 0 = +0 where it is zero, so it has the per-face
    # product's bits however the sum is ordered.
    d_global = np.einsum("nk,njk->nj", d_local, _ROTATIONS[best_face])
    out = (m * r_s)[:, None] * d_global
    out[centre] = 0.0
    return out.reshape(*shape, 3)


def assign_cube_columns(
    nex_xi: int, nproc_xi: int, split_in_two: bool = True
) -> dict[tuple[int, int], list[tuple[int, int, int]]]:
    """Distribute the cube's (ia, ib, ic) elements to slices.

    The cube grid has ``nex_xi^3`` elements.  Legacy SPECFEM assigned the
    whole cube to the slices of chunk AB; the paper's optimisation *cuts
    the cube in two* so chunks AB and AB_ANTIPODE each carry one half
    (split across the equatorial plane c = 0) and the extra work per loaded
    slice halves.

    Returns a mapping ``(chunk, slice_rank_in_chunk) -> [(ia, ib, ic), ...]``
    where ``slice_rank_in_chunk = iproc_eta * nproc_xi + iproc_xi``.  Only
    chunks 0 (AB) and 3 (AB_ANTIPODE) ever appear.  Elements go to the
    slice whose angular footprint contains their (a, b) column, preserving
    locality with the shell columns above.
    """
    if nex_xi % nproc_xi != 0:
        raise ValueError("nex_xi must be divisible by nproc_xi")
    if nex_xi % 2 != 0:
        raise ValueError("nex_xi must be even to cut the cube in two")
    nex_per = nex_xi // nproc_xi
    out: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for ia in range(nex_xi):
        ip_xi = ia // nex_per
        for ib in range(nex_xi):
            ip_eta = ib // nex_per
            slice_rank = ip_eta * nproc_xi + ip_xi
            for ic in range(nex_xi):
                if split_in_two and ic < nex_xi // 2:
                    chunk = 3  # lower half -> antipodal polar chunk
                else:
                    chunk = 0
                out.setdefault((chunk, slice_rank), []).append((ia, ib, ic))
    return out
