"""Mesh surface extraction: external faces, coupling and free surfaces.

The solver needs three kinds of surface information from the mesher:

* the *free surface* (for the ocean load),
* the *solid-fluid coupling surfaces* at the CMB and ICB, where the
  displacement-based non-iterative coupling exchanges normal displacement
  and pressure between regions,
* the *slice boundary* points participating in MPI halo assembly.

All are derived generically from the face-incidence structure of ``ibool``:
a face whose sorted global-point signature occurs exactly once in a region
mesh is external; classifying external faces by radius then yields the
physical surfaces.
"""

from __future__ import annotations

import numpy as np

from .numbering import group_rows

__all__ = [
    "FACE_SLICES",
    "face_points",
    "face_values",
    "external_faces",
    "faces_at_radius",
    "face_area_weights",
]

#: Index expressions selecting the 2-D GLL grid of each local face of a
#: (n, n, n) element array. Face ids: 0/1 -> xi min/max, 2/3 -> eta min/max,
#: 4/5 -> gamma (radial) min/max.
FACE_SLICES = (
    (0, slice(None), slice(None)),
    (-1, slice(None), slice(None)),
    (slice(None), 0, slice(None)),
    (slice(None), -1, slice(None)),
    (slice(None), slice(None), 0),
    (slice(None), slice(None), -1),
)


def face_points(array: np.ndarray, ispec: int, face_id: int) -> np.ndarray:
    """Extract one face's (n, n[, extra]) values from a per-element array."""
    if not 0 <= face_id < 6:
        raise ValueError(f"face_id must be 0..5, got {face_id}")
    return array[(ispec, *FACE_SLICES[face_id])]


def face_values(array: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Gather every face's (n, n[, extra]) values from a per-element array.

    ``faces`` is a face set — ``(N, 2)`` rows of ``(ispec, face_id)`` — and
    the result is ``(N, n, n[, extra])`` in the same row order.
    """
    faces = np.asarray(faces, dtype=np.intp).reshape(-1, 2)
    n = array.shape[1]
    out = np.empty((len(faces), n, n, *array.shape[4:]), dtype=array.dtype)
    for face_id, face in enumerate(FACE_SLICES):
        rows = np.flatnonzero(faces[:, 1] == face_id)
        out[rows] = array[(faces[rows, 0], *face)]
    return out


def external_faces(ibool: np.ndarray) -> np.ndarray:
    """All (ispec, face_id) pairs whose face is not shared by two elements.

    Returns the face set as ``(N, 2)`` ``intp`` rows in ascending
    ``(ispec, face_id)`` order.  Faces are identified by the sorted ids of
    their four corner global points — sufficient because two distinct
    conforming faces cannot share all four corners — and a face is
    external when its signature occurs once.
    """
    nspec, n = ibool.shape[0], ibool.shape[1]
    corners = ibool[:, :: n - 1, :: n - 1, :: n - 1]
    signatures = np.sort(
        np.stack(
            [corners[(slice(None), *face)].reshape(nspec, 4) for face in FACE_SLICES],
            axis=1,
        ),
        axis=-1,
    ).reshape(-1, 4)
    _, group = group_rows(signatures)
    external = np.flatnonzero(np.bincount(group)[group] == 1)
    return np.stack([external // 6, external % 6], axis=1)


def faces_at_radius(
    xyz: np.ndarray,
    faces: np.ndarray,
    radius: float,
    rel_tolerance: float = 1e-6,
    radial_faces_only: bool = False,
) -> np.ndarray:
    """Filter external faces to those lying (entirely) on a given radius.

    With ellipticity or topography the physical surfaces are no longer
    exact spheres: pass a loose ``rel_tolerance`` (~1-2%) *and*
    ``radial_faces_only=True`` so that only the bottom/top (gamma) faces of
    shell elements qualify — side faces of thin layers would otherwise
    slip inside the loosened radius band.
    """
    faces = np.asarray(faces, dtype=np.intp).reshape(-1, 2)
    if radial_faces_only:
        faces = faces[faces[:, 1] >= 4]
    r = np.linalg.norm(face_values(xyz, faces), axis=-1)
    return faces[np.all(np.abs(r - radius) < radius * rel_tolerance, axis=(1, 2))]


def face_area_weights(
    face_xyz: np.ndarray, weights_2d: np.ndarray
) -> np.ndarray:
    """Surface quadrature weights w_i w_j |x_,u x x_,v| of curved faces.

    ``face_xyz`` is one face ``(n, n, 3)`` or a batch ``(N, n, n, 3)``.
    The 2-D jacobian is computed spectrally: the face coordinates are a
    degree-(n-1) Lagrange interpolant on the face GLL grid, so their
    parametric derivatives are exact matrix products with ``hprime``.
    Used by the coupling surfaces, the ocean load, and the Stacey
    absorbing boundaries.
    """
    from ..gll.lagrange import derivative_matrix

    h = derivative_matrix(face_xyz.shape[-2])
    # d(xyz)/du at all face points: contract along the first face axis;
    # d/dv along the second.
    dxdu = np.einsum("iu,...ujc->...ijc", h, face_xyz)
    dxdv = np.einsum("jv,...ivc->...ijc", h, face_xyz)
    cross = np.cross(dxdu, dxdv)
    jac2d = np.linalg.norm(cross, axis=-1)
    return weights_2d * jac2d
