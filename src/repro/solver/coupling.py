"""Displacement-based non-iterative solid-fluid coupling (CMB and ICB).

The paper lists "non-iterative coupling between fluid and solid based on
the displacement vector [4] instead of velocity" among the algorithmic
changes enabling peta-scalability.  With the fluid potential chi
(displacement ``s_f = (1/rho) grad chi``, pressure ``p = -chi_ddot``), the
surface terms of the two weak forms are:

* fluid equation:   + int_Gamma  w   (s_solid . n)  dS
* solid equation:   - int_Gamma  w_c n_c chi_ddot   dS

with n the unit normal pointing *out of the fluid*.  Updating the fluid
first (its surface term needs only the already-updated solid
*displacement*) and the solid second (its term uses the fresh
``chi_ddot``) makes the exchange explicit and single-pass — no iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mesh.interfaces import face_area_weights, face_values
from ..mesh.numbering import group_rows

__all__ = ["CouplingOperator", "build_coupling_operator"]


@dataclass
class CouplingOperator:
    """Pointwise-matched coupling data for one interface.

    All arrays share the leading (n_faces, n, n) face-grid layout of the
    fluid side; ``solid_ids`` holds, for each fluid face point, the global
    index of the *coincident* solid-region point.
    """

    radius: float
    fluid_ids: np.ndarray
    solid_ids: np.ndarray
    normals: np.ndarray  # (n_faces, n, n, 3), out of the fluid
    weights: np.ndarray  # (n_faces, n, n) area measures

    def add_fluid_coupling(
        self, chi_force: np.ndarray, solid_displ: np.ndarray
    ) -> None:
        """Add ``+ w (s_solid . n)`` to the assembled fluid force vector."""
        u_n = np.einsum(
            "fijc,fijc->fij", solid_displ[self.solid_ids], self.normals
        )
        np.add.at(chi_force, self.fluid_ids.ravel(), (self.weights * u_n).ravel())

    def add_solid_coupling(
        self, solid_force: np.ndarray, chi_ddot: np.ndarray
    ) -> None:
        """Add ``- w n chi_ddot`` to the assembled solid force vector."""
        contribution = (
            -(self.weights * chi_ddot[self.fluid_ids])[..., None] * self.normals
        )
        flat = contribution.reshape(-1, 3)
        ids = self.solid_ids.ravel()
        for c in range(3):
            np.add.at(solid_force[:, c], ids, flat[:, c])


def build_coupling_operator(
    fluid_xyz: np.ndarray,
    fluid_ibool: np.ndarray,
    fluid_faces: np.ndarray,
    solid_xyz: np.ndarray,
    solid_ibool: np.ndarray,
    solid_faces: np.ndarray,
    radius: float,
    weights_2d: np.ndarray,
    outward_from_fluid: float = 1.0,
) -> CouplingOperator:
    """Join the fluid and solid faces tiling one spherical interface.

    Fluid-side ids come directly from the face grids; the solid-side id of
    each fluid face point is that of the *coincident* solid face point,
    found by grouping the quantised coordinates of both sides (the two
    regions have independent numberings, and the face grids may disagree
    in orientation, so matching must be pointwise-geometric).  Normals are
    the exact radial directions (the CMB and ICB are spheres), oriented
    from fluid to solid (``outward_from_fluid=+1`` for the CMB where the
    solid is outside, ``-1`` for the ICB where the solid inner core is
    inside); the surface jacobian is computed from the face geometry
    spectrally, so ``weights`` are in squared mesh units.
    """
    tol = max(radius, 1.0) * 1e-8
    pts = face_values(fluid_xyz, fluid_faces)
    fluid_ids = face_values(fluid_ibool, fluid_faces)
    solid_flat = face_values(solid_ibool, solid_faces).ravel()
    keys = np.concatenate([
        face_values(solid_xyz, solid_faces).reshape(-1, 3),
        pts.reshape(-1, 3),
    ])
    first, group = group_rows(np.round(keys / tol).astype(np.int64))
    # A group's first row is its smallest row index and the solid rows
    # come first: a group holds a solid point iff its first row is one.
    partner = first[group[solid_flat.size:]]
    missing = np.flatnonzero(partner >= solid_flat.size)
    if missing.size:
        ispec, face_id = np.asarray(fluid_faces)[missing[0] // fluid_ids[0].size]
        raise ValueError(
            f"no solid point matches fluid coupling point at "
            f"r={radius}: face ({ispec}, {face_id})"
        )
    r = np.linalg.norm(pts, axis=-1, keepdims=True)
    return CouplingOperator(
        radius=radius,
        fluid_ids=fluid_ids,
        solid_ids=solid_flat[partner].reshape(fluid_ids.shape),
        normals=outward_from_fluid * pts / r,
        weights=face_area_weights(pts, weights_2d),
    )
