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

from ..mesh.interfaces import FACE_SLICES, CouplingSurface

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
    surface: CouplingSurface,
    fluid_ibool: np.ndarray,
    fluid_xyz: np.ndarray,
    solid_ibool: np.ndarray,
    solid_xyz: np.ndarray,
) -> CouplingOperator:
    """Resolve a geometric :class:`CouplingSurface` into global indices.

    Fluid-side ids come directly from the face slices; solid-side ids are
    found by coordinate matching against the solid faces (the two regions
    have independent numberings, and the face grids may disagree in
    orientation, so matching must be pointwise-geometric).
    """
    tol = max(surface.radius, 1.0) * 1e-8
    # Hash all solid points on the matched solid faces.
    solid_lookup: dict[tuple[int, int, int], int] = {}
    for ispec, face_id in surface.solid_faces:
        ids = solid_ibool[(ispec, *FACE_SLICES[face_id])]
        pts = solid_xyz[(ispec, *FACE_SLICES[face_id])]
        q = np.round(pts / tol).astype(np.int64)
        for key, gid in zip(map(tuple, q.reshape(-1, 3)), ids.ravel()):
            solid_lookup[key] = int(gid)
    fluid_ids = []
    solid_ids = []
    for ispec, face_id in surface.fluid_faces:
        f_ids = fluid_ibool[(ispec, *FACE_SLICES[face_id])]
        pts = fluid_xyz[(ispec, *FACE_SLICES[face_id])]
        q = np.round(pts / tol).astype(np.int64)
        s_ids = np.empty_like(f_ids)
        flat_keys = list(map(tuple, q.reshape(-1, 3)))
        for pos, key in enumerate(flat_keys):
            if key not in solid_lookup:
                raise ValueError(
                    f"no solid point matches fluid coupling point at "
                    f"r={surface.radius}: face ({ispec}, {face_id})"
                )
            s_ids.ravel()[pos] = solid_lookup[key]
        fluid_ids.append(f_ids)
        solid_ids.append(s_ids)
    return CouplingOperator(
        radius=surface.radius,
        fluid_ids=np.asarray(fluid_ids),
        solid_ids=np.asarray(solid_ids),
        normals=surface.normals,
        weights=surface.weights,
    )
