"""Stacey (Clayton-Engquist) absorbing boundary conditions.

The artificial boundary Gamma of the paper's Figure 1: first-order
paraxial absorption applies the traction

    t = -rho * [ vp (v . n) n + vs (v - (v . n) n) ]

on the truncation surfaces, which exactly absorbs normally-incident plane
P and S waves and strongly damps oblique ones.  Implemented as a
velocity-proportional surface force assembled with the face quadrature.
:class:`~repro.solver.GlobalSolver` adds it to every step's solid force
when its mesh bundle carries ``absorbing_faces`` (SPECFEM's
``compute_stacey_*`` routines, which also live in the solver).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gll.lagrange import GLLBasis
from ..mesh.element import RegionMesh
from ..mesh.interfaces import face_area_weights, face_values

__all__ = ["StaceyBoundary", "build_stacey_boundary"]


@dataclass
class StaceyBoundary:
    """Precomputed absorbing-surface data.

    Flattened over all boundary GLL points (duplicates across touching
    faces are kept — the surface integral is additive over faces):
    ``ids`` global indices, ``normals`` outward unit normals, and the
    impedance-scaled quadrature weights ``w_p = rho vp dS`` and
    ``w_s = rho vs dS``.
    """

    ids: np.ndarray
    normals: np.ndarray
    weight_p: np.ndarray
    weight_s: np.ndarray

    def apply(self, force: np.ndarray, veloc: np.ndarray) -> None:
        """Subtract the absorbing tractions from the assembled force."""
        v = veloc[self.ids]
        v_n = np.einsum("pc,pc->p", v, self.normals)
        normal_part = v_n[:, None] * self.normals
        tangential = v - normal_part
        traction = (
            self.weight_p[:, None] * normal_part
            + self.weight_s[:, None] * tangential
        )
        np.add.at(force[:, 0], self.ids, -traction[:, 0])
        np.add.at(force[:, 1], self.ids, -traction[:, 1])
        np.add.at(force[:, 2], self.ids, -traction[:, 2])


def _outward_normals(
    face_xyz: np.ndarray, face_id, basis: GLLBasis
) -> np.ndarray:
    """Unit normals of faces, oriented outward from their elements.

    One face ``(n, n, 3)`` with its id, or a batch ``(N, n, n, 3)`` with
    ``(N,)`` ids.  The cross product of the two in-face tangents gives a
    normal whose orientation depends on the face's parametric handedness.
    Face (u, v) orderings: for ids 0/1 the in-face axes are (eta, gamma);
    for 2/3 (xi, gamma); for 4/5 (xi, eta).  Their cross products point
    along +xi, -eta (a (xi, gamma) cross in the right-handed (xi, eta,
    gamma) frame) and +gamma respectively, so the minus faces 0 and 4 and
    the plus face 3 need a sign flip.
    """
    h = basis.hprime
    dxdu = np.einsum("iu,...ujc->...ijc", h, face_xyz)
    dxdv = np.einsum("jv,...ivc->...ijc", h, face_xyz)
    normal = np.cross(dxdu, dxdv)
    normal /= np.linalg.norm(normal, axis=-1, keepdims=True)
    sign = np.where(np.isin(face_id, (0, 3, 4)), -1.0, 1.0)
    return normal * sign[..., None, None, None]


def build_stacey_boundary(
    mesh: RegionMesh,
    faces: np.ndarray,
    basis: GLLBasis,
    length_scale: float = 1000.0,
) -> StaceyBoundary:
    """Assemble the Stacey data over the given (ispec, face_id) faces.

    ``length_scale`` converts mesh km to metres so the impedances
    (rho * v in SI) match the solver's unit system.
    """
    if not mesh.has_materials:
        raise ValueError("materials must be assigned before Stacey setup")
    faces = np.asarray(faces, dtype=np.intp).reshape(-1, 2)
    if not len(faces):
        raise ValueError("no absorbing faces supplied")
    w2 = np.outer(basis.weights, basis.weights)
    vp_field = np.sqrt((mesh.kappa + 4.0 / 3.0 * mesh.mu) / mesh.rho)
    vs_field = np.sqrt(mesh.mu / mesh.rho)
    face_xyz = face_values(mesh.xyz, faces) * length_scale
    area = face_area_weights(face_xyz, w2)
    rho = face_values(mesh.rho, faces)
    return StaceyBoundary(
        ids=face_values(mesh.ibool, faces).ravel(),
        normals=_outward_normals(face_xyz, faces[:, 1], basis).reshape(-1, 3),
        weight_p=(rho * face_values(vp_field, faces) * area).ravel(),
        weight_s=(rho * face_values(vs_field, faces) * area).ravel(),
    )
