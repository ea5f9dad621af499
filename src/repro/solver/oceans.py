"""Ocean load approximation on the free surface.

SPECFEM3D_GLOBE does not mesh the 3-km PREM ocean; instead the water
column's inertia is added as an equivalent surface load: the normal
component of the surface acceleration feels an extra mass
``rho_water * h_water`` per unit area.  After the solid update the
correction is

    a <- a - (m_w / (M + m_w)) (a . n) n        per free-surface point,

where ``m_w`` is the assembled ocean mass at that point and M the solid
mass matrix entry — equivalent to solving with the ocean-augmented mass on
the normal component only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import constants
from ..mesh.interfaces import face_area_weights, face_values

__all__ = ["OceanLoad", "build_ocean_load"]


@dataclass
class OceanLoad:
    """Assembled ocean-load data on the free surface of the crust/mantle."""

    point_ids: np.ndarray  # (npoints,) global indices (unique)
    normals: np.ndarray  # (npoints, 3) outward unit normals
    ocean_mass: np.ndarray  # (npoints,) rho_w * h * assembled area

    def apply(self, accel: np.ndarray, mass: np.ndarray) -> None:
        """Correct the normal acceleration component of (nglob, 3) in place."""
        factor = self.ocean_mass / (mass[self.point_ids] + self.ocean_mass)
        a = accel[self.point_ids]
        a_n = np.einsum("pc,pc->p", a, self.normals)
        accel[self.point_ids] = a - (factor * a_n)[:, None] * self.normals


def build_ocean_load(
    surface_faces: np.ndarray,
    xyz: np.ndarray,
    ibool: np.ndarray,
    weights_2d: np.ndarray,
    water_depth_m: float = 3000.0,
    rho_water: float = constants.RHO_OCEAN,
    length_scale: float = 1000.0,
) -> OceanLoad:
    """Assemble the ocean load over the free-surface faces.

    ``length_scale`` converts mesh coordinates (km) to metres so the
    assembled mass is in kg.  A uniform water depth stands in for real
    bathymetry (the code path — per-point loads and normal projection — is
    identical).
    """
    if water_depth_m < 0:
        raise ValueError("water depth must be non-negative")
    nglob = int(ibool.max()) + 1
    mass_at = np.zeros(nglob)
    normal_at = np.zeros((nglob, 3))
    # One unbuffered add over all faces in face order: the same sequence of
    # additions as a face-by-face assembly.
    pts = face_values(xyz, surface_faces)
    ids = face_values(ibool, surface_faces).ravel()
    area_w = face_area_weights(pts, weights_2d) * length_scale**2
    r = np.linalg.norm(pts, axis=-1, keepdims=True)
    np.add.at(mass_at, ids, (rho_water * water_depth_m * area_w).ravel())
    np.add.at(normal_at, ids, (pts / r).reshape(-1, 3))
    loaded = np.flatnonzero(mass_at > 0)
    normals = normal_at[loaded]
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return OceanLoad(
        point_ids=loaded,
        normals=normals,
        ocean_mass=mass_at[loaded],
    )
