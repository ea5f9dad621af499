"""Regional (single-chunk) meshes.

SPECFEM3D_GLOBE's mesher "is designed to generate a spectral-element mesh
for either regional or entire globe simulations" (paper Section 3), and
Figure 1 shows the artificial absorbing boundary Gamma introduced "if the
physical model is not of finite size".  A regional mesh is one cubed-
sphere chunk truncated at depth: free surface on top, absorbing (Stacey)
conditions on the four sides and the bottom.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import constants
from ..config.parameters import SimulationParameters
from ..cubed_sphere.mapping import chunk_points
from ..cubed_sphere.topology import SliceAddress, SliceGrid
from ..gll.quadrature import gll_points_and_weights
from ..mesh.element import RegionMesh
from ..mesh.interfaces import external_faces, face_values
from ..mesh.mesher import assign_materials
from ..mesh.numbering import build_global_numbering
from ..mesh.radial import radial_breaks_between_km
from ..model.prem import RegionCode

__all__ = ["RegionalMesh", "build_regional_mesh"]


@dataclass
class RegionalMesh:
    """One chunk's truncated mesh plus its classified boundary faces.

    A mesh bundle: :class:`~repro.solver.GlobalSolver` runs it, applying
    the Stacey boundary on ``absorbing_faces``.  A copy with none of them
    (``dataclasses.replace(regional, absorbing_faces=
    regional.absorbing_faces[:0])``) is the rigid-boundary run.
    """

    mesh: RegionMesh
    chunk: int
    depth_km: float
    #: Face sets: (N, 2) rows of (ispec, face_id).
    free_surface_faces: np.ndarray
    absorbing_faces: np.ndarray

    @property
    def regions(self) -> dict[int, RegionMesh]:
        return {RegionCode.CRUST_MANTLE: self.mesh}

    @property
    def nspec(self) -> int:
        return self.mesh.nspec


def build_regional_mesh(
    params: SimulationParameters,
    chunk: int = 0,
    depth_km: float = 600.0,
    address: SliceAddress | None = None,
) -> RegionalMesh:
    """Mesh one chunk of the globe from the surface down to ``depth_km``.

    Uses the same gnomonic geometry, radial layering (honouring the PREM
    discontinuities inside the depth range), numbering, and material
    assignment as the global mesher; classifies the external faces into
    the free surface (top) and the absorbing surfaces (sides + bottom).
    """
    if not 10.0 <= depth_km < constants.R_EARTH_KM - constants.R_CMB_KM:
        raise ValueError(
            f"regional depth must be within the mantle, got {depth_km} km"
        )
    if address is None:
        address = SliceAddress(chunk, 0, 0)
    ngll = constants.NGLLX
    grid = SliceGrid(params.nproc_xi)
    nex_per = params.nex_per_slice
    xi_bounds, eta_bounds = grid.slice_coordinates_1d(address, nex_per)
    bottom = constants.R_EARTH_KM - depth_km
    breaks = radial_breaks_between_km(bottom, constants.R_EARTH_KM,
                                      params.ner_crust_mantle)
    ref, _ = gll_points_and_weights(ngll)

    def cell_gll(bounds: np.ndarray) -> np.ndarray:
        lo = bounds[:-1, None]
        hi = bounds[1:, None]
        return 0.5 * ((hi - lo) * ref[None, :] + (hi + lo))

    xi_gll = cell_gll(xi_bounds)
    eta_gll = cell_gll(eta_bounds)
    r_gll = cell_gll(breaks)
    n_layers = breaks.size - 1
    XI = xi_gll[None, None, :, :, None, None]
    ETA = eta_gll[None, :, None, None, :, None]
    R = r_gll[:, None, None, None, None, :]
    XI, ETA, R = np.broadcast_arrays(
        XI, ETA, np.broadcast_to(R, (n_layers, nex_per, nex_per, ngll, ngll, ngll))
    )
    pts = chunk_points(address.chunk, XI, ETA, R)
    xyz = pts.reshape(-1, ngll, ngll, ngll, 3)
    ibool, nglob = build_global_numbering(xyz)
    mesh = RegionMesh(
        region=RegionCode.CRUST_MANTLE, xyz=xyz, ibool=ibool, nglob=nglob
    )
    assign_materials(mesh, params)

    faces = external_faces(ibool)
    r = np.linalg.norm(face_values(xyz, faces), axis=-1)
    surface_tol = 1e-6 * constants.R_EARTH_KM
    on_surface = np.all(np.abs(r - constants.R_EARTH_KM) < surface_tol, axis=(1, 2))
    return RegionalMesh(
        mesh=mesh,
        chunk=address.chunk,
        depth_km=depth_km,
        free_surface_faces=faces[on_surface],
        absorbing_faces=faces[~on_surface],
    )
