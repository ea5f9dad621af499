"""Mesh containers: per-region spectral-element arrays and the slice bundle.

Array conventions follow SPECFEM3D_GLOBE:

* per-element GLL arrays have shape ``(nspec, n, n, n[, ...])`` with the
  three local axes ordered (xi, eta, gamma) and gamma increasing with
  radius for shell elements;
* ``ibool`` maps local points to 0-based global indices within one region
  of one slice;
* coordinates are stored in km throughout the mesh stage (the solver
  non-dimensionalises on ingest).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..model.prem import RegionCode

__all__ = ["RegionMesh", "SliceMesh"]


@dataclass
class RegionMesh:
    """Spectral-element mesh of one region (crust/mantle, outer core, inner core).

    Attributes
    ----------
    region : RegionCode constant
    xyz : (nspec, n, n, n, 3) GLL coordinates in km
    ibool : (nspec, n, n, n) global point indices, 0-based
    nglob : number of distinct global points
    rho, kappa, mu : (nspec, n, n, n) material fields in SI units
    q_mu : (nspec, n, n, n) shear quality factor (finite everywhere solid)
    """

    region: int
    xyz: np.ndarray
    ibool: np.ndarray
    nglob: int
    rho: np.ndarray | None = None
    kappa: np.ndarray | None = None
    mu: np.ndarray | None = None
    q_mu: np.ndarray | None = None
    #: Optional transversely-isotropic moduli (a
    #: :class:`repro.kernels.anisotropic.TIModuli`); None = isotropic.
    ti_moduli: object | None = None
    #: Override of the fluid flag (used by non-PREM material models, e.g.
    #: the homogeneous solid sphere of the normal-mode validation).
    fluid_override: bool | None = None

    def __post_init__(self) -> None:
        if self.xyz.ndim != 5 or self.xyz.shape[-1] != 3:
            raise ValueError(f"xyz must be (nspec,n,n,n,3), got {self.xyz.shape}")
        if self.ibool.shape != self.xyz.shape[:-1]:
            raise ValueError(
                f"ibool shape {self.ibool.shape} does not match xyz {self.xyz.shape}"
            )
        if self.region not in RegionCode.NAMES:
            raise ValueError(f"unknown region {self.region}")

    @property
    def nspec(self) -> int:
        return self.xyz.shape[0]

    @property
    def ngll(self) -> int:
        return self.xyz.shape[1]

    @property
    def is_fluid(self) -> bool:
        if self.fluid_override is not None:
            return self.fluid_override
        return self.region == RegionCode.OUTER_CORE

    @property
    def has_materials(self) -> bool:
        return self.rho is not None

    def radii(self) -> np.ndarray:
        """Geocentric radius (km) of every GLL point, shape (nspec, n, n, n)."""
        return np.linalg.norm(self.xyz, axis=-1)

    def global_coordinates(self) -> np.ndarray:
        """(nglob, 3) coordinates of the distinct global points."""
        out = np.empty((self.nglob, 3))
        out[self.ibool.ravel()] = self.xyz.reshape(-1, 3)
        return out

    def memory_bytes(self) -> int:
        """Approximate resident size of the mesh arrays (disk-model input)."""
        total = self.xyz.nbytes + self.ibool.nbytes
        for arr in (self.rho, self.kappa, self.mu, self.q_mu):
            if arr is not None:
                total += arr.nbytes
        return total


@dataclass
class SliceMesh:
    """Everything one MPI process owns: the three region meshes plus metadata.

    ``chunk``/``iproc_xi``/``iproc_eta`` locate the slice in the
    6 x NPROC_XI^2 decomposition; ``cube_elements`` counts how many of the
    inner-core region's elements came from the central cube.  The mesher
    appends them after the shell elements, but a distributed world
    reorders every slice boundary-first
    (:func:`repro.mesh.partition.boundary_first`), so no position in the
    element list identifies them.
    """

    chunk: int
    iproc_xi: int
    iproc_eta: int
    regions: dict[int, RegionMesh] = field(default_factory=dict)
    cube_elements: int = 0

    @property
    def nspec_total(self) -> int:
        return sum(r.nspec for r in self.regions.values())

    @property
    def nglob_total(self) -> int:
        return sum(r.nglob for r in self.regions.values())

    def memory_bytes(self) -> int:
        return sum(r.memory_bytes() for r in self.regions.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        per_region = {
            RegionCode.NAMES[r.region]: r.nspec for r in self.regions.values()
        }
        return (
            f"SliceMesh(chunk={self.chunk}, ixi={self.iproc_xi}, "
            f"ieta={self.iproc_eta}, nspec={per_region})"
        )
