"""Cartesian box meshes — the correctness anchor for the SEM machinery.

The globe solver's kernels, assembly, and time scheme are validated here
against problems with exact solutions (Section 3 of the paper describes
the equivalent practice of benchmarking SPECFEM against semi-analytical
normal-mode seismograms).  A box of brick elements supports:

* free (natural) boundaries — standing acoustic/elastic modes;
* periodic boundaries — travelling plane waves (the cleanest dispersion
  and convergence measurements), implemented by wrapping coordinates
  before global numbering so opposite faces share degrees of freedom.

A :class:`BoxMesh` is a mesh bundle, so it runs on
:class:`~repro.solver.GlobalSolver` like the globe does.  Its units are
the globe's: coordinates in km, speeds in km/s, so its one region holds
SI moduli (``mu = rho (1000 vs)^2``) and times and displacements keep
their box values, while masses, stiffnesses and forces are
``LENGTH_SCALE**3`` times the box-unit ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gll.quadrature import gll_points_and_weights
from ..mesh.element import RegionMesh
from ..mesh.numbering import build_global_numbering
from ..model.prem import RegionCode
from ..solver.prepared import LENGTH_SCALE

__all__ = ["BoxMesh", "build_box_mesh"]


@dataclass
class BoxMesh:
    """A structured box of spectral elements, one region of a bundle.

    ``mesh`` holds the GLL coordinates (nspec, n, n, n, 3), the global
    numbering (with periodic identification when requested) and SI
    materials: a crust/mantle (solid) region, or an outer-core (fluid)
    one when ``vs == 0``.  ``rho``, ``vp``, ``vs`` are the homogeneous
    box-unit values it was built from.
    """

    lengths: tuple[float, float, float]
    n_elements: tuple[int, int, int]
    mesh: RegionMesh
    periodic: bool
    rho: float
    vp: float
    vs: float

    @property
    def regions(self) -> dict[int, RegionMesh]:
        return {self.mesh.region: self.mesh}

    @property
    def xyz(self) -> np.ndarray:
        return self.mesh.xyz

    @property
    def ibool(self) -> np.ndarray:
        return self.mesh.ibool

    @property
    def nglob(self) -> int:
        return self.mesh.nglob

    @property
    def nspec(self) -> int:
        return self.mesh.nspec

    def material_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Box-unit (rho, lambda, mu) arrays at every GLL point."""
        shape = self.xyz.shape[:-1]
        rho = np.full(shape, self.rho)
        mu = np.full(shape, self.rho * self.vs**2)
        lam = np.full(shape, self.rho * self.vp**2 - 2.0 * self.rho * self.vs**2)
        return rho, lam, mu


def build_box_mesh(
    n_elements: tuple[int, int, int] = (4, 4, 4),
    lengths: tuple[float, float, float] = (1.0, 1.0, 1.0),
    ngll: int = 5,
    periodic: bool = False,
    rho: float = 1.0,
    vp: float = 1.732050807568877,
    vs: float = 1.0,
) -> BoxMesh:
    """Build a structured box mesh with optional periodic topology."""
    nx, ny, nz = n_elements
    lx, ly, lz = lengths
    if min(nx, ny, nz) < 1 or min(lx, ly, lz) <= 0:
        raise ValueError("element counts must be >= 1 and lengths positive")
    if vs < 0 or vp <= 0 or rho <= 0:
        raise ValueError("material parameters must be positive (vs may be 0)")
    nodes, _ = gll_points_and_weights(ngll)
    t = 0.5 * (nodes + 1.0)
    elems = []
    for kz in range(nz):
        for ky in range(ny):
            for kx in range(nx):
                X = (kx + t[:, None, None]) * lx / nx
                Y = (ky + t[None, :, None]) * ly / ny
                Z = (kz + t[None, None, :]) * lz / nz
                X, Y, Z = np.broadcast_arrays(X, Y, Z)
                elems.append(np.stack([X, Y, Z], axis=-1))
    xyz = np.asarray(elems)
    if periodic:
        # Identify x = L with x = 0 (each axis) by wrapping coordinates
        # before numbering; geometry keeps the unwrapped coordinates.
        wrapped = xyz.copy()
        for axis, length in enumerate((lx, ly, lz)):
            w = wrapped[..., axis]
            w[np.isclose(w, length, atol=1e-12 * max(length, 1.0))] = 0.0
        ibool, nglob = build_global_numbering(wrapped)
    else:
        ibool, nglob = build_global_numbering(xyz)
    shape = xyz.shape[:-1]
    mu = rho * (LENGTH_SCALE * vs) ** 2
    region = RegionMesh(
        region=RegionCode.OUTER_CORE if vs == 0 else RegionCode.CRUST_MANTLE,
        xyz=xyz,
        ibool=ibool,
        nglob=nglob,
        rho=np.full(shape, rho),
        kappa=np.full(shape, rho * (LENGTH_SCALE * vp) ** 2 - (4.0 / 3.0) * mu),
        mu=np.full(shape, mu),
    )
    return BoxMesh(
        lengths=(lx, ly, lz),
        n_elements=(nx, ny, nz),
        mesh=region,
        periodic=periodic,
        rho=rho,
        vp=vp,
        vs=vs,
    )
