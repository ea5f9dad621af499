"""Mesh-determined solver artefacts, prepared once per mesh.

Everything :class:`~repro.solver.solver.GlobalSolver` derives from the
mesh alone — per region the element geometry (inverse Jacobians, Jacobian
weights), the diagonal mass and the transverse-isotropy frames; the
CMB/ICB coupling operators; the Courant bound ``min(dx / vp_max)``; and,
for the solvers that switch them on, the gravity profile and the ocean
load — has inputs that are all in the mesh cache key, so a second solver
on the same mesh would recompute it bit for bit.  :class:`PreparedMesh` holds those
artefacts as read-only arrays, each group filled lazily under one lock on
first use; a solver takes them from it and builds only what depends on
its events and its own parameters (sources, stations, fields, attenuation
state, step buffers).

Ownership keeps memory flat: a mesh that
:class:`~repro.campaign.mesh_cache.MeshCache` builds or reloads carries
an empty ``PreparedMesh`` (its ``prepared`` attribute) that its first
solver fills and every later solver reuses, until the cache evicts the
entry; a solver on any other mesh builds a private one that dies with it.
The mass held here is the bundle's own (unassembled across ranks): a
solver with a halo exchanger assembles a copy of it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Mapping

import numpy as np

from ..config import constants
from ..gll.lagrange import GLLBasis
from ..kernels.geometry import ElementGeometry, compute_geometry
from ..mesh.element import RegionMesh
from ..mesh.interfaces import external_faces, faces_at_radii, faces_at_radius
from ..mesh.quality import stable_time_step_bound
from ..model.prem import PREM, RegionCode
from .assembly import assemble_mass_matrix, assemble_scalar_mass_matrix
from .coupling import CouplingOperator, build_coupling_operator
from .oceans import OceanLoad, build_ocean_load

__all__ = [
    "LENGTH_SCALE",
    "PreparedMesh",
    "PreparedRegion",
    "deformed_surfaces",
    "surface_tolerance",
]

#: Metres per mesh coordinate unit (meshes are built in km).
LENGTH_SCALE = 1000.0


def deformed_surfaces(params) -> bool:
    """Whether meshes built with ``params`` have surfaces that deviate from
    exact spheres (both switches are mesh parameters)."""
    return bool(params.ellipticity or params.topography)


def surface_tolerance(deformed: bool) -> float:
    """Relative radius tolerance of the CMB/ICB/free-surface face searches.

    Ellipticity moves interfaces by ~0.3%; synthetic topography by up to
    ~0.2% near the surface.  2% stays well clear of layer thickness."""
    return 0.02 if deformed else 1e-6


def _frozen(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


@dataclass(frozen=True)
class PreparedRegion:
    """One region's mesh-determined factors (all arrays read-only).

    ``mass`` is the diagonal mass of this bundle's elements only — the
    solid ``rho J w`` or the fluid ``J w / kappa`` summed through ``ibool``
    — before any cross-rank assembly.  ``ti_frames`` are the radial frames
    of a transversely isotropic region, None otherwise.
    """

    geom: ElementGeometry
    mass: np.ndarray
    ti_frames: np.ndarray | None


def _prepare_region(mesh: RegionMesh, basis: GLLBasis) -> PreparedRegion:
    xyz_m = mesh.xyz * LENGTH_SCALE
    geom = compute_geometry(xyz_m, basis)
    if mesh.is_fluid:
        mass = assemble_scalar_mass_matrix(
            1.0 / mesh.kappa, geom, mesh.ibool, mesh.nglob
        )
    else:
        mass = assemble_mass_matrix(mesh.rho, geom, mesh.ibool, mesh.nglob)
    frames = None
    if mesh.ti_moduli is not None:
        from ..kernels.anisotropic import radial_frames

        frames = radial_frames(xyz_m)
        _frozen(frames)
    _frozen(geom.dxi_dx, geom.jacobian, geom.jweight, mass)
    return PreparedRegion(geom=geom, mass=mass, ti_frames=frames)


#: The solid-fluid interfaces: (radius, solid region, orientation of the
#: normal out of the fluid), CMB then ICB.
_INTERFACES = (
    (constants.R_CMB_KM, RegionCode.CRUST_MANTLE, +1.0),
    (constants.R_ICB_KM, RegionCode.INNER_CORE, -1.0),
)


def _prepare_couplings(
    meshes: Mapping[int, RegionMesh], deformed: bool, basis: GLLBasis
) -> tuple[tuple[int, CouplingOperator], ...]:
    fluid = [m for m in meshes.values() if m.is_fluid]
    if not fluid:
        return ()
    fl = fluid[0]
    w2 = np.outer(basis.weights, basis.weights)
    tol = surface_tolerance(deformed)
    interfaces = [i for i in _INTERFACES if i[1] in meshes]
    # One external-face pass per region: the fluid's faces and their radii
    # serve both joins.
    fluid_at = faces_at_radii(
        fl.xyz, external_faces(fl.ibool), [radius for radius, _, _ in interfaces],
        rel_tolerance=tol, radial_faces_only=deformed,
    )
    couplings = []
    for (radius_km, solid_code, orientation), fluid_faces in zip(interfaces, fluid_at):
        if not len(fluid_faces):
            continue
        sol = meshes[solid_code]
        solid_faces = faces_at_radius(
            sol.xyz, external_faces(sol.ibool), radius_km,
            rel_tolerance=tol, radial_faces_only=deformed,
        )
        op = build_coupling_operator(
            fl.xyz, fl.ibool, fluid_faces,
            sol.xyz, sol.ibool, solid_faces,
            radius_km, w2, outward_from_fluid=orientation,
        )
        # Convert area weights (km^2) to metres.
        op = replace(op, weights=op.weights * LENGTH_SCALE**2)
        _frozen(op.fluid_ids, op.solid_ids, op.normals, op.weights)
        couplings.append((solid_code, op))
    return tuple(couplings)


def _prepare_gravity(meshes: Mapping[int, RegionMesh]) -> Mapping[int, np.ndarray]:
    radii = np.linspace(0, constants.R_EARTH_KM, 200)
    profile = [PREM.gravity(float(r)) for r in radii]
    gravity = {}
    for code, mesh in meshes.items():
        if not mesh.is_fluid:
            gravity[code] = np.interp(np.linalg.norm(mesh.xyz, axis=-1), radii, profile)
            _frozen(gravity[code])
    return MappingProxyType(gravity)


def _prepare_ocean_load(
    meshes: Mapping[int, RegionMesh], deformed: bool, basis: GLLBasis
) -> OceanLoad | None:
    cm = meshes.get(RegionCode.CRUST_MANTLE)
    if cm is None:
        return None
    surf = faces_at_radius(
        cm.xyz, external_faces(cm.ibool), constants.R_EARTH_KM,
        rel_tolerance=surface_tolerance(deformed), radial_faces_only=deformed,
    )
    w2 = np.outer(basis.weights, basis.weights)
    load = build_ocean_load(surf, cm.xyz, cm.ibool, w2, length_scale=LENGTH_SCALE)
    _frozen(load.point_ids, load.normals, load.ocean_mass)
    return load


class PreparedMesh:
    """The mesh-determined artefacts of one mesh bundle, filled on demand.

    ``regions`` is the bundle's ``{code: RegionMesh}`` and ``deformed``
    whether its surfaces deviate from spheres (ellipticity or topography,
    both mesh parameters): the two inputs of every artefact.  Nothing a
    solver chooses for itself (time step, Courant number, attenuation,
    record length, events) enters, so one instance serves every solver
    on the mesh.  Each accessor fills its group once, under the
    instance's lock, and returns the same read-only objects thereafter;
    a group no solver asks for (gravity, ocean load, the Courant bound of
    a rank handed the global time step) is never built.
    """

    __slots__ = ("_meshes", "deformed", "_lock", "_filled", "__weakref__")

    def __init__(self, regions: Mapping[int, RegionMesh], deformed: bool):
        self._meshes = regions
        self.deformed = bool(deformed)
        self._lock = threading.Lock()
        self._filled: dict[str, object] = {}

    def serves(self, mesh_bundle, deformed: bool) -> bool:
        """Whether this instance was prepared for exactly these inputs."""
        return self._meshes is mesh_bundle.regions and self.deformed == bool(deformed)

    def _once(self, group: str, build):
        try:
            return self._filled[group]
        except KeyError:
            with self._lock:
                if group not in self._filled:
                    self._filled[group] = build()
                return self._filled[group]

    @property
    def regions(self) -> Mapping[int, PreparedRegion]:
        """``{code: PreparedRegion}`` in the bundle's region order."""
        def build():
            basis = GLLBasis(constants.NGLLX)
            return MappingProxyType({
                code: _prepare_region(mesh, basis)
                for code, mesh in self._meshes.items()
            })

        return self._once("regions", build)

    @property
    def couplings(self) -> tuple[tuple[int, CouplingOperator], ...]:
        """``(solid_code, operator)`` per solid-fluid interface (CMB, then
        ICB) present in the bundle; empty without a fluid region."""
        return self._once(
            "couplings",
            lambda: _prepare_couplings(
                self._meshes, self.deformed, GLLBasis(constants.NGLLX)
            ),
        )

    @property
    def dt_bound(self) -> float:
        """``min(dx / vp_max)`` over the bundle, in seconds: the stable time
        step is this times the Courant number
        (:func:`~repro.mesh.quality.estimate_time_step`'s arithmetic)."""
        return self._once(
            "dt_bound",
            lambda: stable_time_step_bound(
                list(self._meshes.values()), length_scale=LENGTH_SCALE
            ),
        )

    @property
    def gravity(self) -> Mapping[int, np.ndarray]:
        """Per solid region, PREM's gravity ``g(r)`` (m/s^2) at every GLL
        point: the input of the Cowling self-gravitation term."""
        return self._once("gravity", lambda: _prepare_gravity(self._meshes))

    @property
    def ocean_load(self) -> OceanLoad | None:
        """The ocean load on the crust/mantle free surface (None without
        that region)."""
        return self._once(
            "ocean_load",
            lambda: _prepare_ocean_load(
                self._meshes, self.deformed, GLLBasis(constants.NGLLX)
            ),
        )
