"""Lightweight Cartesian SEM solvers (elastic and acoustic) for validation.

These reuse the production kernels, assembly, and Newmark scheme on a
:class:`~repro.cartesian.box.BoxMesh`, providing a minimal harness for the
analytic-solution convergence and conservation tests in the test suite and
the V-SEM validation benchmark.
"""

from __future__ import annotations

import numpy as np

from ..gll.lagrange import GLLBasis
from ..kernels.acoustic import compute_forces_acoustic
from ..kernels.elastic import compute_forces_elastic
from ..kernels.geometry import compute_geometry
from ..solver import newmark
from ..solver.assembly import (
    assemble_mass_matrix,
    assemble_scalar_mass_matrix,
    gather,
    scatter_add,
)
from .box import BoxMesh

__all__ = ["CartesianElasticSolver", "CartesianAcousticSolver"]


class CartesianElasticSolver:
    """Explicit elastic SEM on a box: ``M u'' = -K u``."""

    def __init__(self, mesh: BoxMesh, courant: float = 0.4):
        self.mesh = mesh
        self.basis = GLLBasis(mesh.ngll)
        self.geom = compute_geometry(mesh.xyz, self.basis)
        self.rho, self.lam, self.mu = mesh.material_arrays()
        self.mass = assemble_mass_matrix(
            self.rho, self.geom, mesh.ibool, mesh.nglob
        )
        dx_min = self._min_gll_spacing()
        self.dt = courant * dx_min / mesh.vp
        self.displ = np.zeros((mesh.nglob, 3))
        self.veloc = np.zeros((mesh.nglob, 3))
        self.accel = np.zeros((mesh.nglob, 3))

    def _min_gll_spacing(self) -> float:
        xyz = self.mesh.xyz
        d = min(
            float(np.linalg.norm(np.diff(xyz, axis=a), axis=-1).min())
            for a in (1, 2, 3)
        )
        return d

    def set_initial_condition(
        self, displ_of_x, veloc_of_x=None
    ) -> None:
        """Set u(x, 0) (and optionally v(x, 0)) from callables of (nglob, 3) coords."""
        coords = np.empty((self.mesh.nglob, 3))
        coords[self.mesh.ibool.ravel()] = self.mesh.xyz.reshape(-1, 3)
        self.displ[:] = displ_of_x(coords)
        if veloc_of_x is not None:
            self.veloc[:] = veloc_of_x(coords)
        # Consistent initial acceleration: a0 = M^-1 (-K u0). Starting from
        # a = 0 would inject a one-time O(omega dt / 2) velocity error.
        u_local = gather(self.displ, self.mesh.ibool)
        force_local = compute_forces_elastic(
            u_local, self.geom, self.lam, self.mu, self.basis
        )
        force = scatter_add(force_local, self.mesh.ibool, self.mesh.nglob)
        self.accel[:] = force / self.mass[:, None]

    def step(self, point_force: tuple[int, np.ndarray] | None = None) -> None:
        """One Newmark step; ``point_force = (point, force)`` adds a nodal
        force at one global point (the adjoint module's sources)."""
        newmark.predictor(self.displ, self.veloc, self.accel, self.dt)
        u_local = gather(self.displ, self.mesh.ibool)
        force_local = compute_forces_elastic(
            u_local, self.geom, self.lam, self.mu, self.basis
        )
        force = scatter_add(force_local, self.mesh.ibool, self.mesh.nglob)
        if point_force is not None:
            point, nodal = point_force
            force[point] += nodal
        self.accel[:] = force / self.mass[:, None]
        newmark.corrector(self.veloc, self.accel, self.dt)

    def run(self, t_end: float) -> int:
        """March to (at least) t_end; returns the number of steps taken."""
        n = max(1, int(np.ceil(t_end / self.dt)))
        for _ in range(n):
            self.step()
        return n

    def total_energy(self) -> float:
        """Kinetic + elastic energy (uses -K u from the kernel)."""
        kinetic = 0.5 * float(np.sum(self.mass[:, None] * self.veloc**2))
        u_local = gather(self.displ, self.mesh.ibool)
        ku_local = compute_forces_elastic(
            u_local, self.geom, self.lam, self.mu, self.basis
        )
        potential = -0.5 * float(np.sum(u_local * ku_local))
        return kinetic + potential


class CartesianAcousticSolver:
    """Explicit acoustic (potential) SEM on a box: ``M chi'' = -K chi``."""

    def __init__(self, mesh: BoxMesh, courant: float = 0.4):
        self.mesh = mesh
        self.basis = GLLBasis(mesh.ngll)
        self.geom = compute_geometry(mesh.xyz, self.basis)
        shape = mesh.xyz.shape[:-1]
        self.rho_inv = np.full(shape, 1.0 / mesh.rho)
        kappa = mesh.rho * mesh.vp**2
        self.mass = assemble_scalar_mass_matrix(
            np.full(shape, 1.0 / kappa), self.geom, mesh.ibool, mesh.nglob
        )
        dx_min = min(
            float(np.linalg.norm(np.diff(mesh.xyz, axis=a), axis=-1).min())
            for a in (1, 2, 3)
        )
        self.dt = courant * dx_min / mesh.vp
        self.chi = np.zeros(mesh.nglob)
        self.chi_dot = np.zeros(mesh.nglob)
        self.chi_ddot = np.zeros(mesh.nglob)

    def set_initial_condition(self, chi_of_x, chi_dot_of_x=None) -> None:
        coords = np.empty((self.mesh.nglob, 3))
        coords[self.mesh.ibool.ravel()] = self.mesh.xyz.reshape(-1, 3)
        self.chi[:] = chi_of_x(coords)
        if chi_dot_of_x is not None:
            self.chi_dot[:] = chi_dot_of_x(coords)
        # Consistent initial acceleration (see elastic solver).
        chi_local = gather(self.chi, self.mesh.ibool)
        force_local = compute_forces_acoustic(
            chi_local, self.geom, self.rho_inv, self.basis
        )
        force = scatter_add(force_local, self.mesh.ibool, self.mesh.nglob)
        self.chi_ddot[:] = force / self.mass

    def step(self) -> None:
        newmark.predictor_scalar(self.chi, self.chi_dot, self.chi_ddot, self.dt)
        chi_local = gather(self.chi, self.mesh.ibool)
        force_local = compute_forces_acoustic(
            chi_local, self.geom, self.rho_inv, self.basis
        )
        force = scatter_add(force_local, self.mesh.ibool, self.mesh.nglob)
        self.chi_ddot[:] = force / self.mass
        newmark.corrector_scalar(self.chi_dot, self.chi_ddot, self.dt)

    def run(self, t_end: float) -> int:
        n = max(1, int(np.ceil(t_end / self.dt)))
        for _ in range(n):
            self.step()
        return n
