"""Regional solver: one truncated chunk with absorbing boundaries.

A compact explicit solver for :class:`~repro.regional.mesh.RegionalMesh`:
the same kernels, assembly, Newmark scheme, sources and receivers as the
global solver, plus the Stacey boundary applied every step.  Used for the
paper's "regional simulations" mode and as the testbed for the absorbing
boundary condition itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config.parameters import SimulationParameters
from ..gll.lagrange import GLLBasis
from ..kernels.elastic import compute_forces_elastic
from ..kernels.geometry import compute_geometry
from ..mesh.quality import estimate_time_step
from ..solver import newmark
from ..solver.assembly import assemble_mass_matrix, gather, scatter_add
from ..solver.receivers import ReceiverSet, Station, locate_receivers
from ..solver.solver import LENGTH_SCALE
from .absorbing import StaceyBoundary, build_stacey_boundary
from .mesh import RegionalMesh

__all__ = ["RegionalSolver", "RegionalResult"]


@dataclass
class RegionalResult:
    receivers: ReceiverSet | None
    dt: float
    n_steps: int
    energy_history: np.ndarray | None

    @property
    def seismograms(self) -> np.ndarray | None:
        return self.receivers.data if self.receivers is not None else None


class RegionalSolver:
    """Explicit SEM on a regional mesh with optional absorbing boundaries."""

    def __init__(
        self,
        regional: RegionalMesh,
        params: SimulationParameters,
        sources: list | None = None,
        stations: list[Station] | None = None,
        absorbing: bool = True,
    ):
        self.regional = regional
        self.params = params
        mesh = regional.mesh
        self.basis = GLLBasis(mesh.ngll)
        self.geom = compute_geometry(mesh.xyz * LENGTH_SCALE, self.basis)
        self.lam = mesh.kappa - (2.0 / 3.0) * mesh.mu
        self.mu = mesh.mu
        self.mass = assemble_mass_matrix(
            mesh.rho, self.geom, mesh.ibool, mesh.nglob
        )
        self.dt = estimate_time_step(
            [mesh], courant=params.courant, length_scale=LENGTH_SCALE
        )
        self.n_steps = (
            int(params.nstep_override)
            if params.nstep_override is not None
            else max(1, int(np.ceil(params.record_length_s / self.dt)))
        )
        self.stacey: StaceyBoundary | None = None
        if absorbing:
            self.stacey = build_stacey_boundary(
                mesh, regional.absorbing_faces, self.basis
            )
        self.source_terms = []
        for source in sources or []:
            self.source_terms.append(self._locate_source(source))
        self.receiver_set: ReceiverSet | None = None
        if stations:
            located = locate_receivers(
                stations, mesh.xyz, mesh.ibool, mode=params.station_location
            )
            self.receiver_set = ReceiverSet(located, self.n_steps, self.dt)
        self.displ = np.zeros((mesh.nglob, 3))
        self.veloc = np.zeros((mesh.nglob, 3))
        self.accel = np.zeros((mesh.nglob, 3))

    def _locate_source(self, source):
        from ..solver.sources import (
            MomentTensorSource,
            moment_tensor_source_array,
            point_force_source_array,
        )

        mesh = self.regional.mesh
        target = np.asarray(source.position, dtype=np.float64)
        located = locate_receivers(
            [Station("src", tuple(target))], mesh.xyz, mesh.ibool,
            mode="interpolated",
        )[0]
        e, ref = located.element, located.ref
        if isinstance(source, MomentTensorSource):
            from ..gll.lagrange import lagrange_basis, lagrange_basis_derivative
            from ..gll.quadrature import gll_points_and_weights

            n = mesh.ngll
            nodes, _ = gll_points_and_weights(n)
            hx, hy, hz = (lagrange_basis(nodes, v) for v in ref)
            dhx, dhy, dhz = (lagrange_basis_derivative(nodes, v) for v in ref)
            exyz = mesh.xyz[e] * LENGTH_SCALE
            jac = np.stack(
                [
                    np.einsum("ijk,ijkc->c",
                              dhx[:, None, None] * hy[None, :, None]
                              * hz[None, None, :], exyz),
                    np.einsum("ijk,ijkc->c",
                              hx[:, None, None] * dhy[None, :, None]
                              * hz[None, None, :], exyz),
                    np.einsum("ijk,ijkc->c",
                              hx[:, None, None] * hy[None, :, None]
                              * dhz[None, None, :], exyz),
                ],
                axis=0,
            )
            inv_jac = np.linalg.inv(jac).T
            arr = moment_tensor_source_array(
                source.moment, exyz, inv_jac, *ref
            )
        else:
            arr = point_force_source_array(
                np.asarray(source.force), mesh.ngll, *ref
            )
        return e, arr, source

    def step(self, t: float) -> None:
        mesh = self.regional.mesh
        newmark.predictor(self.displ, self.veloc, self.accel, self.dt)
        u_local = gather(self.displ, mesh.ibool)
        force_local = compute_forces_elastic(
            u_local, self.geom, self.lam, self.mu, self.basis,
            variant=self.params.kernel_variant,
        )
        force = scatter_add(force_local, mesh.ibool, mesh.nglob)
        if self.stacey is not None:
            self.stacey.apply(force, self.veloc)
        for e, arr, source in self.source_terms:
            amp = source.amplitude(t)
            np.add.at(force, mesh.ibool[e].ravel(), (amp * arr).reshape(-1, 3))
        self.accel[:] = force / self.mass[:, None]
        newmark.corrector(self.veloc, self.accel, self.dt)

    def run(self, n_steps: int | None = None, track_energy: bool = False,
            energy_every: int = 5) -> RegionalResult:
        n_steps = int(n_steps) if n_steps is not None else self.n_steps
        if self.receiver_set is not None and n_steps != self.receiver_set.n_steps:
            self.receiver_set = ReceiverSet(
                self.receiver_set.receivers, n_steps, self.dt
            )
        energies = []
        for step in range(n_steps):
            self.step(step * self.dt)
            if self.receiver_set is not None:
                self.receiver_set.record(self.displ, self.regional.mesh.ibool)
            if track_energy and step % energy_every == 0:
                energies.append(self.kinetic_energy())
        return RegionalResult(
            receivers=self.receiver_set,
            dt=self.dt,
            n_steps=n_steps,
            energy_history=np.asarray(energies) if track_energy else None,
        )

    def kinetic_energy(self) -> float:
        return 0.5 * float(np.sum(self.mass[:, None] * self.veloc**2))
