"""Adjoint sensitivity kernels (Tromp et al. 2005; paper reference [13]).

Section 1 of the paper lists, among the algorithmic advances, "the
capacity to compute sensitivity kernels for inverse problems in addition
to forward problems [13]" (Liu & Tromp's adjoint machinery).  This module
implements that capability on a Cartesian box run by the production
:class:`~repro.solver.GlobalSolver`, where it can be verified rigorously
against finite differences:

* the *forward* run records the wavefield and the waveform misfit
  ``chi = 1/2 int (u(x_r, t) - d(t))^2 dt`` at a receiver;
* the *adjoint* run propagates the time-reversed residual injected at the
  receiver;
* the sensitivity kernels accumulate the standard interaction integrals

      K_rho    = - int  u_adj(T - t) . d2u/dt2(t) dt
      K_lambda = - int  div(u_adj)(T-t) * div(u)(t) dt
      K_mu     = - int  2 eps_adj(T-t) : eps(t) dt

  such that ``delta chi = int (K_rho drho + K_lambda dlam + K_mu dmu) dV``
  to first order — the property the tests verify against finite
  differences of the actual misfit.

Forces, moduli and kernels are in box units; the solver's box is in km,
so a force enters it ``LENGTH_SCALE**3`` times larger and a modulus
``LENGTH_SCALE**2`` times (:mod:`repro.cartesian.box`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..cartesian.box import BoxMesh
from ..config.parameters import SimulationParameters
from ..kernels.elastic import displacement_gradient
from ..model.prem import RegionCode
from ..solver.assembly import gather
from ..solver.prepared import LENGTH_SCALE, PreparedMesh
from ..solver.solver import GlobalSolver
from ..solver.sources import PointForceSource

__all__ = [
    "ForwardRecord",
    "run_forward_with_recording",
    "misfit_and_adjoint_source",
    "run_adjoint",
    "SensitivityKernels",
    "compute_kernels",
]


@dataclass
class ForwardRecord:
    """A forward run's stored wavefield and receiver seismogram."""

    displ: np.ndarray  # (n_steps, nglob, 3)
    accel: np.ndarray  # (n_steps, nglob, 3)
    receiver_trace: np.ndarray  # (n_steps, 3)
    receiver_index: int
    dt: float

    @property
    def n_steps(self) -> int:
        return self.displ.shape[0]


def _run(
    box: BoxMesh, index: int, forces: list, n_steps: int, dt: float
) -> np.ndarray:
    """March ``box`` at ``dt`` under point forces at global point
    ``index``, one per ``(time function, box-unit direction)``; returns
    the displacement and acceleration after every step, (2, n_steps,
    nglob, 3)."""
    position = tuple(box.mesh.global_coordinates()[index])
    sources = [
        PointForceSource(position, tuple(LENGTH_SCALE**3 * np.asarray(d)), stf)
        for stf, d in forces
    ]
    solver = GlobalSolver(
        box, SimulationParameters(), sources=sources, dt_override=dt
    )
    history = np.empty((2, n_steps, box.nglob, 3))
    field = solver.solid[RegionCode.CRUST_MANTLE]

    def record(step: int, _solver) -> None:
        history[0, step] = field.displ[0]
        history[1, step] = field.accel[0]

    solver.run(n_steps=n_steps, callbacks=[record])
    return history


def run_forward_with_recording(
    box: BoxMesh,
    n_steps: int,
    receiver_index: int,
    source_index: int,
    source_time_function,
    source_direction=(0.0, 0.0, 1.0),
    courant: float = 0.3,
    d_mu: np.ndarray | None = None,
) -> ForwardRecord:
    """March ``n_steps`` from a point force at global point
    ``source_index`` (box-unit direction times the time function),
    recording u and a at every step.

    ``d_mu`` (box units, (nspec, n, n, n)) raises the shear modulus at
    fixed lambda, so kappa moves by 2/3 of it.  The time step is
    ``courant`` times the *unperturbed* box's Courant bound, so runs of
    perturbed models share one time grid.
    """
    dt = courant * PreparedMesh(box.regions, deformed=False).dt_bound
    if d_mu is not None:
        mesh, d_mu = box.mesh, LENGTH_SCALE**2 * d_mu
        box = replace(box, mesh=replace(
            mesh, mu=mesh.mu + d_mu, kappa=mesh.kappa + (2.0 / 3.0) * d_mu
        ))
    displ, accel = _run(
        box, source_index, [(source_time_function, source_direction)], n_steps, dt
    )
    return ForwardRecord(
        displ=displ,
        accel=accel,
        receiver_trace=displ[:, receiver_index].copy(),
        receiver_index=receiver_index,
        dt=dt,
    )


def misfit_and_adjoint_source(
    trace: np.ndarray, data: np.ndarray, dt: float
) -> tuple[float, np.ndarray]:
    """Waveform misfit and its adjoint source.

    ``chi = 1/2 sum_t |u - d|^2 dt``; the adjoint source time series is the
    residual ``(u - d)`` (to be injected time-reversed at the receiver).
    """
    if trace.shape != data.shape:
        raise ValueError("trace and data shapes differ")
    residual = trace - data
    chi = 0.5 * float(np.sum(residual**2)) * dt
    return chi, residual


def run_adjoint(
    box: BoxMesh,
    adjoint_source: np.ndarray,
    receiver_index: int,
    dt: float,
) -> np.ndarray:
    """Propagate the time-reversed residual; returns u_adj (n_steps, nglob, 3).

    The returned array is ordered in *adjoint time* s = 0..T; the kernel
    integrals pair adjoint step s with forward step (n_steps - 1 - s).
    """
    # Adjoint step s injects residual row n_steps - 1 - s, component by
    # component.  No dt factor: chi's integral carries dt, but injecting
    # the raw residual as a discrete force per step already sums to the
    # same Riemann integral through the kernel time quadrature below.
    reversed_rows = adjoint_source[::-1]

    def component(c: int):
        return lambda t: reversed_rows[int(round(t / dt)), c]

    forces = [(component(c), np.eye(3)[c]) for c in range(3)]
    return _run(box, receiver_index, forces, adjoint_source.shape[0], dt)[0]


@dataclass
class SensitivityKernels:
    """Volumetric kernels at every GLL point, (nspec, n, n, n)."""

    k_rho: np.ndarray
    k_lambda: np.ndarray
    k_mu: np.ndarray

    def predicted_misfit_change(
        self,
        geom,
        d_rho: np.ndarray | float = 0.0,
        d_lambda: np.ndarray | float = 0.0,
        d_mu: np.ndarray | float = 0.0,
    ) -> float:
        """First-order ``delta chi`` for given model perturbations."""
        integrand = (
            self.k_rho * d_rho + self.k_lambda * d_lambda + self.k_mu * d_mu
        )
        return float(np.sum(integrand * geom.jweight))


def compute_kernels(
    mesh: BoxMesh,
    geom,
    basis,
    forward: ForwardRecord,
    adjoint_displ: np.ndarray,
) -> SensitivityKernels:
    """Accumulate the interaction integrals over the common time window."""
    n_steps = forward.n_steps
    if adjoint_displ.shape[0] != n_steps:
        raise ValueError("forward and adjoint runs must have equal length")
    dt = forward.dt
    shape = mesh.ibool.shape
    k_rho = np.zeros(shape)
    k_lam = np.zeros(shape)
    k_mu = np.zeros(shape)
    for t in range(n_steps):
        s = n_steps - 1 - t  # adjoint index pairing forward time t
        u_adj_local = gather(adjoint_displ[s], mesh.ibool)
        a_fwd_local = gather(forward.accel[t], mesh.ibool)
        u_fwd_local = gather(forward.displ[t], mesh.ibool)
        # Density kernel: - u_adj . a_fwd.
        k_rho -= dt * np.einsum("...c,...c->...", u_adj_local, a_fwd_local)
        grad_f = displacement_gradient(u_fwd_local, geom, basis)
        grad_a = displacement_gradient(u_adj_local, geom, basis)
        eps_f = 0.5 * (grad_f + np.swapaxes(grad_f, -1, -2))
        eps_a = 0.5 * (grad_a + np.swapaxes(grad_a, -1, -2))
        div_f = np.trace(eps_f, axis1=-2, axis2=-1)
        div_a = np.trace(eps_a, axis1=-2, axis2=-1)
        k_lam -= dt * div_f * div_a
        k_mu -= dt * 2.0 * np.einsum("...ij,...ij->...", eps_a, eps_f)
    return SensitivityKernels(k_rho=k_rho, k_lambda=k_lam, k_mu=k_mu)
