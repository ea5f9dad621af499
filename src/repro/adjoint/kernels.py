"""Adjoint sensitivity kernels (Tromp et al. 2005; paper reference [13]).

Section 1 of the paper lists, among the algorithmic advances, "the
capacity to compute sensitivity kernels for inverse problems in addition
to forward problems [13]" (Liu & Tromp's adjoint machinery).  This module
implements that capability on the Cartesian validation solver, where it
can be verified rigorously against finite differences:

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cartesian.box import BoxMesh
from ..cartesian.solver import CartesianElasticSolver
from ..kernels.elastic import displacement_gradient
from ..solver.assembly import gather

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


def run_forward_with_recording(
    solver: CartesianElasticSolver,
    n_steps: int,
    receiver_index: int,
    source_index: int | None = None,
    source_time_function=None,
    source_direction: np.ndarray | None = None,
) -> ForwardRecord:
    """March ``n_steps`` recording u and a at every step.

    A point-force source (optional) is injected at a global point with the
    given direction and time function — sufficient for kernel validation.
    """
    nglob = solver.mesh.nglob
    displ = np.empty((n_steps, nglob, 3))
    accel = np.empty((n_steps, nglob, 3))
    trace = np.empty((n_steps, 3))
    direction = (
        np.asarray(source_direction, dtype=np.float64)
        if source_direction is not None
        else np.array([0.0, 0.0, 1.0])
    )
    for step in range(n_steps):
        _step_with_point_force(
            solver,
            source_index,
            (
                source_time_function(step * solver.dt) * direction
                if source_time_function is not None and source_index is not None
                else None
            ),
        )
        displ[step] = solver.displ
        accel[step] = solver.accel
        trace[step] = solver.displ[receiver_index]
    return ForwardRecord(
        displ=displ,
        accel=accel,
        receiver_trace=trace,
        receiver_index=receiver_index,
        dt=solver.dt,
    )


def _step_with_point_force(
    solver: CartesianElasticSolver,
    index: int | None,
    force: np.ndarray | None,
) -> None:
    """One Newmark step with an optional nodal point force."""
    from ..kernels.elastic import compute_forces_elastic
    from ..solver import newmark
    from ..solver.assembly import scatter_add

    newmark.predictor(solver.displ, solver.veloc, solver.accel, solver.dt)
    u_local = gather(solver.displ, solver.mesh.ibool)
    force_local = compute_forces_elastic(
        u_local, solver.geom, solver.lam, solver.mu, solver.basis,
        variant=solver.kernel_variant,
    )
    total = scatter_add(force_local, solver.mesh.ibool, solver.mesh.nglob)
    if index is not None and force is not None:
        total[index] += force
    solver.accel[:] = total / solver.mass[:, None]
    newmark.corrector(solver.veloc, solver.accel, solver.dt)


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
    solver: CartesianElasticSolver,
    adjoint_source: np.ndarray,
    receiver_index: int,
) -> np.ndarray:
    """Propagate the time-reversed residual; returns u_adj (n_steps, nglob, 3).

    The returned array is ordered in *adjoint time* s = 0..T; the kernel
    integrals pair adjoint step s with forward step (n_steps - 1 - s).
    The injected force includes the dt factor of the misfit's time
    integral so that delta chi has the correct units.
    """
    n_steps = adjoint_source.shape[0]
    nglob = solver.mesh.nglob
    out = np.empty((n_steps, nglob, 3))
    for s in range(n_steps):
        force = adjoint_source[n_steps - 1 - s] * solver.dt / solver.dt
        # dt cancels: chi's integral carries dt, but injecting the raw
        # residual as a discrete force per step already sums to the same
        # Riemann integral through the kernel time quadrature below.
        _step_with_point_force(solver, receiver_index, force)
        out[s] = solver.displ
    return out


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
