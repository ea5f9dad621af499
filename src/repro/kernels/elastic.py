"""Elastic internal forces — the routine that dominates the runtime.

Section 4.3 of the paper: more than 70% of solver time is spent computing
internal forces in the solid regions, as small (5x5) matrix products along
the three cutplane directions of each element's 5x5x5 block.  The paper
compares three ways to execute those products: plain scalar loops
("regular Fortran"), manual SSE/Altivec vector code (15-20% faster), and
per-matrix BLAS SGEMM calls (significantly *slower*, because call overhead
and cutplane memory copies dominate for 5x5 matrices).

Here the force of one element subset is **one routine**
(:class:`ElasticOperator`, the three-component instance of
:class:`repro.kernels.weakform.StiffnessOperator`): gradient (once) ->
symmetric strain -> memory-variable relaxation in place -> Hooke -> flux
-> ``-B^T``.  ``variant`` keeps meaning what the paper compared and
selects only how the cut-plane products are executed:

* ``baseline``  — a Python loop per element: the scalar analog;
* ``vectorized`` — one batched matmul per element block: the vector-unit
  analog, amortising dispatch overhead across the block;
* ``blas``      — one ``np.dot`` per (copied, aligned) cut-plane: the
  tiny-GEMM analog with per-call overhead.

Strain, relaxation, Hooke and flux are shared, so all variants — with or
without attenuation — compute the identical ``accel -= B^T sigma(B u)``
and agree to roundoff; the tests verify this against an independent
pure-Python reference (:mod:`repro.kernels.reference`).  Strain, stress
and memory variables are stored as their six independent components,
ordered ``(xx, yy, zz, xy, xz, yz)``.
"""

from __future__ import annotations

import numpy as np

from ..gll.lagrange import GLLBasis
from .geometry import ElementGeometry
from .weakform import (
    KERNEL_VARIANTS,
    StiffnessOperator,
    Workspace,
    carve,
    reference_derivatives,
)

__all__ = [
    "KERNEL_VARIANTS",
    "ElasticOperator",
    "compute_forces_elastic",
    "displacement_gradient",
]


class ElasticOperator(StiffnessOperator):
    """``u -> -K u`` of an isotropic solid subset, optionally anelastic.

    ``lam``/``mu`` are the subset's (nspec, n, n, n) Lame parameters; they
    are folded with the volume measure once, here.  ``apply(u, out,
    relax)`` takes the memory-variable hook ``relax(strain, lo, hi)``:
    called once per block between strain and Hooke with the six-component
    ``(6, hi - lo, npts)`` strain of subset elements ``lo:hi``, it advances
    their memory variables and returns ``sum_j zeta_j`` as ``(hi - lo, 6,
    npts)`` (:meth:`repro.solver.attenuation.AttenuationState.relax`).
    """

    ncomp = 3

    def __init__(
        self,
        geom: ElementGeometry,
        lam: np.ndarray,
        mu: np.ndarray,
        basis: GLLBasis,
        workspace: Workspace,
        variant: str = "vectorized",
    ):
        super().__init__(geom, basis, workspace, variant)
        shape = (self.nspec, self.npts)
        self.lam_jw = (lam * geom.jweight).reshape(shape)
        self.mu2_jw = (2.0 * mu * geom.jweight).reshape(shape)

    def _stress(self, grad, stress, lo, hi, relax) -> None:  # repro: hot-loop
        nb = hi - lo
        g = grad.reshape(9, nb, self.npts)
        work = carve(self.ws.c, 7, nb, self.npts)
        strain, trace = work[:6], work[6]
        np.copyto(strain[:3], g[::4])
        np.add(g[1:3], g[3:7:3], out=strain[3:5])
        np.add(g[5], g[7], out=strain[5])
        np.multiply(strain[3:], 0.5, out=strain[3:])
        np.add(strain[0], strain[1], out=trace)
        np.add(trace, strain[2], out=trace)
        memory = None if relax is None else relax(strain, lo, hi)
        self._hooke(strain, trace, memory, stress.reshape(9, nb, self.npts), lo, hi)

    def _hooke(self, strain, trace, memory, stress, lo, hi) -> None:  # repro: hot-loop
        """``stress (9, nb, npts) = jweight * (lam tr(eps) I + 2 mu (eps -
        memory))`` for elements ``lo:hi``; may destroy its inputs."""
        mu2_jw = self.mu2_jw[lo:hi]
        if memory is not None:
            np.subtract(strain, memory.transpose(1, 0, 2), out=strain)
        np.multiply(strain[:3], mu2_jw, out=stress[::4])
        np.multiply(trace, self.lam_jw[lo:hi], out=trace)
        np.add(stress[::4], trace, out=stress[::4])
        np.multiply(strain[3:5], mu2_jw, out=stress[1:3])
        np.multiply(strain[5], mu2_jw, out=stress[5])
        np.copyto(stress[3:7:3], stress[1:3])
        np.copyto(stress[7], stress[5])


def compute_forces_elastic(  # repro: hot-loop
    u: np.ndarray,
    geom: ElementGeometry,
    lam: np.ndarray,
    mu: np.ndarray,
    basis: GLLBasis,
    variant: str = "vectorized",
) -> np.ndarray:
    """Elemental internal-force contributions to the acceleration: the
    stateless form of :class:`ElasticOperator` (a fresh operator and
    workspace per call; the solver builds them once).

    ``u`` is the (nspec, n, n, n, 3) local displacement (gathered through
    ibool) or a (B, nspec, n, n, n, 3) stack of them, looped over;
    ``lam``/``mu`` are (nspec, n, n, n); ``variant`` is one of
    :data:`KERNEL_VARIANTS`.  Returns the local forces, shaped like ``u``,
    to be assembled and scaled by the mass matrix.  Sign convention: this
    is the right-hand side ``-K u`` directly.
    """
    operator = ElasticOperator(geom, lam, mu, basis, Workspace(basis.ngll), variant)
    out = np.empty_like(u, order="C")
    events = (-1, *lam.shape, 3)
    for u_event, out_event in zip(u.reshape(events), out.reshape(events)):
        operator.apply(u_event, out_event)
    return out


def displacement_gradient(
    u: np.ndarray, geom: ElementGeometry, basis: GLLBasis
) -> np.ndarray:
    """du_c/dx_d at every point, (nspec, n, n, n, ncomp, 3) with [c, d] —
    allocating, for off-loop readers (adjoint kernels, gravity, tests)."""
    t = reference_derivatives(u, basis)
    return np.einsum("lcep,ldep->epcd", t, geom.dxi_dx).reshape(*u.shape, 3)
