"""Acoustic (fluid outer core) stiffness kernel.

The fluid outer core is solved with a scalar potential chi such that the
fluid displacement is ``s = (1/rho) grad(chi)`` (Chaljub & Valette 2004 —
reference [4] of the paper, the formulation behind the non-iterative
displacement-based solid-fluid coupling).  The weak form is an anisotropic-
free Laplace-like operator with 1/rho coefficient; the "mass" is 1/kappa.

The kernel is the one-component instance of the routine the elastic one
is the three-component instance of
(:class:`repro.kernels.weakform.StiffnessOperator`): derivative
contractions along the three cutplane axes, coefficient scaling, and the
-B^T step.  Like it, this kernel is single-event (see :mod:`repro.kernels`).
"""

from __future__ import annotations

import numpy as np

from ..gll.lagrange import GLLBasis
from .geometry import ElementGeometry
from .weakform import StiffnessOperator, Workspace

__all__ = ["AcousticOperator", "compute_forces_acoustic"]


class AcousticOperator(StiffnessOperator):
    """``chi -> -K chi`` of a fluid subset; the "stress" is the gradient
    scaled by ``(1/rho) * jweight``, folded once here."""

    def __init__(
        self,
        geom: ElementGeometry,
        rho_inv: np.ndarray,
        basis: GLLBasis,
    ):
        super().__init__(geom, basis)
        self.rho_inv_jw = (rho_inv * geom.jweight).reshape(self.nspec, self.npts)

    def _stress(self, grad, stress, lo, hi, relax, ws) -> None:  # repro: hot-loop
        np.multiply(grad, self.rho_inv_jw[lo:hi], out=stress)


def compute_forces_acoustic(  # repro: hot-loop
    chi: np.ndarray,
    geom: ElementGeometry,
    rho_inv: np.ndarray,
    basis: GLLBasis,
) -> np.ndarray:
    """Elemental ``-K chi`` for the fluid potential equation (the
    stateless form of :class:`AcousticOperator`).

    Parameters
    ----------
    chi : (nspec, n, n, n) local potential values
    rho_inv : (nspec, n, n, n) 1/rho at the GLL points
    """
    out = np.empty_like(chi, order="C")
    AcousticOperator(geom, rho_inv, basis).apply(
        chi, out, None, Workspace(basis.ngll)
    )
    return out
