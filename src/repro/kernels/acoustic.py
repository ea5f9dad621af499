"""Acoustic (fluid outer core) stiffness kernel.

The fluid outer core is solved with a scalar potential chi such that the
fluid displacement is ``s = (1/rho) grad(chi)`` (Chaljub & Valette 2004 —
reference [4] of the paper, the formulation behind the non-iterative
displacement-based solid-fluid coupling).  The weak form is an anisotropic-
free Laplace-like operator with 1/rho coefficient; the "mass" is 1/kappa.

The kernel mirrors the elastic one's structure: derivative contractions
along the three cutplane axes, coefficient scaling, and the -B^T step.
Like it, this kernel is single-event (see :mod:`repro.kernels`).
"""

from __future__ import annotations

import numpy as np

from ..gll.lagrange import GLLBasis
from .geometry import ElementGeometry

__all__ = ["compute_forces_acoustic", "fluid_displacement"]


def _potential_gradient(  # repro: hot-loop
    chi: np.ndarray, geom: ElementGeometry, basis: GLLBasis
) -> np.ndarray:
    """grad(chi) at every GLL point, (nspec, n, n, n, 3)."""
    h = basis.hprime
    t1 = np.einsum("il,eljk->eijk", h, chi)
    t2 = np.einsum("jl,eilk->eijk", h, chi)
    t3 = np.einsum("kl,eijl->eijk", h, chi)
    t = np.stack([t1, t2, t3], axis=-1)  # (..., l)
    return np.einsum("eijkl,eijkld->eijkd", t, geom.inv_jacobian)


def compute_forces_acoustic(  # repro: hot-loop
    chi: np.ndarray,
    geom: ElementGeometry,
    rho_inv: np.ndarray,
    basis: GLLBasis,
) -> np.ndarray:
    """Elemental ``-K chi`` for the fluid potential equation.

    Parameters
    ----------
    chi : (nspec, n, n, n) local potential values
    rho_inv : (nspec, n, n, n) 1/rho at the GLL points
    """
    grad = _potential_gradient(chi, geom, basis)
    # flux[l] = J * (1/rho) * sum_d grad_d * dxi_l/dx_d
    hw = basis.hprime_wgll
    w = basis.weights
    flux = np.einsum("eijkd,eijkld->eijkl", grad, geom.inv_jacobian)
    flux *= (geom.jacobian * rho_inv)[..., None]
    t1 = np.einsum("li,eljk->eijk", hw, flux[..., 0])
    t1 *= w[None, None, :, None] * w[None, None, None, :]
    t2 = np.einsum("lj,eilk->eijk", hw, flux[..., 1])
    t2 *= w[None, :, None, None] * w[None, None, None, :]
    t3 = np.einsum("lk,eijl->eijk", hw, flux[..., 2])
    t3 *= w[None, :, None, None] * w[None, None, :, None]
    return -(t1 + t2 + t3)


def fluid_displacement(  # repro: hot-loop
    chi: np.ndarray,
    geom: ElementGeometry,
    rho_inv: np.ndarray,
    basis: GLLBasis,
) -> np.ndarray:
    """Fluid displacement s = (1/rho) grad(chi), (nspec, n, n, n, 3).

    Used on the coupling surfaces: the solid side needs the fluid's normal
    displacement continuity enforced through the surface integrals.
    """
    return _potential_gradient(chi, geom, basis) * rho_inv[..., None]
