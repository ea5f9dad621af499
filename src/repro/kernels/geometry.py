"""Element geometry factors: inverse Jacobians and integration weights.

The mesher stores only GLL coordinates; before time marching the solver
derives, at every GLL point of every element,

* the Jacobian matrix ``d(x,y,z)/d(xi,eta,gamma)`` by spectral
  differentiation of the coordinate interpolant (exact for the degree-4
  isoparametric geometry),
* its inverse ``d(xi,eta,gamma)/d(x,y,z)`` (SPECFEM's ``xix..gammaz``), and
* the determinant times the tensor-product quadrature weights — the
  volume measure of every weak-form integral.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gll.lagrange import GLLBasis
from .weakform import reference_derivatives

__all__ = ["ElementGeometry", "compute_geometry"]


@dataclass
class ElementGeometry:
    """Precomputed geometric factors for a set of elements.

    Attributes
    ----------
    dxi_dx : (3, 3, nspec, n**3), ``[l, d] = d xi_l / d x_d`` stored
        component-leading (rows: reference axes, columns: physical axes;
        SPECFEM's ``xix .. gammaz`` as nine unit-stride arrays) — the one
        copy of the inverse Jacobian, in the layout the kernels stream.
    jacobian : (nspec, n, n, n) determinant of dx/dxi (positive).
    jweight : (nspec, n, n, n) jacobian * w_i w_j w_k, the volume measure.
    """

    dxi_dx: np.ndarray
    jacobian: np.ndarray
    jweight: np.ndarray

    @property
    def nspec(self) -> int:
        return self.jacobian.shape[0]

    @property
    def inv_jacobian(self) -> np.ndarray:
        """The inverse Jacobian as a ``(nspec, n, n, n, 3, 3)`` view,
        ``[..., l, d]`` — for off-loop readers."""
        return np.moveaxis(
            self.dxi_dx.reshape(3, 3, *self.jacobian.shape), (0, 1), (-2, -1)
        )

    def subset(self, idx) -> "ElementGeometry":
        """The factors of elements ``idx`` (views for a slice)."""
        return ElementGeometry(
            self.dxi_dx[:, :, idx], self.jacobian[idx], self.jweight[idx]
        )


def compute_geometry(xyz: np.ndarray, basis: GLLBasis | None = None) -> ElementGeometry:
    """Compute :class:`ElementGeometry` from GLL coordinates.

    Raises if any point has a non-positive Jacobian (inverted or degenerate
    element) — meshes from :mod:`repro.mesh` always pass.
    """
    xyz = np.asarray(xyz, dtype=np.float64)
    if xyz.ndim != 5 or xyz.shape[-1] != 3:
        raise ValueError(f"expected (nspec, n, n, n, 3), got {xyz.shape}")
    if basis is None:
        basis = GLLBasis(xyz.shape[1])
    jac = reference_derivatives(xyz, basis)  # [l, c] = d x_c / d xi_l
    # Closed-form inverse: dxi_l/dx_d = cofactor(jac)[l, d] / det, and row l
    # of the cofactor matrix is the cross product of the other two rows.
    dxi_dx = np.empty_like(jac)
    for l in range(3):
        dxi_dx[l] = np.cross(jac[(l + 1) % 3], jac[(l + 2) % 3], axis=0)
    det = np.einsum("cep,cep->ep", jac[0], dxi_dx[0])
    if np.any(det <= 0.0):
        bad = int(np.sum(det <= 0.0))
        raise ValueError(
            f"{bad} GLL points have non-positive Jacobian (min {det.min():.3e})"
        )
    dxi_dx /= det
    det = det.reshape(xyz.shape[:-1])
    return ElementGeometry(
        dxi_dx=dxi_dx, jacobian=det, jweight=det * basis.wgll3[None, ...]
    )
