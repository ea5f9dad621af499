"""Independent pure-Python reference kernel (testing oracle).

A deliberately naive, loop-by-loop transcription of the weak-form internal
force computation, written without any shared code with
:mod:`repro.kernels.elastic` so the optimised kernels can be validated
against it.  Orders of magnitude slower than the production kernels —
only ever used on tiny meshes in the test suite.
"""

from __future__ import annotations

import numpy as np

from ..gll.lagrange import GLLBasis
from .geometry import ElementGeometry

__all__ = ["forces_elastic_reference", "forces_acoustic_reference"]


def forces_elastic_reference(
    u: np.ndarray,
    geom: ElementGeometry,
    lam: np.ndarray,
    mu: np.ndarray,
    basis: GLLBasis,
) -> np.ndarray:
    """Triple-loop elastic force computation; see module docstring."""
    nspec, n = u.shape[0], u.shape[1]
    h = basis.hprime
    w = basis.weights
    out = np.zeros_like(u)
    for e in range(nspec):
        # Displacement gradient at every point.
        sigma = np.zeros((n, n, n, 3, 3))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    dudxi = np.zeros((3, 3))  # [l, c]
                    for l in range(n):
                        for c in range(3):
                            dudxi[0, c] += h[i, l] * u[e, l, j, k, c]
                            dudxi[1, c] += h[j, l] * u[e, i, l, k, c]
                            dudxi[2, c] += h[k, l] * u[e, i, j, l, c]
                    grad = np.zeros((3, 3))  # [c, d]
                    for c in range(3):
                        for d in range(3):
                            for l in range(3):
                                grad[c, d] += (
                                    geom.inv_jacobian[e, i, j, k, l, d]
                                    * dudxi[l, c]
                                )
                    eps = 0.5 * (grad + grad.T)
                    tr = eps[0, 0] + eps[1, 1] + eps[2, 2]
                    sig = 2.0 * mu[e, i, j, k] * eps
                    for c in range(3):
                        sig[c, c] += lam[e, i, j, k] * tr
                    sigma[i, j, k] = sig
        # Weighted flux on reference axes.
        flux = np.zeros((n, n, n, 3, 3))  # [l, c]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(3):
                        for c in range(3):
                            val = 0.0
                            for d in range(3):
                                val += (
                                    sigma[i, j, k, c, d]
                                    * geom.inv_jacobian[e, i, j, k, l, d]
                                )
                            flux[i, j, k, l, c] = val * geom.jacobian[e, i, j, k]
        # -B^T step.
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for c in range(3):
                        acc = 0.0
                        for l in range(n):
                            acc += (
                                w[l] * h[l, i] * flux[l, j, k, 0, c] * w[j] * w[k]
                            )
                            acc += (
                                w[l] * h[l, j] * flux[i, l, k, 1, c] * w[i] * w[k]
                            )
                            acc += (
                                w[l] * h[l, k] * flux[i, j, l, 2, c] * w[i] * w[j]
                            )
                        out[e, i, j, k, c] = -acc
    return out


def forces_acoustic_reference(
    chi: np.ndarray,
    geom: ElementGeometry,
    rho_inv: np.ndarray,
    basis: GLLBasis,
) -> np.ndarray:
    """Triple-loop acoustic (potential) stiffness application."""
    nspec, n = chi.shape[0], chi.shape[1]
    h = basis.hprime
    w = basis.weights
    out = np.zeros_like(chi)
    for e in range(nspec):
        gradc = np.zeros((n, n, n, 3))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    dxi = np.zeros(3)
                    for l in range(n):
                        dxi[0] += h[i, l] * chi[e, l, j, k]
                        dxi[1] += h[j, l] * chi[e, i, l, k]
                        dxi[2] += h[k, l] * chi[e, i, j, l]
                    for d in range(3):
                        for l in range(3):
                            gradc[i, j, k, d] += (
                                geom.inv_jacobian[e, i, j, k, l, d] * dxi[l]
                            )
        flux = np.zeros((n, n, n, 3))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(3):
                        val = 0.0
                        for d in range(3):
                            val += (
                                gradc[i, j, k, d]
                                * geom.inv_jacobian[e, i, j, k, l, d]
                            )
                        flux[i, j, k, l] = (
                            val
                            * geom.jacobian[e, i, j, k]
                            * rho_inv[e, i, j, k]
                        )
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    acc = 0.0
                    for l in range(n):
                        acc += w[l] * h[l, i] * flux[l, j, k, 0] * w[j] * w[k]
                        acc += w[l] * h[l, j] * flux[i, l, k, 1] * w[i] * w[k]
                        acc += w[l] * h[l, k] * flux[i, j, l, 2] * w[i] * w[j]
                    out[e, i, j, k] = -acc
    return out
