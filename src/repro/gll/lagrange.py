"""Lagrange interpolants on GLL nodes and their derivative matrices.

``hprime[i, j] = l'_j(x_i)`` is the workhorse array of the SEM force
kernels: differentiating a field along one local axis of an element is a
small (5x5) matrix product with ``hprime`` applied to cutplanes of the 5^3
block of values — exactly the operation Section 4.3 of the paper vectorises
with SSE/Altivec.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .quadrature import gll_points_and_weights

__all__ = [
    "lagrange_basis",
    "lagrange_basis_derivative",
    "shape_functions",
    "derivative_matrix",
    "derivative_matrix_weighted",
    "GLLBasis",
]


def lagrange_basis(nodes: np.ndarray, x: float) -> np.ndarray:
    """Evaluate all Lagrange cardinal polynomials l_j(x) for the given nodes."""
    nodes = np.asarray(nodes, dtype=np.float64)
    n = nodes.size
    values = np.ones(n)
    for j in range(n):
        for m in range(n):
            if m != j:
                values[j] *= (x - nodes[m]) / (nodes[j] - nodes[m])
    return values


def lagrange_basis_derivative(nodes: np.ndarray, x: float) -> np.ndarray:
    """Evaluate all derivatives l'_j(x) by the product-rule expansion."""
    nodes = np.asarray(nodes, dtype=np.float64)
    n = nodes.size
    derivs = np.zeros(n)
    for j in range(n):
        total = 0.0
        for k in range(n):
            if k == j:
                continue
            term = 1.0 / (nodes[j] - nodes[k])
            for m in range(n):
                if m != j and m != k:
                    term *= (x - nodes[m]) / (nodes[j] - nodes[m])
            total += term
        derivs[j] = total
    return derivs


def shape_functions(
    ngll: int, ref, derivatives: bool = False
) -> np.ndarray | tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The tensor-product Lagrange basis of a GLL element at one reference
    point ``ref = (xi, eta, gamma)``.

    Returns the ``(n, n, n)`` array ``N`` with ``N[i, j, k] = l_i(xi)
    l_j(eta) l_k(gamma)``; with ``derivatives=True`` also its partial
    derivatives along xi, eta and gamma, as ``(N, (dN_dxi, dN_deta,
    dN_dgamma))``.  The one place a basis at a point is built: the Newton
    inversion of an element, the source arrays and Jacobian, and the
    receiver weights all use it.
    """
    nodes, _ = gll_points_and_weights(ngll)
    hx, hy, hz = (lagrange_basis(nodes, v) for v in ref)
    basis = hx[:, None, None] * hy[None, :, None] * hz[None, None, :]
    if not derivatives:
        return basis
    dhx, dhy, dhz = (lagrange_basis_derivative(nodes, v) for v in ref)
    return basis, (
        dhx[:, None, None] * hy[None, :, None] * hz[None, None, :],
        hx[:, None, None] * dhy[None, :, None] * hz[None, None, :],
        hx[:, None, None] * hy[None, :, None] * dhz[None, None, :],
    )


@lru_cache(maxsize=64)
def derivative_matrix(ngll: int) -> np.ndarray:
    """The GLL differentiation matrix ``hprime`` with hprime[i, j] = l'_j(x_i).

    Applying ``hprime @ f`` to nodal values of f returns nodal values of f'
    exactly for polynomials of degree < ngll.
    """
    nodes, _ = gll_points_and_weights(ngll)
    h = np.empty((ngll, ngll))
    for i in range(ngll):
        h[i, :] = lagrange_basis_derivative(nodes, nodes[i])
    # Rows of a differentiation matrix annihilate constants; fold any
    # residual roundoff into the diagonal (the "negative sum" trick).
    h[np.arange(ngll), np.arange(ngll)] -= h.sum(axis=1)
    h.setflags(write=False)
    return h


@lru_cache(maxsize=64)
def derivative_matrix_weighted(ngll: int) -> np.ndarray:
    """``hprimewgll[i, j] = w_i * l'_j(x_i)``.

    This is the transpose-side factor of the weak-form stiffness application
    (SPECFEM's ``hprimewgll_xx``): after computing weighted stress cutplanes,
    the kernels contract against this matrix.
    """
    nodes_w = gll_points_and_weights(ngll)[1]
    h = derivative_matrix(ngll)
    hw = nodes_w[:, None] * h
    hw.setflags(write=False)
    return hw


class GLLBasis:
    """Bundle of the per-degree GLL arrays the mesher and solver need.

    Attributes
    ----------
    ngll : number of nodes per edge
    xi : nodes on [-1, 1], shape (ngll,)
    weights : quadrature weights, shape (ngll,)
    hprime : differentiation matrix, shape (ngll, ngll)
    hprime_wgll : weight-scaled differentiation matrix, shape (ngll, ngll)
    wgll3 : tensor-product weights w_i w_j w_k, shape (ngll, ngll, ngll)
    """

    def __init__(self, ngll: int = 5):
        self.ngll = int(ngll)
        self.xi, self.weights = gll_points_and_weights(self.ngll)
        self.hprime = derivative_matrix(self.ngll)
        self.hprime_wgll = derivative_matrix_weighted(self.ngll)
        self.wgll3 = (
            self.weights[:, None, None]
            * self.weights[None, :, None]
            * self.weights[None, None, :]
        )
        self.wgll3.setflags(write=False)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GLLBasis(ngll={self.ngll})"
