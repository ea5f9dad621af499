"""Interpolation of fields inside a spectral element.

Used by the receiver machinery: SPECFEM historically located each seismic
station at its exact (xi, eta, gamma) inside an element and interpolated
the wavefield there with the full Lagrange basis; the paper's Section 4.4
replaces this with nearest-GLL-point sampling at high resolution.  Both
paths live here.
"""

from __future__ import annotations

import numpy as np

from .lagrange import shape_functions
from .quadrature import gll_points_and_weights

__all__ = [
    "interpolation_weights_3d",
    "interpolate_at_point",
    "nearest_gll_index",
]


def interpolation_weights_3d(
    ngll: int, xi: float, eta: float, gamma: float
) -> np.ndarray:
    """Tensor-product Lagrange weights at a reference point (xi, eta, gamma).

    Returns an (ngll, ngll, ngll) array ``W`` with
    ``f(xi,eta,gamma) = sum_ijk W[i,j,k] f[i,j,k]``.
    """
    for name, v in (("xi", xi), ("eta", eta), ("gamma", gamma)):
        if not -1.0 - 1e-12 <= v <= 1.0 + 1e-12:
            raise ValueError(f"{name}={v} outside the reference cube [-1,1]^3")
    return shape_functions(ngll, (xi, eta, gamma))


def interpolate_at_point(
    values: np.ndarray, xi: float, eta: float, gamma: float
) -> np.ndarray | float:
    """Interpolate nodal ``values`` (ngll,ngll,ngll[,ncomp]) at one point."""
    values = np.asarray(values)
    ngll = values.shape[0]
    if values.shape[:3] != (ngll, ngll, ngll):
        raise ValueError(f"expected leading (n,n,n) shape, got {values.shape}")
    w = interpolation_weights_3d(ngll, xi, eta, gamma)
    if values.ndim == 3:
        return float(np.einsum("ijk,ijk->", w, values))
    return np.einsum("ijk,ijk...->...", w, values)


def nearest_gll_index(ngll: int, xi: float, eta: float, gamma: float) -> tuple[int, int, int]:
    """Index of the GLL node closest to (xi, eta, gamma) in the reference cube.

    This is the paper's high-resolution station-location shortcut: with a
    dense mesh the distance to the nearest node is geophysically negligible
    and the costly interpolation is skipped entirely.
    """
    nodes, _ = gll_points_and_weights(ngll)
    i = int(np.argmin(np.abs(nodes - xi)))
    j = int(np.argmin(np.abs(nodes - eta)))
    k = int(np.argmin(np.abs(nodes - gamma)))
    return i, j, k
