"""Pointwise body-force terms: rotation (Coriolis) and self-gravitation.

SPECFEM3D_GLOBE's full treatment couples rotation into the fluid-core
potential equations and integrates the linearised gravity terms in the
stiffness routines.  This reproduction applies both as mass-weighted
pointwise (collocated strong-form) terms in the *solid* regions:

* rotation:  ``f = -2 rho (Omega x v)``                 (Coriolis)
* gravity:   ``f = rho g(r) [ rhat (div s) - grad(s_r) ]``
  — a Cowling-approximation restoring force built from the same spectral
  gradients the force kernel uses.

Both are small corrections at the frequencies of interest; the point of
carrying them is to exercise the corresponding code paths and flop counts
(DESIGN.md documents the substitution).
"""

from __future__ import annotations

import numpy as np

from ..gll.lagrange import GLLBasis
from ..kernels.elastic import displacement_gradient
from ..kernels.geometry import ElementGeometry

__all__ = ["coriolis_local_force", "gravity_local_force"]


def coriolis_local_force(
    veloc_local: np.ndarray,
    rho: np.ndarray,
    geom: ElementGeometry,
    omega_vector: np.ndarray,
) -> np.ndarray:
    """Mass-weighted Coriolis contribution: -2 rho (Omega x v) J w.

    ``veloc_local`` is (nspec, n, n, n, 3); returns the same shape, ready
    to scatter-add into the assembled force vector.
    """
    omega = np.asarray(omega_vector, dtype=np.float64)
    if omega.shape != (3,):
        raise ValueError(f"omega must be a 3-vector, got {omega.shape}")
    coriolis = -2.0 * np.cross(np.broadcast_to(omega, veloc_local.shape), veloc_local)
    return coriolis * (rho * geom.jweight)[..., None]


def gravity_local_force(
    displ_local: np.ndarray,
    xyz: np.ndarray,
    rho: np.ndarray,
    g_of_point: np.ndarray,
    geom: ElementGeometry,
    basis: GLLBasis,
) -> np.ndarray:
    """Cowling-approximation gravity restoring force (see module docstring).

    Parameters
    ----------
    displ_local : (nspec, n, n, n, 3) displacement at GLL points
    xyz : (nspec, n, n, n, 3) coordinates (for the radial direction)
    g_of_point : (nspec, n, n, n) gravitational acceleration magnitude
    """
    r = np.linalg.norm(xyz, axis=-1)
    r_safe = np.where(r > 0, r, 1.0)
    rhat = xyz / r_safe[..., None]
    grad = displacement_gradient(displ_local, geom, basis)
    div_s = np.trace(grad, axis1=-2, axis2=-1)
    # grad(s_r) ~ grad(s . rhat): use the gradient of the radial component
    # treating rhat as locally constant plus the curvature term (s_t / r):
    # d(s.rhat)/dx_d = rhat_c grad[c,d] + (s_d - s_r rhat_d) / r.
    s_r = np.einsum("...c,...c->...", displ_local, rhat)
    grad_sr = np.einsum("...c,...cd->...d", rhat, grad)
    grad_sr += (displ_local - s_r[..., None] * rhat) / r_safe[..., None]
    force = rhat * div_s[..., None] - grad_sr
    return force * (rho * g_of_point * geom.jweight)[..., None]
