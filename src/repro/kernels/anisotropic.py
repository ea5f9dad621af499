"""Transversely isotropic (radially anisotropic) elastic kernel.

The paper's abstract promises "3D anelastic, *anisotropic* ... Earth
models": PREM itself is transversely isotropic with a radial symmetry
axis between the Moho and 220 km depth, described by the five Love
parameters

    A = rho*vph^2,  C = rho*vpv^2,  L = rho*vsv^2,  N = rho*vsh^2,
    F = eta*(A - 2L).

The stress is evaluated in a local radial frame (symmetry axis = rhat;
the transverse axes are arbitrary because TI is azimuthally symmetric),
rotated back to Cartesian, and pushed through the same weak-form -B^T
machinery as the isotropic kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gll.lagrange import GLLBasis
from .elastic import _assemble_weak_divergence, displacement_gradient
from .geometry import ElementGeometry

__all__ = [
    "TIModuli",
    "radial_frames",
    "stress_ti",
    "compute_forces_elastic_ti",
]


@dataclass
class TIModuli:
    """The five Love parameters at every GLL point, shape (nspec, n, n, n).

    ``from_isotropic`` embeds an isotropic medium (useful as a fallback and
    for the equivalence tests): A = C = lambda + 2 mu, L = N = mu,
    F = lambda.
    """

    A: np.ndarray
    C: np.ndarray
    L: np.ndarray
    N: np.ndarray
    F: np.ndarray

    def __post_init__(self) -> None:
        shapes = {arr.shape for arr in (self.A, self.C, self.L, self.N, self.F)}
        if len(shapes) != 1:
            raise ValueError(f"Love parameter shapes differ: {shapes}")
        if np.any(self.A <= 0) or np.any(self.C <= 0):
            raise ValueError("A and C moduli must be positive")
        if np.any(self.L < 0) or np.any(self.N < 0):
            raise ValueError("L and N moduli must be non-negative")

    @classmethod
    def from_isotropic(cls, lam: np.ndarray, mu: np.ndarray) -> "TIModuli":
        return cls(
            A=lam + 2.0 * mu,
            C=(lam + 2.0 * mu).copy(),
            L=mu.copy(),
            N=mu.copy(),
            F=lam.copy(),
        )

    def anisotropy_strength(self) -> float:
        """Max relative deviation from isotropy, e.g. |N - L| / L."""
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = np.where(self.L > 0, np.abs(self.N - self.L) / self.L, 0.0)
        return float(np.max(xi))


def radial_frames(xyz: np.ndarray) -> np.ndarray:
    """Orthonormal local frames with the third axis radial.

    Returns Q of shape (..., 3, 3) whose *columns* are the local axes
    (e1, e2, rhat) expressed in Cartesian coordinates.  The transverse
    axes are built from whichever Cartesian axis is least aligned with
    rhat, which is smooth except at isolated points and irrelevant to the
    azimuthally-symmetric TI stress.
    """
    xyz = np.asarray(xyz, dtype=np.float64)
    r = np.linalg.norm(xyz, axis=-1, keepdims=True)
    if np.any(r == 0):
        raise ValueError("radial frame undefined at the origin")
    rhat = xyz / r
    # Helper axis: the Cartesian unit vector least parallel to rhat.
    helper_index = np.argmin(np.abs(rhat), axis=-1)
    helper = np.zeros_like(rhat)
    np.put_along_axis(helper, helper_index[..., None], 1.0, axis=-1)
    e1 = np.cross(helper, rhat)
    e1 /= np.linalg.norm(e1, axis=-1, keepdims=True)
    e2 = np.cross(rhat, e1)
    return np.stack([e1, e2, rhat], axis=-1)


def stress_ti(  # repro: hot-loop
    strain: np.ndarray, moduli: TIModuli, frames: np.ndarray
) -> np.ndarray:
    """TI Hooke's law: rotate to the radial frame, apply, rotate back.

    ``strain`` and the returned stress are (..., 3, 3) Cartesian tensors;
    ``frames`` is the Q array from :func:`radial_frames`.
    """
    # eps' = Q^T eps Q
    eps = np.einsum("...ia,...ij,...jb->...ab", frames, strain, frames)
    sig = np.zeros_like(eps)
    A, C, L, N, F = moduli.A, moduli.C, moduli.L, moduli.N, moduli.F
    e11, e22, e33 = eps[..., 0, 0], eps[..., 1, 1], eps[..., 2, 2]
    sig[..., 0, 0] = A * e11 + (A - 2.0 * N) * e22 + F * e33
    sig[..., 1, 1] = (A - 2.0 * N) * e11 + A * e22 + F * e33
    sig[..., 2, 2] = F * (e11 + e22) + C * e33
    sig[..., 0, 1] = sig[..., 1, 0] = 2.0 * N * eps[..., 0, 1]
    sig[..., 0, 2] = sig[..., 2, 0] = 2.0 * L * eps[..., 0, 2]
    sig[..., 1, 2] = sig[..., 2, 1] = 2.0 * L * eps[..., 1, 2]
    # sigma = Q sig' Q^T
    return np.einsum("...ia,...ab,...jb->...ij", frames, sig, frames)


def compute_forces_elastic_ti(  # repro: hot-loop
    u: np.ndarray,
    geom: ElementGeometry,
    moduli: TIModuli,
    frames: np.ndarray,
    basis: GLLBasis,
    stress_correction: np.ndarray | None = None,
) -> np.ndarray:
    """Transversely isotropic analogue of
    :func:`repro.kernels.elastic.compute_forces_elastic` (vectorized path).
    """
    grad = displacement_gradient(u, geom, basis)
    strain = 0.5 * (grad + np.swapaxes(grad, -1, -2))
    sigma = stress_ti(strain, moduli, frames)
    if stress_correction is not None:
        sigma = sigma - stress_correction
    flux = np.einsum("eijkcd,eijkld->eijklc", sigma, geom.inv_jacobian)
    flux *= geom.jacobian[..., None, None]
    return _assemble_weak_divergence(flux, basis)
