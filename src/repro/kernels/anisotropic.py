"""Transversely isotropic (radially anisotropic) elastic kernel.

The paper's abstract promises "3D anelastic, *anisotropic* ... Earth
models": PREM itself is transversely isotropic with a radial symmetry
axis between the Moho and 220 km depth, described by the five Love
parameters

    A = rho*vph^2,  C = rho*vpv^2,  L = rho*vsv^2,  N = rho*vsh^2,
    F = eta*(A - 2L).

The stress is evaluated in a local radial frame (symmetry axis = rhat;
the transverse axes are arbitrary because TI is azimuthally symmetric),
rotated back to Cartesian, and pushed through the same routine as the
isotropic kernel: :class:`TIElasticOperator` is
:class:`repro.kernels.elastic.ElasticOperator` with a different Hooke
step.  That step alone leaves the component-leading layout and
allocates (it is on no measured workload).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gll.lagrange import GLLBasis
from .elastic import ElasticOperator
from .geometry import ElementGeometry
from .weakform import Workspace

__all__ = [
    "TIModuli",
    "TIElasticOperator",
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
    eps = np.einsum("...ia,...ij,...jb->...ab", frames, strain, frames)  # repro: disable=R3 - off-ledger
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
    return np.einsum("...ia,...ab,...jb->...ij", frames, sig, frames)  # repro: disable=R3 - off-ledger


#: Six-component index of tensor entry [c, d], order (xx, yy, zz, xy, xz, yz).
_SIX = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])


class TIElasticOperator(ElasticOperator):
    """The elastic routine with the TI Hooke step.  ``lam``/``mu`` are the
    isotropic pair of the region; only ``mu`` is read, by the anelastic
    correction ``2 mu sum_j zeta_j`` the memory variables subtract."""

    def __init__(
        self,
        geom: ElementGeometry,
        lam: np.ndarray,
        mu: np.ndarray,
        moduli: TIModuli,
        frames: np.ndarray,
        basis: GLLBasis,
    ):
        super().__init__(geom, lam, mu, basis)

        def per_point(a):
            return a.reshape(self.nspec, self.npts, *a.shape[4:])

        self.jweight = per_point(geom.jweight)
        self.frames = per_point(frames)
        self.love = [per_point(getattr(moduli, k)) for k in "ACLNF"]

    def _hooke(self, strain, trace, memory, stress, lo, hi) -> None:  # repro: hot-loop
        eps = np.moveaxis(strain[_SIX], (0, 1), (-2, -1))  # (nb, npts, 3, 3)
        moduli = TIModuli(*(m[lo:hi] for m in self.love))
        sigma = stress_ti(eps, moduli, self.frames[lo:hi])
        sigma *= self.jweight[lo:hi, :, None, None]
        if memory is not None:
            correction = np.moveaxis(memory, 1, -1)[..., _SIX]
            sigma -= self.mu2_jw[lo:hi, :, None, None] * correction
        np.copyto(stress.reshape(3, 3, *eps.shape[:2]), np.moveaxis(sigma, (-2, -1), (0, 1)))


def compute_forces_elastic_ti(  # repro: hot-loop
    u: np.ndarray,
    geom: ElementGeometry,
    moduli: TIModuli,
    frames: np.ndarray,
    basis: GLLBasis,
) -> np.ndarray:
    """Transversely isotropic analogue of
    :func:`repro.kernels.elastic.compute_forces_elastic` (the stateless
    form of :class:`TIElasticOperator`; without a memory hook the
    isotropic pair is never read, so its isotropic embedding stands in).
    """
    out = np.empty_like(u, order="C")
    TIElasticOperator(geom, moduli.F, moduli.L, moduli, frames, basis).apply(
        u, out, None, Workspace(basis.ngll)
    )
    return out
