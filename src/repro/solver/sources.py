"""Earthquake sources: moment tensors, point forces, source-time functions.

The earthquake is the point source of Equation (3) of the paper: a moment
tensor M at location x_s with source-time function S(t).  In the weak form
the moment-tensor term integrates to ``M : grad(w)(x_s)`` — evaluated here
by differentiating the Lagrange basis of the host element at the source's
reference coordinates, exactly as SPECFEM precomputes its ``sourcearray``.

Sources are strictly per-event objects.  A run carries one list of
sources per event (see :mod:`repro.solver.fields`); the solver
precomputes each event's ``sourcearray`` with the functions here and
injects event ``b``'s amplitudes only into force row ``force[b]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..gll.lagrange import lagrange_basis, lagrange_basis_derivative
from ..gll.quadrature import gll_points_and_weights

__all__ = [
    "gaussian_stf",
    "ricker_stf",
    "step_stf",
    "MomentTensorSource",
    "PointForceSource",
    "moment_tensor_source_array",
    "point_force_source_array",
]


def gaussian_stf(half_duration: float) -> Callable[[float], float]:
    """Normalised Gaussian pulse (SPECFEM's default quasi-Dirac)."""
    if half_duration <= 0:
        raise ValueError("half_duration must be positive")
    a = 1.0 / half_duration

    def stf(t: float) -> float:
        return a / math.sqrt(math.pi) * math.exp(-((a * t) ** 2))

    return stf


def ricker_stf(dominant_frequency: float) -> Callable[[float], float]:
    """Ricker (Mexican-hat) wavelet with the given dominant frequency."""
    if dominant_frequency <= 0:
        raise ValueError("dominant_frequency must be positive")
    a = (math.pi * dominant_frequency) ** 2

    def stf(t: float) -> float:
        return (1.0 - 2.0 * a * t * t) * math.exp(-a * t * t)

    return stf


def step_stf(half_duration: float) -> Callable[[float], float]:
    """Smooth step (error function): the far-field displacement source."""
    if half_duration <= 0:
        raise ValueError("half_duration must be positive")

    def stf(t: float) -> float:
        return 0.5 * (1.0 + math.erf(t / half_duration))

    return stf


@dataclass(frozen=True)
class MomentTensorSource:
    """A CMT-style point source.

    ``moment`` is the symmetric 3x3 moment tensor in N m (Cartesian frame);
    ``position`` the Cartesian source location (same units as the mesh);
    ``time_shift`` delays the source-time function.
    """

    position: tuple[float, float, float]
    moment: np.ndarray
    stf: Callable[[float], float]
    time_shift: float = 0.0

    def __post_init__(self) -> None:
        m = np.asarray(self.moment, dtype=np.float64)
        if m.shape != (3, 3):
            raise ValueError(f"moment tensor must be 3x3, got {m.shape}")
        if not np.allclose(m, m.T, atol=1e-6 * max(1.0, float(np.abs(m).max()))):
            raise ValueError("moment tensor must be symmetric")

    def amplitude(self, t: float) -> float:
        return self.stf(t - self.time_shift)

    @property
    def scalar_moment(self) -> float:
        """M0 = ||M||_F / sqrt(2), the usual scalar moment."""
        m = np.asarray(self.moment)
        return float(np.linalg.norm(m) / np.sqrt(2.0))


@dataclass(frozen=True)
class PointForceSource:
    """A simple directed point force (useful for validation problems)."""

    position: tuple[float, float, float]
    force: tuple[float, float, float]
    stf: Callable[[float], float]
    time_shift: float = 0.0

    def amplitude(self, t: float) -> float:
        return self.stf(t - self.time_shift)


def moment_tensor_source_array(
    moment: np.ndarray,
    element_xyz: np.ndarray,
    inv_jacobian_at_source: np.ndarray,
    xi: float,
    eta: float,
    gamma: float,
) -> np.ndarray:
    """Precompute the elemental source array for a moment tensor.

    The weak-form source term is ``f_w = M : grad(w)(x_s)``; for the test
    function attached to local node (i, j, k) and component c it equals
    ``sum_d M[c, d] * d(l_i l_j l_k)/dx_d (x_s)``.

    Parameters
    ----------
    moment : (3, 3) tensor
    element_xyz : (n, n, n, 3) host element GLL coordinates (for n only)
    inv_jacobian_at_source : (3, 3) d(xi_l)/d(x_c) at the source point
    xi, eta, gamma : source reference coordinates in the host element

    Returns
    -------
    (n, n, n, 3) array to be scaled by S(t) and scatter-added into accel.
    """
    n = element_xyz.shape[0]
    nodes, _ = gll_points_and_weights(n)
    hx = lagrange_basis(nodes, xi)
    hy = lagrange_basis(nodes, eta)
    hz = lagrange_basis(nodes, gamma)
    dhx = lagrange_basis_derivative(nodes, xi)
    dhy = lagrange_basis_derivative(nodes, eta)
    dhz = lagrange_basis_derivative(nodes, gamma)
    # d(basis_ijk)/d(xi_l): tensor products.
    dref = np.stack(
        [
            dhx[:, None, None] * hy[None, :, None] * hz[None, None, :],
            hx[:, None, None] * dhy[None, :, None] * hz[None, None, :],
            hx[:, None, None] * hy[None, :, None] * dhz[None, None, :],
        ],
        axis=-1,
    )  # (n, n, n, l)
    # d(basis)/dx_d = sum_l dref_l * d(xi_l)/dx_d
    dphys = np.einsum("ijkl,ld->ijkd", dref, inv_jacobian_at_source)
    moment = np.asarray(moment, dtype=np.float64)
    return np.einsum("cd,ijkd->ijkc", moment, dphys)


def point_force_source_array(
    force: np.ndarray,
    ngll: int,
    xi: float,
    eta: float,
    gamma: float,
) -> np.ndarray:
    """Elemental source array for a point force: ``F * basis(x_s)``."""
    nodes, _ = gll_points_and_weights(ngll)
    hx = lagrange_basis(nodes, xi)
    hy = lagrange_basis(nodes, eta)
    hz = lagrange_basis(nodes, gamma)
    basis = hx[:, None, None] * hy[None, :, None] * hz[None, None, :]
    return basis[..., None] * np.asarray(force, dtype=np.float64)
