"""Attenuation: fitting constant Q with standard linear solids (SLS).

SPECFEM3D_GLOBE models anelasticity ("loss of energy due to the fact that
the rocks are viscoelastic", Section 6 of the paper) with a small series of
standard linear solids whose relaxation times are chosen so the composite
quality factor is approximately constant over the simulated frequency band.
Each SLS contributes one *memory variable* per strain component per GLL
point, which is why turning attenuation on costs the paper a 1.8x runtime
increase while barely changing the flops rate: the extra work is cheap
multiply-adds on extra state.

This module computes, for a target Q and band:

* the stress relaxation times ``tau_sigma`` (log-spaced over the band),
* the per-SLS anelastic coefficients ``y`` from a non-negative
  least-squares fit of 1/Q(omega),
* the unrelaxed-modulus scale factor, and
* the exponential time-update coefficients for the memory variables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from ..config import constants

__all__ = ["SLSFit", "fit_constant_q", "q_of_omega"]


@dataclass(frozen=True)
class SLSFit:
    """A fitted standard-linear-solid approximation of constant Q.

    Attributes
    ----------
    q_target : the constant quality factor being approximated
    tau_sigma : stress relaxation times of each SLS (s), shape (n_sls,)
    y : anelastic coefficients (modulus-defect fractions), shape (n_sls,)
    f_min, f_max : frequency band of validity (Hz)
    """

    q_target: float
    tau_sigma: np.ndarray
    y: np.ndarray
    f_min: float
    f_max: float

    @property
    def n_sls(self) -> int:
        return self.tau_sigma.size

    @property
    def one_minus_sum_beta(self) -> float:
        """Unrelaxed -> relaxed modulus factor ``1 - sum_j y_j``."""
        return float(1.0 - self.y.sum())

    def memory_update_coefficients(self, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact exponential integrator coefficients for the memory ODE.

        The memory variable of SLS j obeys
        ``dR_j/dt = -R_j / tau_j + (y_j / tau_j) * mu * strain_rate_term``;
        over one step the update is
        ``R_j^{n+1} = alpha_j R_j^n + beta_j S^n + gamma_j S^{n+1}``
        with S the source term, using the midpoint/trapezoidal exponential
        scheme.  Returns (alpha, beta, gamma), each shape (n_sls,).
        """
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        tau = self.tau_sigma
        alpha = np.exp(-dt / tau)
        # Trapezoidal weights of the exact exponential integrator.
        beta = (1.0 - alpha) * 0.5
        gamma = (1.0 - alpha) * 0.5
        return alpha, beta, gamma

    def q_at(self, freq_hz: np.ndarray | float) -> np.ndarray | float:
        """Effective Q of the composite solid at the given frequencies."""
        return q_of_omega(2.0 * np.pi * np.asarray(freq_hz), self.tau_sigma, self.y)


def q_of_omega(omega: np.ndarray, tau_sigma: np.ndarray, y: np.ndarray):
    """Quality factor of an SLS series at angular frequencies ``omega``.

    Uses the standard first-order-in-1/Q expression
    ``1/Q(w) = sum_j y_j * w tau_j / (1 + w^2 tau_j^2)``.
    """
    omega = np.asarray(omega, dtype=np.float64)
    wt = omega[..., None] * tau_sigma[None, :]
    inv_q = np.sum(y[None, :] * wt / (1.0 + wt**2), axis=-1)
    with np.errstate(divide="ignore"):
        return np.where(inv_q > 0, 1.0 / np.maximum(inv_q, 1e-300), np.inf)


def fit_constant_q(
    q_target: float,
    f_min: float,
    f_max: float,
    n_sls: int = constants.N_SLS,
    n_fit_frequencies: int = 100,
) -> SLSFit:
    """Fit ``n_sls`` standard linear solids to a constant Q over [f_min, f_max].

    Relaxation times are logarithmically spaced across the band (the
    SPECFEM recipe); the coefficients y_j are obtained by non-negative
    least squares on 1/Q sampled log-uniformly over the band.  Typical
    accuracy with 3 SLS is a few percent across one decade of frequency.
    """
    if q_target <= 0:
        raise ValueError(f"Q must be positive, got {q_target}")
    if not 0 < f_min < f_max:
        raise ValueError(f"need 0 < f_min < f_max, got [{f_min}, {f_max}]")
    if n_sls < 1:
        raise ValueError(f"need at least one SLS, got {n_sls}")
    # Log-spaced relaxation frequencies covering the band.
    if n_sls == 1:
        f_relax = np.array([np.sqrt(f_min * f_max)])
    else:
        f_relax = np.geomspace(f_min, f_max, n_sls)
    tau_sigma = 1.0 / (2.0 * np.pi * f_relax)

    omega = 2.0 * np.pi * np.geomspace(f_min, f_max, n_fit_frequencies)
    wt = omega[:, None] * tau_sigma[None, :]
    design = wt / (1.0 + wt**2)
    target = np.full(omega.size, 1.0 / q_target)
    y, _residual = nnls(design, target)
    return SLSFit(
        q_target=float(q_target),
        tau_sigma=tau_sigma,
        y=y,
        f_min=float(f_min),
        f_max=float(f_max),
    )
