"""Attenuation: standard-linear-solid memory variables in the time loop.

The paper reports that enabling attenuation multiplies runtime by ~1.8x
with an "almost imperceptible" drop in the flops rate — the cost is an
extra strain evaluation plus cheap dense updates of the per-point memory
variables.  This module implements exactly that structure:

* each solid region keeps ``n_sls`` memory tensors ``zeta_j`` tracking the
  deviatoric strain through first-order relaxation
  ``zeta_j' = (y_j eps_dev - zeta_j) / tau_j``;
* the stress passed to the force kernel is corrected by
  ``-2 mu sum_j zeta_j`` (the anelastic stress relaxation);
* updates use the exact exponential integrator with the end-of-step strain
  (first-order accurate, unconditionally stable).

Only shear (Q_mu) attenuation is modelled; PREM's Q_kappa is 57823 in the
mantle and its effect over the simulated windows is negligible — the same
default choice as SPECFEM3D_GLOBE's standard configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import constants
from ..model.attenuation import SLSFit, fit_constant_q

__all__ = ["AttenuationState", "build_attenuation"]


@dataclass
class AttenuationState:
    """Memory variables and coefficients for one solid region, one event.

    Attributes
    ----------
    fits : per-Q-bin SLS fits (elements are binned by their Q_mu value)
    bin_of_element : (nspec,) index into ``fits`` per element
    zeta : (n_sls, nspec, n, n, n, 3, 3) memory tensors (deviatoric)
    alpha, weight : (n_sls, nspec, 1, 1, 1) update coefficients per element
    """

    fits: list[SLSFit]
    bin_of_element: np.ndarray
    zeta: np.ndarray
    alpha: np.ndarray
    weight: np.ndarray
    y: np.ndarray  # (n_sls, nspec, 1, 1, 1) anelastic coefficients

    @property
    def n_sls(self) -> int:
        return self.zeta.shape[0]

    def update(self, strain: np.ndarray, elements=slice(None)) -> None:
        """Advance memory variables one step with the current strain.

        ``strain`` is (nspec, n, n, n, 3, 3) on ``elements`` — the whole
        region by default, or an ascending element-index array; only its
        deviatoric part drives the memory variables.  The overlapped
        time loop advances boundary and interior elements in two passes;
        the relaxation is elementwise, so that is bit-identical to one
        full update provided each element appears in exactly one subset
        per step.  A slice indexes ``zeta`` as a view, so the full-region
        update works in place and the write-back below copies nothing.
        """
        dev = strain.copy()
        trace_third = np.trace(strain, axis1=-2, axis2=-1) / 3.0
        idx = np.arange(3)
        dev[..., idx, idx] -= trace_third[..., None]
        # zeta <- alpha zeta + (1 - alpha) y dev   (exponential relaxation)
        zeta = self.zeta[:, elements]
        zeta *= self.alpha[:, elements][..., None, None]
        zeta += (
            (self.weight[:, elements] * self.y[:, elements])[..., None, None]
            * dev[None, ...]
        )
        self.zeta[:, elements] = zeta

    def stress_correction(
        self, mu: np.ndarray, elements=slice(None)
    ) -> np.ndarray:
        """Anelastic stress to subtract on ``elements`` (``mu`` already
        sliced to them): 2 mu sum_j zeta_j."""
        return 2.0 * mu[..., None, None] * self.zeta[:, elements].sum(axis=0)


def build_attenuation(
    q_mu: np.ndarray,
    dt: float,
    f_min: float,
    f_max: float,
    n_sls: int = constants.N_SLS,
    n_q_bins: int = 6,
) -> AttenuationState:
    """Build the attenuation state for a solid region.

    ``q_mu`` is the per-GLL-point quality factor from the mesher; elements
    are binned by their median Q (PREM has a handful of distinct Q values,
    so binning is exact in practice) and one SLS fit is shared per bin.
    """
    if q_mu.ndim != 4:
        raise ValueError(f"q_mu must be (nspec, n, n, n), got {q_mu.shape}")
    nspec, n = q_mu.shape[0], q_mu.shape[1]
    q_elem = np.median(q_mu.reshape(nspec, -1), axis=1)
    # Bin by distinct Q values (capped at n_q_bins via quantiles if needed).
    distinct = np.unique(q_elem)
    if distinct.size > n_q_bins:
        edges = np.quantile(q_elem, np.linspace(0, 1, n_q_bins + 1))
        bin_of = np.clip(np.searchsorted(edges, q_elem) - 1, 0, n_q_bins - 1)
        q_rep = np.array(
            [np.median(q_elem[bin_of == b]) if np.any(bin_of == b) else edges[b]
             for b in range(n_q_bins)]
        )
    else:
        q_rep = distinct
        bin_of = np.searchsorted(distinct, q_elem)
    fits = [fit_constant_q(float(q), f_min, f_max, n_sls=n_sls) for q in q_rep]
    alpha = np.empty((n_sls, nspec, 1, 1, 1))
    y = np.empty_like(alpha)
    for b, fit in enumerate(fits):
        mask = bin_of == b
        a = np.exp(-dt / fit.tau_sigma)
        for j in range(n_sls):
            alpha[j, mask] = a[j]
            y[j, mask] = fit.y[j]
    weight = 1.0 - alpha
    return AttenuationState(
        fits=fits,
        bin_of_element=bin_of,
        zeta=np.zeros((n_sls, nspec, n, n, n, 3, 3)),
        alpha=alpha,
        weight=weight,
        y=y,
    )
