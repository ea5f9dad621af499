"""Attenuation: standard-linear-solid memory variables in the time loop.

The paper reports that enabling attenuation multiplies runtime by ~1.8x
with an "almost imperceptible" drop in the flops rate — the cost is an
extra strain evaluation plus cheap dense updates of the per-point memory
variables.  This module implements exactly that structure:

* each solid region keeps ``n_sls`` memory tensors ``zeta_j`` tracking the
  deviatoric strain through first-order relaxation
  ``zeta_j' = (y_j eps_dev - zeta_j) / tau_j``, stored as their six
  independent components ``(xx, yy, zz, xy, xz, yz)``;
* the force kernel calls :meth:`AttenuationState.relax` between strain
  and Hooke — the strain is computed once and serves both — and corrects
  its stress by ``-2 mu sum_j zeta_j`` (the anelastic stress relaxation);
* updates use the exact exponential integrator with the end-of-step strain
  (first-order accurate, unconditionally stable), in place.

Only shear (Q_mu) attenuation is modelled; PREM's Q_kappa is 57823 in the
mantle and its effect over the simulated windows is negligible — the same
default choice as SPECFEM3D_GLOBE's standard configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import constants
from ..kernels.weakform import carve
from ..model.attenuation import SLSFit, fit_constant_q

__all__ = ["AttenuationState", "build_attenuation"]


@dataclass
class AttenuationState:
    """Memory variables and coefficients for one solid region, one event.

    Attributes
    ----------
    fits : per-Q-bin SLS fits (elements are binned by their Q_mu value)
    bin_of_element : (nspec,) index into ``fits`` per element
    zeta : (n_sls, nspec, 6, n, n, n) memory tensors (deviatoric)
    alpha, y, gain : (n_sls, nspec, 1, 1) per-element coefficients: decay
        factor, anelastic coefficient, and ``(1 - alpha) * y`` folded
    """

    fits: list[SLSFit]
    bin_of_element: np.ndarray
    zeta: np.ndarray
    alpha: np.ndarray
    y: np.ndarray
    gain: np.ndarray

    @property
    def n_sls(self) -> int:
        return self.zeta.shape[0]

    def relax(self, strain: np.ndarray, rows, scratch: np.ndarray) -> np.ndarray:
        """Advance the memory variables of elements ``rows`` one step with
        their current strain and return ``sum_j zeta_j``.

        ``strain`` is the six-component ``(6, nb, npts)`` strain of the
        region's elements ``rows`` — a slice, relaxed in place, or an
        ascending index array (the boundary/interior subsets of the
        overlapped loop), relaxed on a gathered copy and written back;
        only its deviatoric part drives the memory variables.  The
        relaxation is elementwise, so any partition of the region into
        blocks and subsets is bit-identical to one full update provided
        each element appears exactly once per step.  ``scratch`` is
        ``(4, >= nb * 6 * npts)`` work space; the returned ``(nb, 6,
        npts)`` sum (element-major, like ``zeta``) is a view of it.
        """
        nb, npts = strain.shape[1:]
        dev, total, z_rows, tmp = (carve(s, nb, 6, npts) for s in scratch)
        mean = carve(scratch[3], nb, npts)  # shares tmp: dead before tmp is written
        np.add(strain[0], strain[1], out=mean)
        np.add(mean, strain[2], out=mean)
        np.multiply(mean, 1.0 / 3.0, out=mean)
        dev_by_component = dev.transpose(1, 0, 2)
        np.subtract(strain[:3], mean, out=dev_by_component[:3])
        np.copyto(dev_by_component[3:], strain[3:])
        in_place = isinstance(rows, slice)
        zeta = self.zeta.reshape(self.n_sls, -1, 6, npts)
        for j in range(self.n_sls):
            if in_place:
                z = zeta[j, rows]
            else:
                z = np.take(zeta[j], rows, axis=0, out=z_rows, mode="clip")
            # zeta <- alpha zeta + (1 - alpha) y dev   (exponential relaxation)
            np.multiply(z, self.alpha[j, rows], out=z)
            np.multiply(dev, self.gain[j, rows], out=tmp)
            np.add(z, tmp, out=z)
            if not in_place:
                self.zeta[j, rows] = z.reshape(nb, *self.zeta.shape[2:])
            if j == 0:
                np.copyto(total, z)
            else:
                np.add(total, z, out=total)
        return total


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
    alpha = np.empty((n_sls, nspec, 1, 1))
    y = np.empty_like(alpha)
    for b, fit in enumerate(fits):
        mask = bin_of == b
        a = np.exp(-dt / fit.tau_sigma)
        for j in range(n_sls):
            alpha[j, mask] = a[j]
            y[j, mask] = fit.y[j]
    return AttenuationState(
        fits=fits,
        bin_of_element=bin_of,
        zeta=np.zeros((n_sls, nspec, 6, n, n, n)),
        alpha=alpha,
        y=y,
        gain=(1.0 - alpha) * y,
    )
