"""Elastic internal-force kernels — the routines that dominate the runtime.

Section 4.3 of the paper: more than 70% of solver time is spent computing
internal forces in the solid regions, as small (5x5) matrix products along
the three cutplane directions of each element's 5x5x5 block.  The paper
compares three implementations: plain scalar loops ("regular Fortran"),
manual SSE/Altivec vector code (15-20% faster), and per-matrix BLAS SGEMM
calls (significantly *slower*, because call overhead and cutplane memory
copies dominate for 5x5 matrices).

This module provides the analogous three variants:

* ``baseline``  — per-element NumPy (one element at a time): the scalar
  analog, paying interpreter/dispatch overhead per element;
* ``vectorized`` — all elements batched in single einsum contractions:
  the vector-unit analog, amortising overhead across the whole slice;
* ``blas``      — per-cutplane ``np.dot`` calls on (copied, aligned) 5x5
  matrices: the tiny-GEMM analog with per-call overhead.

All variants compute the identical weak-form term

    accel -= B^T sigma(B u)

and agree to roundoff; :mod:`tests` verify this against an independent
pure-Python reference (:mod:`repro.kernels.reference`).

Every kernel here is single-event: it takes one event's local field
``(nspec, n, n, n, 3)``.  The event loop of a multi-event run lives in
:class:`repro.solver.solver.GlobalSolver`, which calls these kernels on
``displ[b]`` views (docs/batching.md).
"""

from __future__ import annotations

import numpy as np

from ..gll.lagrange import GLLBasis
from .geometry import ElementGeometry

__all__ = [
    "KERNEL_VARIANTS",
    "compute_forces_elastic",
    "compute_strain",
    "displacement_gradient",
    "stress_from_strain",
]

KERNEL_VARIANTS = ("baseline", "vectorized", "blas")


def compute_strain(  # repro: hot-loop
    u: np.ndarray, geom: ElementGeometry, basis: GLLBasis
) -> np.ndarray:
    """Symmetric strain tensor at every GLL point: (nspec, n, n, n, 3, 3).

    Used by the attenuation memory-variable update, which needs the
    deviatoric strain separately from the force computation.
    """
    grad = displacement_gradient(u, geom, basis)
    return 0.5 * (grad + np.swapaxes(grad, -1, -2))


def stress_from_strain(  # repro: hot-loop
    strain: np.ndarray, lam: np.ndarray, mu: np.ndarray
) -> np.ndarray:
    """Isotropic Hooke's law: sigma = lambda tr(eps) I + 2 mu eps."""
    trace = np.trace(strain, axis1=-2, axis2=-1)
    sigma = 2.0 * mu[..., None, None] * strain
    idx = np.arange(3)
    sigma[..., idx, idx] += (lam * trace)[..., None]
    return sigma


def compute_forces_elastic(  # repro: hot-loop
    u: np.ndarray,
    geom: ElementGeometry,
    lam: np.ndarray,
    mu: np.ndarray,
    basis: GLLBasis,
    variant: str = "vectorized",
    stress_correction: np.ndarray | None = None,
) -> np.ndarray:
    """Elemental internal-force contributions to the acceleration.

    Parameters
    ----------
    u : (nspec, n, n, n, 3) local displacement (gathered through ibool)
    geom : precomputed :class:`ElementGeometry`
    lam, mu : (nspec, n, n, n) Lame parameters at the GLL points
    basis : the GLL basis bundle
    variant : one of :data:`KERNEL_VARIANTS`
    stress_correction : optional (nspec, n, n, n, 3, 3) tensor subtracted
        from the stress before integration (attenuation memory terms)

    Returns
    -------
    (nspec, n, n, n, 3) local force array, to be assembled (summed via
    ibool) and divided by the mass matrix.  Sign convention: this is the
    right-hand side ``-K u`` directly.
    """
    if u.ndim == 6:
        # (B, nspec, n, n, n, 3) as a plain loop over this function, kept
        # ONLY because benchmarks/ledger/adapter.py::KernelProbe.elastic_b4
        # (kernels.probe_elastic_b4_ms) calls it and the PR that hoisted
        # the event loop into GlobalSolver could not touch the ledger; a
        # later benchmark PR should loop in the probe and delete this arm.
        return np.stack(
            [
                compute_forces_elastic(
                    u[b], geom, lam, mu, basis, variant,
                    None if stress_correction is None else stress_correction[b],
                )
                for b in range(u.shape[0])
            ]
        )
    if variant == "vectorized":
        return _forces_vectorized(u, geom, lam, mu, basis, stress_correction)
    if variant == "baseline":
        return _forces_baseline(u, geom, lam, mu, basis, stress_correction)
    if variant == "blas":
        return _forces_blas(u, geom, lam, mu, basis, stress_correction)
    raise ValueError(
        f"unknown kernel variant {variant!r}; valid: {KERNEL_VARIANTS}"
    )


# --------------------------------------------------------------------------
# Vectorized (all elements at once) implementation — the SSE/Altivec analog.
# --------------------------------------------------------------------------


def displacement_gradient(  # repro: hot-loop
    u: np.ndarray, geom: ElementGeometry, basis: GLLBasis
) -> np.ndarray:
    """du_c/dx_d at every point, (nspec, n, n, n, 3, 3) with [c, d]."""
    h = basis.hprime
    t1 = np.einsum("il,eljkc->eijkc", h, u)
    t2 = np.einsum("jl,eilkc->eijkc", h, u)
    t3 = np.einsum("kl,eijlc->eijkc", h, u)
    t = np.stack([t1, t2, t3], axis=-2)  # (..., l, c)
    # G[c, d] = sum_l t[l, c] * dxi_l/dx_d
    return np.einsum("eijklc,eijkld->eijkcd", t, geom.inv_jacobian)


def _assemble_weak_divergence(  # repro: hot-loop
    flux: np.ndarray, basis: GLLBasis
) -> np.ndarray:
    """Contract weighted fluxes back with hprime^T: the -B^T step.

    ``flux`` has shape (nspec, n, n, n, l, c): the jacobian-scaled stress
    projected on reference axis l.  Returns (nspec, n, n, n, c).
    """
    hw = basis.hprime_wgll  # hw[l, i] = w_l * h[l, i]
    w = basis.weights
    t1 = np.einsum("li,eljkc->eijkc", hw, flux[..., 0, :])
    t1 *= w[None, None, :, None, None] * w[None, None, None, :, None]
    t2 = np.einsum("lj,eilkc->eijkc", hw, flux[..., 1, :])
    t2 *= w[None, :, None, None, None] * w[None, None, None, :, None]
    t3 = np.einsum("lk,eijlc->eijkc", hw, flux[..., 2, :])
    t3 *= w[None, :, None, None, None] * w[None, None, :, None, None]
    return -(t1 + t2 + t3)


def _forces_vectorized(  # repro: hot-loop
    u: np.ndarray,
    geom: ElementGeometry,
    lam: np.ndarray,
    mu: np.ndarray,
    basis: GLLBasis,
    stress_correction: np.ndarray | None,
) -> np.ndarray:
    grad = displacement_gradient(u, geom, basis)
    strain = 0.5 * (grad + np.swapaxes(grad, -1, -2))
    sigma = stress_from_strain(strain, lam, mu)
    if stress_correction is not None:
        sigma = sigma - stress_correction
    # flux[l, c] = J * sum_d sigma[c, d] * dxi_l/dx_d
    flux = np.einsum("eijkcd,eijkld->eijklc", sigma, geom.inv_jacobian)
    flux *= geom.jacobian[..., None, None]
    return _assemble_weak_divergence(flux, basis)


# --------------------------------------------------------------------------
# Baseline (per-element) implementation — the scalar-loop analog.
# --------------------------------------------------------------------------


def _forces_baseline(  # repro: hot-loop
    u: np.ndarray,
    geom: ElementGeometry,
    lam: np.ndarray,
    mu: np.ndarray,
    basis: GLLBasis,
    stress_correction: np.ndarray | None,
) -> np.ndarray:
    out = np.empty_like(u)
    for e in range(u.shape[0]):
        correction = (
            stress_correction[e : e + 1] if stress_correction is not None else None
        )
        sub_geom = ElementGeometry(
            inv_jacobian=geom.inv_jacobian[e : e + 1],
            jacobian=geom.jacobian[e : e + 1],
            jweight=geom.jweight[e : e + 1],
        )
        out[e] = _forces_vectorized(
            u[e : e + 1], sub_geom, lam[e : e + 1], mu[e : e + 1], basis, correction
        )[0]
    return out


# --------------------------------------------------------------------------
# BLAS-style implementation — tiny GEMM calls per cutplane, with copies.
# --------------------------------------------------------------------------


def _forces_blas(  # repro: hot-loop
    u: np.ndarray,
    geom: ElementGeometry,
    lam: np.ndarray,
    mu: np.ndarray,
    basis: GLLBasis,
    stress_correction: np.ndarray | None,
) -> np.ndarray:
    """Same math, but each 5x5 product is an individual ``np.dot`` call on
    an explicitly copied (aligned) 2-D block — the paper's "call BLAS for
    each small matrix" strategy, including the extra cutplane copies for
    the non-contiguous directions."""
    h = np.ascontiguousarray(basis.hprime)
    nspec, n = u.shape[0], u.shape[1]
    # Deliberately allocated per call: this variant reproduces the paper's
    # slow tiny-GEMM strategy, copies and all — do not "optimise" it.
    t = np.empty((nspec, n, n, n, 3, 3), dtype=np.float64)  # repro: disable=R3
    for e in range(nspec):
        for c in range(3):
            block = u[e, :, :, :, c]
            for k in range(n):
                # d/dxi: contiguous cutplane (·, ·) at fixed k.
                t[e, :, :, k, 0, c] = np.dot(h, np.ascontiguousarray(block[:, :, k]))
            for k in range(n):
                # d/deta: needs a transpose copy first (non-aligned block).
                plane = np.ascontiguousarray(block[:, :, k].T)
                t[e, :, :, k, 1, c] = np.dot(h, plane).T
            for i in range(n):
                # d/dgamma: cut along the slowest axis, copy then dot.
                plane = np.ascontiguousarray(block[i, :, :].T)
                t[e, i, :, :, 2, c] = np.dot(h, plane).T
    grad = np.einsum("eijklc,eijkld->eijkcd", t, geom.inv_jacobian)
    strain = 0.5 * (grad + np.swapaxes(grad, -1, -2))
    sigma = stress_from_strain(strain, lam, mu)
    if stress_correction is not None:
        sigma = sigma - stress_correction
    flux = np.einsum("eijkcd,eijkld->eijklc", sigma, geom.inv_jacobian)
    flux *= geom.jacobian[..., None, None]

    hw = np.ascontiguousarray(basis.hprime_wgll.T)  # hw.T[i, l] = w_l h[l, i]
    w = basis.weights
    out = np.empty_like(u)
    for e in range(nspec):
        for c in range(3):
            acc = np.zeros((n, n, n))  # repro: disable=R3 - paper's slow variant
            f1 = flux[e, :, :, :, 0, c]
            f2 = flux[e, :, :, :, 1, c]
            f3 = flux[e, :, :, :, 2, c]
            for k in range(n):
                acc[:, :, k] += (
                    np.dot(hw, np.ascontiguousarray(f1[:, :, k]))
                    * w[None, :]
                    * w[k]
                )
            for k in range(n):
                plane = np.ascontiguousarray(f2[:, :, k].T)
                acc[:, :, k] += (
                    np.dot(hw, plane).T * w[:, None] * w[k]
                )
            for i in range(n):
                plane = np.ascontiguousarray(f3[i, :, :].T)
                acc[i, :, :] += np.dot(hw, plane).T * (w[i] * w[:, None])
            out[e, :, :, :, c] = -acc
    return out
