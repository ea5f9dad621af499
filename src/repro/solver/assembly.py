"""Global assembly: gather/scatter through ``ibool`` and mass matrices.

The assembly stage — summing elemental contributions at shared global
points (Figure 3 of the paper) — is the step that becomes MPI communication
at slice boundaries.  Within a slice (or the merged serial mesh) it is a
scatter-add, implemented with ``np.bincount`` per component, which is far
faster than ``np.add.at`` for the SEM's many-repeats index pattern.
"""

from __future__ import annotations

import numpy as np

from ..kernels.geometry import ElementGeometry

__all__ = [
    "gather",
    "scatter_add",
    "assemble_mass_matrix",
    "assemble_scalar_mass_matrix",
]


def gather(
    global_field: np.ndarray, ibool: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Global -> local: (nglob[, c]) -> (nspec, n, n, n[, c]), into
    ``out`` when given (``ibool`` indexes its own region, so the unchecked
    ``clip`` mode applies: the default mode buffers ``out``)."""
    if out is None:
        return global_field[ibool]
    return np.take(global_field, ibool, axis=0, out=out, mode="clip")


def scatter_add(
    local_field: np.ndarray,
    ibool: np.ndarray,
    nglob: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Local -> global sum: the assembly of the paper's Section 2.4.

    ``local_field`` is (nspec, n, n, n) or (nspec, n, n, n, ncomp);
    returns (nglob,) or (nglob, ncomp).  ``out`` is a destination of that
    shape to overwrite (the solver passes one event's row of its
    preallocated force buffer) instead of a freshly allocated result.
    """
    idx = ibool.ravel()
    if out is None:
        out = np.empty((nglob, *local_field.shape[ibool.ndim:]))
    if local_field.ndim == ibool.ndim:
        out[:] = np.bincount(idx, weights=local_field.ravel(), minlength=nglob)
        return out
    ncomp = local_field.shape[-1]
    flat = local_field.reshape(-1, ncomp)
    for c in range(ncomp):
        out[:, c] = np.bincount(idx, weights=flat[:, c], minlength=nglob)
    return out


def assemble_mass_matrix(
    rho: np.ndarray,
    geom: ElementGeometry,
    ibool: np.ndarray,
    nglob: int,
) -> np.ndarray:
    """Diagonal solid mass matrix: M_g = sum over elements of rho J w.

    Diagonal *by construction* (GLL collocation), the property that lets
    the SEM march explicitly with no linear solver (Section 2.4).
    """
    local = rho * geom.jweight
    mass = scatter_add(local, ibool, nglob)
    if np.any(mass <= 0.0):
        raise ValueError("mass matrix has non-positive entries")
    return mass


def assemble_scalar_mass_matrix(
    kappa_inv: np.ndarray,
    geom: ElementGeometry,
    ibool: np.ndarray,
    nglob: int,
) -> np.ndarray:
    """Fluid (potential) mass matrix: M_g = sum of (1/kappa) J w."""
    local = kappa_inv * geom.jweight
    mass = scatter_add(local, ibool, nglob)
    if np.any(mass <= 0.0):
        raise ValueError("fluid mass matrix has non-positive entries")
    return mass
