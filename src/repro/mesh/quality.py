"""Mesh quality and resolution diagnostics.

Computes the two numbers that control any SEM run (Section 3 of the
paper): the *stable time step* from the Courant condition (smallest GLL
point spacing over the local P velocity) and the *shortest resolved
period* from the 5-points-per-wavelength rule on the S (or P in the fluid)
velocity.  Also provides element-shape statistics and the slice load
balance metric used by the central-cube ablation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .element import RegionMesh

__all__ = [
    "MeshResolution",
    "estimate_time_step",
    "stable_time_step_bound",
    "estimate_resolution",
    "element_size_range",
    "load_balance_imbalance",
]


@dataclass(frozen=True)
class MeshResolution:
    """Summary of a mesh's numerical limits."""

    dt_stable: float
    shortest_period: float
    min_gll_spacing: float
    max_element_size: float


def _squared_gll_spacing_per_element(xyz: np.ndarray, reduce: np.ufunc) -> np.ndarray:
    """Per element, ``reduce`` (``np.minimum`` or ``np.maximum``) of the
    squared distance between GLL points adjacent along each of the three
    local axes — the spacing that enters the Courant condition.

    Squared so that a caller takes one ``sqrt`` per element, not one per
    point pair: ``sqrt`` is monotonic and correctly rounded, so the root
    of the extreme square is the extreme distance bit for bit.  Each
    square is the sum ``np.linalg.norm`` takes the root of, summed in its
    order (x, then y, then z).
    """
    out = None
    for axis in (1, 2, 3):
        d = np.diff(xyz, axis=axis)
        squared = d[..., 0] * d[..., 0]
        squared += d[..., 1] * d[..., 1]
        squared += d[..., 2] * d[..., 2]
        extreme = reduce.reduce(squared.reshape(xyz.shape[0], -1), axis=1)
        out = extreme if out is None else reduce(out, extreme)
    return out


def stable_time_step_bound(
    meshes: list[RegionMesh], length_scale: float = 1.0
) -> float:
    """``min(dx_gll / vp)`` over the meshes: the stable explicit time step
    is this times the Courant number (:func:`estimate_time_step`).

    ``length_scale`` converts mesh coordinates to metres (mesh is in km,
    so pass 1000.0 for a bound in seconds).  Per element, the smallest
    squared spacing and the largest ``vp**2`` each get one ``sqrt``.
    """
    if not meshes:
        raise ValueError("need at least one region mesh")
    dt = np.inf
    for mesh in meshes:
        if not mesh.has_materials:
            raise ValueError("materials must be assigned before dt estimation")
        vp_squared = (mesh.kappa + (4.0 / 3.0) * mesh.mu) / mesh.rho
        vp_max = np.sqrt(vp_squared.reshape(mesh.nspec, -1).max(axis=1))
        dx = (
            np.sqrt(_squared_gll_spacing_per_element(mesh.xyz, np.minimum))
            * length_scale
        )
        dt = min(dt, float(np.min(dx / vp_max)))
    return dt


def estimate_time_step(
    meshes: list[RegionMesh], courant: float = 0.4, length_scale: float = 1.0
) -> float:
    """Stable explicit time step: ``courant * min(dx_gll / vp)``.

    ``length_scale`` converts mesh coordinates to metres (mesh is in km,
    so pass 1000.0 for a dt in seconds).
    """
    return courant * stable_time_step_bound(meshes, length_scale)


def estimate_resolution(
    meshes: list[RegionMesh],
    points_per_wavelength: float = 5.0,
    length_scale: float = 1.0,
) -> float:
    """Shortest accurately-propagated period (s) of the mesh.

    Per element, the resolved wavelength is
    ``max_gll_spacing * points_per_wavelength`` (the element's largest
    spacing between adjacent GLL points) and the limiting speed is the
    slowest non-zero wave speed (S in solids, P in the fluid).
    """
    worst = 0.0
    for mesh in meshes:
        if not mesh.has_materials:
            raise ValueError("materials must be assigned before resolution estimation")
        vs = np.sqrt(mesh.mu / mesh.rho)
        vp = np.sqrt((mesh.kappa + (4.0 / 3.0) * mesh.mu) / mesh.rho)
        v_lim = np.where(vs > 1.0, vs, vp).reshape(mesh.nspec, -1).min(axis=1)
        dx_max = (
            np.sqrt(_squared_gll_spacing_per_element(mesh.xyz, np.maximum))
            * length_scale
        )
        period = points_per_wavelength * dx_max / v_lim
        worst = max(worst, float(np.max(period)))
    return worst


def element_size_range(mesh: RegionMesh) -> tuple[float, float]:
    """(min, max) GLL spacing over all elements — shape-spread diagnostic."""
    return (
        float(np.sqrt(_squared_gll_spacing_per_element(mesh.xyz, np.minimum).min())),
        float(np.sqrt(_squared_gll_spacing_per_element(mesh.xyz, np.maximum).max())),
    )


def load_balance_imbalance(elements_per_rank: np.ndarray) -> float:
    """Load imbalance = max/mean - 1 over per-rank element counts.

    Zero means perfect balance.  The paper's mesh design achieves values
    near zero except for the central-cube ranks, which is why the cube was
    cut in two.
    """
    counts = np.asarray(elements_per_rank, dtype=np.float64)
    if counts.size == 0 or np.all(counts == 0):
        raise ValueError("element counts must be non-empty and non-zero")
    return float(counts.max() / counts.mean() - 1.0)
