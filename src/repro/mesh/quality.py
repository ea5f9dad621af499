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


def _min_gll_spacing_per_element(xyz: np.ndarray) -> np.ndarray:
    """Minimum distance between adjacent GLL points, per element.

    Adjacent along each of the three local axes — the spacing that enters
    the Courant condition.
    """
    d_i = np.linalg.norm(np.diff(xyz, axis=1), axis=-1).min(axis=(1, 2, 3))
    d_j = np.linalg.norm(np.diff(xyz, axis=2), axis=-1).min(axis=(1, 2, 3))
    d_k = np.linalg.norm(np.diff(xyz, axis=3), axis=-1).min(axis=(1, 2, 3))
    return np.minimum(np.minimum(d_i, d_j), d_k)


def _max_gll_spacing_per_element(xyz: np.ndarray) -> np.ndarray:
    d_i = np.linalg.norm(np.diff(xyz, axis=1), axis=-1).max(axis=(1, 2, 3))
    d_j = np.linalg.norm(np.diff(xyz, axis=2), axis=-1).max(axis=(1, 2, 3))
    d_k = np.linalg.norm(np.diff(xyz, axis=3), axis=-1).max(axis=(1, 2, 3))
    return np.maximum(np.maximum(d_i, d_j), d_k)


def stable_time_step_bound(
    meshes: list[RegionMesh], length_scale: float = 1.0
) -> float:
    """``min(dx_gll / vp)`` over the meshes: the stable explicit time step
    is this times the Courant number (:func:`estimate_time_step`).

    ``length_scale`` converts mesh coordinates to metres (mesh is in km,
    so pass 1000.0 for a bound in seconds).
    """
    if not meshes:
        raise ValueError("need at least one region mesh")
    dt = np.inf
    for mesh in meshes:
        if not mesh.has_materials:
            raise ValueError("materials must be assigned before dt estimation")
        vp = np.sqrt((mesh.kappa + (4.0 / 3.0) * mesh.mu) / mesh.rho)
        dx = _min_gll_spacing_per_element(mesh.xyz) * length_scale
        vp_max = vp.reshape(mesh.nspec, -1).max(axis=1)
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
    ``avg_gll_spacing * points_per_wavelength`` and the limiting speed is
    the slowest non-zero wave speed (S in solids, P in the fluid).
    """
    worst = 0.0
    for mesh in meshes:
        if not mesh.has_materials:
            raise ValueError("materials must be assigned before resolution estimation")
        vs = np.sqrt(mesh.mu / mesh.rho)
        vp = np.sqrt((mesh.kappa + (4.0 / 3.0) * mesh.mu) / mesh.rho)
        v_lim = np.where(vs > 1.0, vs, vp).reshape(mesh.nspec, -1).min(axis=1)
        dx_max = _max_gll_spacing_per_element(mesh.xyz) * length_scale
        period = points_per_wavelength * dx_max / v_lim
        worst = max(worst, float(np.max(period)))
    return worst


def element_size_range(mesh: RegionMesh) -> tuple[float, float]:
    """(min, max) GLL spacing over all elements — shape-spread diagnostic."""
    return (
        float(_min_gll_spacing_per_element(mesh.xyz).min()),
        float(_max_gll_spacing_per_element(mesh.xyz).max()),
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
