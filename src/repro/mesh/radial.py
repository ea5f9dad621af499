"""Radial discretisation of the three meshed regions of the globe.

The mesher stacks spherical element layers between the region boundaries
(surface, Moho, ..., CMB, ICB, central-cube top), honouring the first-order
PREM discontinuities so no element straddles a material jump — the property
that lets the SEM capture reflected/converted phases sharply.
"""

from __future__ import annotations

import functools

import numpy as np

from ..config import constants
from ..model.prem import PREM, RegionCode

__all__ = [
    "region_bounds_km",
    "radial_breaks_km",
    "radial_breaks_between_km",
    "CENTRAL_CUBE_RADIUS_FRACTION",
]

#: Top of the central cube as a fraction of the ICB radius (SPECFEM's
#: inflated central cube sits around half the inner-core radius).
CENTRAL_CUBE_RADIUS_FRACTION = 0.5


def central_cube_radius_km() -> float:
    """Nominal radius of the inflated central cube (km)."""
    return CENTRAL_CUBE_RADIUS_FRACTION * constants.R_ICB_KM


def region_bounds_km(region: int) -> tuple[float, float]:
    """(bottom, top) radii of a meshed region in km.

    The inner-core *shell* region stops at the central-cube surface; the
    ball below it is meshed by :mod:`repro.mesh.central_cube`.
    """
    if region == RegionCode.CRUST_MANTLE:
        return constants.R_CMB_KM, constants.R_EARTH_KM
    if region == RegionCode.OUTER_CORE:
        return constants.R_ICB_KM, constants.R_CMB_KM
    if region == RegionCode.INNER_CORE:
        return central_cube_radius_km(), constants.R_ICB_KM
    raise ValueError(f"unknown region code {region}")


def radial_breaks_km(region: int, n_layers: int) -> np.ndarray:
    """Element-layer boundary radii for a region, ascending, length n_layers+1.

    Internal first-order discontinuities of PREM are always honoured when
    the layer budget allows; remaining layers are distributed to the
    thickest sub-intervals, keeping element aspect ratios reasonable.  If
    ``n_layers`` is smaller than the number of internal discontinuities,
    the deepest/most significant ones are kept (ordered by the size of the
    density jump across them).
    """
    bottom, top = region_bounds_km(region)
    return radial_breaks_between_km(bottom, top, n_layers)


def radial_breaks_km_uniform(region: int, n_layers: int) -> np.ndarray:
    """Uniform layers between the region bounds (no discontinuity snapping)."""
    bottom, top = region_bounds_km(region)
    return radial_breaks_between_km(
        bottom, top, n_layers, honor_discontinuities=False
    )


def radial_breaks_between_km(
    bottom: float, top: float, n_layers: int, honor_discontinuities: bool = True
) -> np.ndarray:
    """Like :func:`radial_breaks_km` but for arbitrary radius bounds
    (used by the regional single-chunk mesher).  With
    ``honor_discontinuities=False`` the layers are simply uniform —
    appropriate for homogeneous material models."""
    if n_layers < 1:
        raise ValueError(f"need at least 1 layer, got {n_layers}")
    if not 0.0 <= bottom < top:
        raise ValueError(f"invalid bounds [{bottom}, {top}]")
    if not honor_discontinuities:
        return np.linspace(bottom, top, n_layers + 1)
    return np.asarray(_honouring_breaks(bottom, top, n_layers), dtype=np.float64)


@functools.lru_cache(maxsize=64)
def _honouring_breaks(bottom: float, top: float, n_layers: int) -> tuple[float, ...]:
    """The breaks of :func:`radial_breaks_between_km` that honour PREM's
    discontinuities.  PREM is fixed, so each (bounds, layer count) is
    computed once per process, not once per slice of every mesh."""
    internal = [
        r for r in PREM.discontinuities_km() if bottom + 1e-9 < r < top - 1e-9
    ]
    if len(internal) > n_layers - 1:
        # Keep the discontinuities with the largest density jumps.
        jumps = np.abs(
            PREM.density(np.asarray(internal), side="above")
            - PREM.density(np.asarray(internal), side="below")
        )
        order = np.argsort(jumps)[::-1][: n_layers - 1]
        internal = sorted(internal[i] for i in order)
    breaks = [bottom, *internal, top]
    # Split the thickest interval until we have n_layers of them.
    while len(breaks) - 1 < n_layers:
        widths = np.diff(breaks)
        i = int(np.argmax(widths))
        breaks.insert(i + 1, 0.5 * (breaks[i] + breaks[i + 1]))
        breaks.sort()
    return tuple(breaks)
