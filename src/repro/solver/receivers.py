"""Seismic receivers: station location and seismogram recording.

Section 4.4(2) of the paper: locating recording stations used a costly
non-linear search for the exact (xi, eta, gamma) of each station inside
its host element, plus a per-time-step Lagrange interpolation of the
wavefield there — which at high resolution caused measurable slowdown
*and load imbalance* (stations are unevenly distributed over mesh slices).
The fix: at high resolution, snap each station to the closest GLL point
(the mesh is so dense the location error is geophysically negligible).

Both algorithms are implemented:

* ``interpolated`` — host-element search + Newton inversion of the
  isoparametric mapping + full 125-weight interpolation per step;
* ``closest_point`` — nearest-GLL-point snap + direct array read per step.

A :class:`ReceiverSet` records one event.  Recorded traces never cross
the halo, so a B-event solver (see :mod:`repro.solver.fields`) simply
holds a list of B of them over one shared list of located receivers and
records event ``b`` from its ``displ[b]`` view.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from ..gll.interpolation import interpolation_weights_3d
from ..gll.lagrange import lagrange_basis, lagrange_basis_derivative
from ..gll.quadrature import gll_points_and_weights

__all__ = [
    "Station",
    "LocatedReceiver",
    "ReceiverSet",
    "PointLocator",
    "locate_receivers",
]


@dataclass(frozen=True)
class Station:
    """One seismic station: a name and a target Cartesian position."""

    name: str
    position: tuple[float, float, float]


@dataclass
class LocatedReceiver:
    """A station resolved against the mesh.

    ``mode`` is "interpolated" or "closest_point".  For interpolated mode,
    ``element``/``weights`` drive the per-step interpolation and ``ref``
    holds the reference coordinates (xi, eta, gamma) the Newton inversion
    found in ``element``; for closest-point mode only ``global_index`` is
    used.
    """

    station: Station
    mode: str
    global_index: int
    location_error: float
    element: int = -1
    weights: np.ndarray | None = None
    ref: np.ndarray | None = None

    @property
    def interpolation_flops_per_step(self) -> int:
        """Per-step recording cost (the load-imbalance driver)."""
        if self.mode == "interpolated":
            n3 = self.weights.size
            return 3 * 2 * n3  # 3 components x (mult+add) per weight
        return 3  # three array reads


class ReceiverSet:
    """All located receivers of a run plus their recording buffers."""

    def __init__(self, receivers: list[LocatedReceiver], n_steps: int, dt: float):
        self.receivers = receivers
        self.n_steps = int(n_steps)
        self.dt = float(dt)
        self.data = np.zeros((len(receivers), n_steps, 3))
        self._step = 0

    def record(self, displ: np.ndarray, ibool: np.ndarray) -> None:
        """Record the current displacement at every receiver."""
        if self._step >= self.n_steps:
            raise RuntimeError("seismogram buffers are full")
        for r, rec in enumerate(self.receivers):
            if rec.mode == "closest_point":
                self.data[r, self._step] = displ[rec.global_index]
            else:
                local = displ[ibool[rec.element]]  # (n, n, n, 3)
                self.data[r, self._step] = np.einsum(
                    "ijk,ijkc->c", rec.weights, local
                )
        self._step += 1

    @property
    def step_cursor(self) -> int:
        """Next step to be recorded (rows below this are already filled)."""
        return self._step

    @step_cursor.setter
    def step_cursor(self, step: int) -> None:
        step = int(step)
        if not 0 <= step <= self.n_steps:
            raise ValueError(
                f"step cursor {step} outside [0, {self.n_steps}]"
            )
        self._step = step

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps) * self.dt

    def seismogram(self, name: str) -> np.ndarray:
        """(n_steps, 3) displacement history of the named station."""
        for r, rec in enumerate(self.receivers):
            if rec.station.name == name:
                return self.data[r]
        raise KeyError(f"no station named {name!r}")


def _invert_isoparametric(
    element_xyz: np.ndarray, target: np.ndarray, max_iter: int = 20
) -> tuple[np.ndarray, float]:
    """Newton-invert the element mapping: find (xi,eta,gamma) with x(..)=target.

    Returns (reference coords clipped to the cube, final residual distance).
    """
    n = element_xyz.shape[0]
    nodes, _ = gll_points_and_weights(n)
    ref = np.zeros(3)
    for _ in range(max_iter):
        hx = lagrange_basis(nodes, ref[0])
        hy = lagrange_basis(nodes, ref[1])
        hz = lagrange_basis(nodes, ref[2])
        dhx = lagrange_basis_derivative(nodes, ref[0])
        dhy = lagrange_basis_derivative(nodes, ref[1])
        dhz = lagrange_basis_derivative(nodes, ref[2])
        basis = hx[:, None, None] * hy[None, :, None] * hz[None, None, :]
        x = np.einsum("ijk,ijkc->c", basis, element_xyz)
        residual = target - x
        if np.linalg.norm(residual) < 1e-12 * max(1.0, np.abs(target).max()):
            break
        jac = np.stack(
            [
                np.einsum(
                    "ijk,ijkc->c",
                    dhx[:, None, None] * hy[None, :, None] * hz[None, None, :],
                    element_xyz,
                ),
                np.einsum(
                    "ijk,ijkc->c",
                    hx[:, None, None] * dhy[None, :, None] * hz[None, None, :],
                    element_xyz,
                ),
                np.einsum(
                    "ijk,ijkc->c",
                    hx[:, None, None] * hy[None, :, None] * dhz[None, None, :],
                    element_xyz,
                ),
            ],
            axis=1,
        )  # jac[c, l] = dx_c / dxi_l
        try:
            step = np.linalg.solve(jac, residual)
        except np.linalg.LinAlgError:
            break
        ref = np.clip(ref + step, -1.0, 1.0)
    hx = lagrange_basis(nodes, ref[0])
    hy = lagrange_basis(nodes, ref[1])
    hz = lagrange_basis(nodes, ref[2])
    basis = hx[:, None, None] * hy[None, :, None] * hz[None, None, :]
    x = np.einsum("ijk,ijkc->c", basis, element_xyz)
    return ref, float(np.linalg.norm(target - x))


class PointLocator:
    """Nearest-point and host-element search over one region mesh.

    One KD-tree over all GLL points finds the nearest mesh point of any
    number of targets; in interpolated mode the elements sharing that
    point are then searched with Newton inversion and the best-fitting
    one hosts the target.
    """

    def __init__(self, xyz: np.ndarray, ibool: np.ndarray):
        self.xyz = xyz
        self.ibool = ibool
        self._tree = cKDTree(xyz.reshape(-1, 3))

    def locate(self, station: Station, mode: str) -> LocatedReceiver:
        """Resolve one station against the mesh."""
        if mode not in ("closest_point", "interpolated"):
            raise ValueError(f"unknown station location mode {mode!r}")
        xyz, ibool = self.xyz, self.ibool
        target = np.asarray(station.position, dtype=np.float64)
        dist, flat_index = self._tree.query(target)
        nearest_global = ibool.ravel()[flat_index]
        if mode == "closest_point":
            return LocatedReceiver(
                station=station,
                mode=mode,
                global_index=int(nearest_global),
                location_error=float(dist),
            )
        # Interpolated: try every element containing the nearest point.
        candidate_elements = np.unique(
            np.nonzero((ibool == nearest_global).reshape(ibool.shape[0], -1))[0]
        )
        best = None
        for e in candidate_elements:
            ref, err = _invert_isoparametric(xyz[e], target)
            if best is None or err < best[2]:
                best = (int(e), ref, err)
        element, ref, err = best
        return LocatedReceiver(
            station=station,
            mode=mode,
            global_index=int(nearest_global),
            location_error=err,
            element=element,
            weights=interpolation_weights_3d(xyz.shape[1], *ref),
            ref=ref,
        )


def locate_receivers(
    stations: list[Station],
    xyz: np.ndarray,
    ibool: np.ndarray,
    mode: str = "closest_point",
) -> list[LocatedReceiver]:
    """Resolve stations against a region mesh (one :class:`PointLocator`)."""
    if mode not in ("closest_point", "interpolated"):
        raise ValueError(f"unknown station location mode {mode!r}")
    locator = PointLocator(xyz, ibool)
    return [locator.locate(station, mode) for station in stations]
