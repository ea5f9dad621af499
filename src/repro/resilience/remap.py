"""Shrink-and-redistribute state transfer between world sizes.

When the supervisor recovers a run onto a *smaller* world (respawn
capacity is not always available — the paper's own batch systems restart
62K-way jobs on whatever partition survives), every surviving rank's
solver must be seeded with state that a *different* partition produced.
The virtual mesh makes this exact: both partitions discretize the same
global element set, so every global point of the old world exists in the
new world at the same coordinates, and every element has the same
centroid.  This module matches them the way the halo builder matches
shared slice-boundary points — by coordinates quantized at
``tolerance_km`` (:data:`repro.parallel.halo.build_halos` uses the same
rule) — and carries over every array the new rank's solver declares
(:meth:`~repro.solver.solver.GlobalSolver.dynamic_state`), by kind:

* ``point`` arrays (the solid and fluid fields) by global-point
  coordinates;
* ``element`` arrays (the attenuation *memory*) by element centroid.
  The attenuation coefficients (alpha/y/gain) are deliberately NOT
  remapped: they are element-local functions of (Q_mu, dt) alone
  (:func:`repro.solver.attenuation.build_attenuation` bins by distinct
  Q value), so the new world's solver rebuilds identical coefficients
  as long as dt is pinned — which the supervisor does;
* the ``receiver`` array (partially-recorded seismograms), re-keyed by
  *station name* (stations are re-assigned to the nearest point of the
  new partition, so their owning rank and row order may change).

The result is a checkpoint-shaped array dict per new rank, which
:func:`repro.solver.checkpoint.restore_state` — the checkpoint load's
own path — validates and writes into the solver.  Every state array is
event-leading (checkpoint format v5), so the point axis is axis 1 and
the element axis axis 2, with ``B = 1`` for a single-event run.

The matching is array-form, on :func:`repro.mesh.numbering.group_rows`:
per region, the old ranks' quantized keys in rank order followed by the
new ranks' keys are grouped once, and each new row takes its group's
first row.  Points shared by several old ranks are therefore taken
first-writer-wins (old rank order).  For points with 3+ owners the
per-rank assembled values can differ in the last ulps (floating-point
addition order), which is why shrink recovery is validated against a
tolerance, not bit identity — respawn recovery, which reloads each
rank's own checkpoint, is the bit-exact path (docs/resilience.md).
"""

from __future__ import annotations

import threading

import numpy as np

from ..mesh.numbering import group_rows

__all__ = ["WorldRemap"]

#: Matching tolerance, in km — the same quantum the halo builder uses to
#: identify shared points across slices.
TOLERANCE_KM = 1e-5

#: The axis a partition cuts, per state-array kind.
_AXIS = {"point": 1, "element": 2}


def _keys(mesh, kind: str, tol: float) -> np.ndarray:
    """Quantized coordinates, one int64 row per global point (``point``)
    or element centroid (``element``) of a region."""
    if kind == "point":
        ibool = mesh.ibool.reshape(-1)
        coords = np.empty((int(ibool.max()) + 1, 3))
        coords[ibool] = mesh.xyz.reshape(-1, 3)
    else:
        coords = mesh.xyz.reshape(mesh.nspec, -1, 3).mean(axis=1)
    return np.round(coords / tol).astype(np.int64)


def _first_rows(
    old_keys: list[np.ndarray], new_keys: list[np.ndarray], region, kind: str
) -> list[np.ndarray]:
    """Per new rank, the row of the old world (its ranks' rows concatenated
    in rank order) that each of its rows takes: the first with its key.

    A key with no old row is a coverage gap — the two partitions do not
    discretize the same globe, and recovery on such a world would be
    silently wrong — so it is rejected loudly.
    """
    n_old = sum(len(k) for k in old_keys)
    first, group = group_rows(np.concatenate(old_keys + new_keys))
    rows = first[group[n_old:]]
    if np.any(rows >= n_old):
        raise ValueError(
            f"shrink remap: region {region} has a {kind} with no "
            f"counterpart in the old world's checkpoints"
        )
    return np.split(rows, np.cumsum([len(k) for k in new_keys])[:-1])


class WorldRemap:
    """A dead world's checkpointed state, cut to a new partition's ranks.

    Parameters
    ----------
    old_slices / new_slices : per-rank slice meshes of the two worlds.
    old_arrays : per-old-rank verified checkpoint arrays (every old rank
        must be present — together they cover the globe), as returned by
        :func:`repro.solver.checkpoint.read_verified_arrays`.
    old_station_names / new_station_names : per-rank station-name lists
        in receiver order, for re-keying seismogram buffers.

    All old ranks must checkpoint the *same* step (the supervisor
    guarantees it); a mismatch is rejected.  The matching is done once,
    here; :meth:`arrays_for` is safe to call from every new rank's thread.
    """

    def __init__(
        self,
        old_slices: list,
        old_arrays: dict[int, dict],
        new_slices: list,
        old_station_names: dict[int, list[str]] | None = None,
        new_station_names: dict[int, list[str]] | None = None,
        tolerance_km: float = TOLERANCE_KM,
    ):
        if not old_arrays:
            raise ValueError("remap needs at least one old-world checkpoint")
        steps = {int(a["step"]) for a in old_arrays.values()}
        if len(steps) != 1:
            raise ValueError(
                f"old-world checkpoints disagree on the step: {sorted(steps)}"
            )
        ranks = sorted(old_arrays)
        self._old = [old_arrays[r] for r in ranks]
        self._old_station_names = [
            (old_station_names or {}).get(r, []) for r in ranks
        ]
        self._new_station_names = new_station_names or {}
        sample = self._old[0]
        self._header = {k: sample[k] for k in ("step", "dt", "solid_codes")}
        #: (kind, region) -> per new rank, the old-world row of each row.
        self._rows: dict[tuple[str, int], list[np.ndarray]] = {}
        for kind in _AXIS:
            for code in new_slices[0].regions:
                self._rows[kind, code] = _first_rows(
                    [_keys(old_slices[r].regions[code], kind, tolerance_km)
                     for r in ranks],
                    [_keys(sl.regions[code], kind, tolerance_km)
                     for sl in new_slices],
                    code,
                    kind,
                )
        self._joined: dict[str, np.ndarray] = {}
        self._lock = threading.Lock()

    def arrays_for(self, rank: int, solver) -> dict[str, np.ndarray]:
        """New rank ``rank``'s state for ``solver``, checkpoint-shaped: one
        entry per array the solver declares that the old world carried
        (a missing one is :func:`~repro.solver.checkpoint.restore_state`'s
        to reject), plus the header."""
        arrays = dict(self._header)
        for state in solver.dynamic_state():
            if state.kind == "receiver":
                arrays.update(self._seismograms(rank, state.name))
            elif all(state.name in a for a in self._old):
                axis = _AXIS[state.kind]
                arrays[state.name] = np.take(
                    self._old_world(state.name, axis),
                    self._rows[state.kind, state.region][rank],
                    axis=axis,
                )
        return arrays

    def _old_world(self, name: str, axis: int) -> np.ndarray:
        """Every old rank's ``name``, concatenated in rank order along
        ``axis`` (built by the first rank thread that asks)."""
        with self._lock:
            if name not in self._joined:
                self._joined[name] = np.concatenate(
                    [a[name] for a in self._old], axis=axis
                )
            return self._joined[name]

    def _seismograms(self, rank: int, name: str) -> dict[str, np.ndarray]:
        """The receiver array ``name`` for new rank ``rank``'s stations,
        row by station name, with the old world's cursor and horizon."""
        rows: dict[str, np.ndarray] = {}
        for r, (arrays, names) in enumerate(
            zip(self._old, self._old_station_names)
        ):
            if not names or name not in arrays:
                continue
            data = arrays[name]
            if data.shape[1] != len(names):
                raise ValueError(
                    f"old rank {r} checkpoint has {data.shape[1]} "
                    f"receiver rows but {len(names)} station names"
                )
            cursor = {k: arrays[k] for k in ("seis_step", "seis_n_steps")}
            rows.update(zip(names, np.moveaxis(data, 1, 0)))
        names = self._new_station_names.get(rank, [])
        missing = [n for n in names if n not in rows]
        if missing or not names:
            raise ValueError(
                f"no checkpointed seismogram rows for new rank {rank}'s "
                f"stations {missing or names}"
            )
        return {name: np.stack([rows[n] for n in names], axis=1), **cursor}
