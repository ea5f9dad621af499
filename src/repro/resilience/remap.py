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
rule) — and carries over:

* global-point fields — solid ``displ``/``veloc``/``accel`` per region,
  fluid ``chi``/``chi_dot``/``chi_ddot``;
* per-element attenuation *memory* (``zeta``) by element centroid.  The
  attenuation coefficients (alpha/y/gain) are deliberately NOT
  remapped: they are element-local functions of (Q_mu, dt) alone
  (:func:`repro.solver.attenuation.build_attenuation` bins by distinct
  Q value), so the new world's solver rebuilds identical coefficients
  as long as dt is pinned — which the supervisor does;
* partially-recorded seismogram buffers, re-keyed by *station name*
  (stations are re-assigned to the nearest point of the new partition,
  so their owning rank and row order may change).

Every state array is event-leading (checkpoint format v5): fields
``(B, nglob[, 3])``, ``zeta`` ``(B, n_sls, nspec, 6, n, n, n)``, seismograms
``(B, nrec, n_steps, 3)`` — so the point and receiver slots are axis 1
and the element slot axis 2, with ``B = 1`` for a single-event run.

Points shared by several old ranks are taken first-writer-wins (old
rank order).  For points with 3+ owners the per-rank assembled values
can differ in the last ulps (floating-point addition order), which is
why shrink recovery is validated against a tolerance, not bit identity
— respawn recovery, which reloads each rank's own checkpoint, is the
bit-exact path (docs/resilience.md).
"""

from __future__ import annotations

import numpy as np

__all__ = ["remap_world_state", "apply_rank_state"]

#: Matching tolerance, in km — the same quantum the halo builder uses to
#: identify shared points across slices.
TOLERANCE_KM = 1e-5


def _point_keys(mesh, tol: float) -> list[bytes]:
    """One hashable quantized-coordinate key per global point of a region."""
    ibool = mesh.ibool.reshape(-1)
    nglob = int(ibool.max()) + 1
    coords = np.empty((nglob, 3))
    coords[ibool] = mesh.xyz.reshape(-1, 3)
    q = np.round(coords / tol).astype(np.int64)
    return [row.tobytes() for row in q]


def _element_keys(mesh, tol: float) -> list[bytes]:
    """One hashable quantized-centroid key per element of a region."""
    centroids = mesh.xyz.reshape(mesh.nspec, -1, 3).mean(axis=1)
    q = np.round(centroids / tol).astype(np.int64)
    return [row.tobytes() for row in q]


def _harvest_points(
    old_slices: list, old_arrays: dict[int, dict], code, name: str, tol: float
) -> dict[bytes, np.ndarray]:
    """Gather ``name``'s per-point values across the old world.

    First-writer-wins in old rank order for points owned by several
    ranks (see the module docstring for why that is tolerable).
    """
    values: dict[bytes, np.ndarray] = {}
    for rank in sorted(old_arrays):
        arrays = old_arrays[rank]
        if name not in arrays:
            continue
        keys = _point_keys(old_slices[rank].regions[code], tol)
        arr = arrays[name]
        for i, key in enumerate(keys):
            if key not in values:
                values[key] = arr[:, i]
    return values


def remap_world_state(
    old_slices: list,
    old_arrays: dict[int, dict],
    new_slices: list,
    old_station_names: dict[int, list[str]] | None = None,
    new_station_names: dict[int, list[str]] | None = None,
    tolerance_km: float = TOLERANCE_KM,
) -> list[dict]:
    """Remap a dead world's checkpointed state onto a new partition.

    Parameters
    ----------
    old_slices / new_slices : per-rank slice meshes of the two worlds.
    old_arrays : per-old-rank verified checkpoint arrays (every old rank
        must be present — together they cover the globe), as returned by
        :func:`repro.solver.checkpoint.read_verified_arrays`.
    old_station_names / new_station_names : per-rank station-name lists
        in receiver order, for re-keying seismogram buffers.

    Returns one state dict per new rank, ready for
    :func:`apply_rank_state`.  All old ranks must checkpoint the *same*
    step (the supervisor guarantees it); a mismatch is rejected.
    """
    if not old_arrays:
        raise ValueError("remap needs at least one old-world checkpoint")
    steps = {int(a["step"]) for a in old_arrays.values()}
    if len(steps) != 1:
        raise ValueError(
            f"old-world checkpoints disagree on the step: {sorted(steps)}"
        )
    step = steps.pop()
    tol = tolerance_km
    sample = next(iter(old_arrays.values()))
    solid_codes = [int(c) for c in sample["solid_codes"]]
    has_fluid = "chi" in sample
    zeta_names = [k for k in sample if k.startswith("zeta_")]

    # -- global-point fields -------------------------------------------------
    # (region code, field name) -> quantized point key -> value row
    point_values: dict[tuple, dict[bytes, np.ndarray]] = {}
    from ..model.prem import RegionCode

    field_names: list[tuple] = []
    for code in solid_codes:
        for prefix in ("displ", "veloc", "accel"):
            field_names.append((code, f"{prefix}_{code}"))
    fluid_code = None
    if has_fluid:
        fluid_code = RegionCode.OUTER_CORE
        for name in ("chi", "chi_dot", "chi_ddot"):
            field_names.append((fluid_code, name))
    for region, name in field_names:
        point_values[(region, name)] = _harvest_points(
            old_slices, old_arrays, region, name, tol
        )

    # -- per-element attenuation memory --------------------------------------
    # zeta name -> quantized centroid key -> per-element memory block
    elem_values: dict[str, dict[bytes, np.ndarray]] = {}
    for name in zeta_names:
        code = int(name[len("zeta_"):])
        values: dict[bytes, np.ndarray] = {}
        for rank in sorted(old_arrays):
            arrays = old_arrays[rank]
            if name not in arrays:
                continue
            keys = _element_keys(old_slices[rank].regions[code], tol)
            z = arrays[name]  # (B, n_sls, nspec, 6, n, n, n)
            for e, key in enumerate(keys):
                if key not in values:
                    values[key] = z[:, :, e]
        elem_values[name] = values

    # -- seismogram rows by station name -------------------------------------
    seis_rows: dict[str, np.ndarray] = {}
    seis_cursor = 0
    seis_nbuf = None
    for rank in sorted(old_arrays):
        arrays = old_arrays[rank]
        names = (old_station_names or {}).get(rank, [])
        if "seis_data" not in arrays or not names:
            continue
        data = arrays["seis_data"]
        if data.shape[1] != len(names):
            raise ValueError(
                f"old rank {rank} checkpoint has {data.shape[1]} "
                f"receiver rows but {len(names)} station names"
            )
        seis_cursor = int(arrays["seis_step"])
        seis_nbuf = int(arrays["seis_n_steps"])
        for j, station in enumerate(names):
            seis_rows[station] = data[:, j]

    # -- assemble per-new-rank states ----------------------------------------
    states: list[dict] = []
    for rank, sl in enumerate(new_slices):
        state: dict = {"step": step, "solid": {}, "fluid": None, "zeta": {}}
        for code in solid_codes:
            keys = _point_keys(sl.regions[code], tol)
            parts = []
            for prefix in ("displ", "veloc", "accel"):
                values = point_values[(code, f"{prefix}_{code}")]
                parts.append(_gather(values, keys, code, prefix))
            state["solid"][code] = tuple(parts)
        if has_fluid:
            keys = _point_keys(sl.regions[fluid_code], tol)
            state["fluid"] = tuple(
                _gather(point_values[(fluid_code, name)], keys, fluid_code, name)
                for name in ("chi", "chi_dot", "chi_ddot")
            )
        for name in zeta_names:
            code = int(name[len("zeta_"):])
            keys = _element_keys(sl.regions[code], tol)
            cols = _gather(elem_values[name], keys, code, name)
            state["zeta"][code] = np.stack(cols, axis=2)
        names = (new_station_names or {}).get(rank, [])
        if names and seis_nbuf is not None:
            missing = [n for n in names if n not in seis_rows]
            if missing:
                raise ValueError(
                    f"no checkpointed seismogram rows for stations {missing}"
                )
            data = np.stack([seis_rows[n] for n in names], axis=1)
            state["seis"] = (data, seis_cursor, seis_nbuf)
        else:
            state["seis"] = None
        states.append(state)
    return states


def _gather(values: dict[bytes, np.ndarray], keys: list[bytes], region, what):
    """Look every key up, loudly rejecting coverage gaps (a gap means the
    two partitions do not discretize the same globe — recovery on such a
    world would be silently wrong)."""
    out = []
    for key in keys:
        row = values.get(key)
        if row is None:
            raise ValueError(
                f"shrink remap: region {region} has a {what} point/element "
                f"with no counterpart in the old world's checkpoints"
            )
        out.append(row)
    return out


def apply_rank_state(solver, state: dict) -> int:
    """Seed a freshly built solver with remapped state; returns the step.

    The in-memory twin of :func:`repro.solver.checkpoint.load_checkpoint`
    — same field/zeta/seismogram coverage, minus the disk round-trip.
    """
    for code, (displ, veloc, accel) in state["solid"].items():
        fld = solver.solid[code]
        fld.displ[:] = np.stack(displ, axis=1)
        fld.veloc[:] = np.stack(veloc, axis=1)
        fld.accel[:] = np.stack(accel, axis=1)
    if state["fluid"] is not None:
        chi, chi_dot, chi_ddot = state["fluid"]
        fl = solver.fluid
        fl.chi[:] = np.stack(chi, axis=1)
        fl.chi_dot[:] = np.stack(chi_dot, axis=1)
        fl.chi_ddot[:] = np.stack(chi_ddot, axis=1)
    for code, zeta in state["zeta"].items():
        solver.attenuation[code].zeta[:] = zeta
    seis = state.get("seis")
    if seis is not None and solver.receiver_sets:
        data, cursor, _nbuf = seis
        solver.restore_seismograms(data, cursor)
    return int(state["step"])
