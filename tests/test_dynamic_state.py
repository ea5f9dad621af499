"""The solver's one declaration of its dynamic state, checked at runtime.

:meth:`GlobalSolver.dynamic_state` is the only place that names the
arrays a restart must carry; checkpoint save and load, the shrink remap
and first touch iterate it.  These tests are what keeps that declaration
complete and honest:

* every array of the field, attenuation and receiver containers that a
  time step changes is (a view of) a declared entry — a new state array
  left out of the declaration fails here, whichever surface would have
  forgotten it;
* every declared entry survives save -> load, and remap -> restore onto
  a different partition, bitwise;
* a record that lacks a declared array is a :class:`CheckpointError`
  naming it, a record carrying a state array the solver does not declare
  (an attenuated record on an elastic solver) is rejected, and neither
  writes anything into the solver.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.chaos.integrity import read_record, write_record
from repro.config import constants
from repro.config.parameters import SimulationParameters
from repro.mesh import build_global_mesh
from repro.model.prem import RegionCode
from repro.parallel.launcher import prepare_world
from repro.resilience.remap import TOLERANCE_KM, WorldRemap
from repro.solver import (
    CheckpointError,
    GlobalSolver,
    MomentTensorSource,
    Station,
    gaussian_stf,
    load_checkpoint,
    save_checkpoint,
)
from repro.solver.checkpoint import read_verified_arrays, restore_state

STATIONS = [
    Station("POLE", (0.0, 0.0, constants.R_EARTH_KM)),
    Station("D45", (constants.R_EARTH_KM / np.sqrt(2), 0.0,
                    constants.R_EARTH_KM / np.sqrt(2))),
    Station("EQTR", (constants.R_EARTH_KM, 0.0, 0.0)),
]

#: The declaration of a solver with fluid, attenuation and stations.
SOLID = (RegionCode.CRUST_MANTLE, RegionCode.INNER_CORE)
DECLARED = (
    [f"{f}_{code}" for code in SOLID for f in ("displ", "veloc", "accel")]
    + ["chi", "chi_dot", "chi_ddot"]
    + [f"zeta_{code}" for code in SOLID]
    + ["seis_data"]
)


def tiny_params(**kw):
    defaults = dict(
        nex_xi=4, nproc_xi=1, ner_crust_mantle=2, ner_outer_core=1,
        ner_inner_core=1, nstep_override=6, attenuation=True,
    )
    defaults.update(kw)
    return SimulationParameters(**defaults)


def source():
    return MomentTensorSource(
        position=(0.0, 0.0, constants.R_EARTH_KM - 200.0),
        moment=1e20 * np.eye(3),
        stf=gaussian_stf(10.0),
        time_shift=3.0,
    )


@pytest.fixture(scope="module")
def mesh():
    return build_global_mesh(tiny_params())


def make_solver(mesh, params=None):
    return GlobalSolver(
        mesh, params or tiny_params(), sources=[source()], stations=STATIONS
    )


def fill_declared(solver, seed=0):
    """Distinct values in every declared entry; the recording cursor at 3."""
    rng = np.random.default_rng(seed)
    for state in solver.dynamic_state():
        state.array[:] = 1e-3 * rng.standard_normal(state.array.shape)
    for rs in solver.receiver_sets:
        rs.step_cursor = 3


def declared_copy(solver):
    return {s.name: s.array.copy() for s in solver.dynamic_state()}


def rewrite(path, mutate):
    magic = path.read_bytes()[:8]
    arrays, meta = read_record(path, magic)
    mutate(arrays)
    write_record(path, magic, arrays, meta)


@pytest.fixture(scope="module")
def record(mesh, tmp_path_factory):
    solver = make_solver(mesh)
    fill_declared(solver)
    return save_checkpoint(
        solver, tmp_path_factory.mktemp("ckpt") / "state.ckpt", step=3
    )


# ---------------------------------------------------- (a) nothing undeclared


def test_declaration_names_match_the_cases(mesh):
    assert [s.name for s in make_solver(mesh).dynamic_state()] == DECLARED


def test_every_array_a_step_changes_is_declared(mesh):
    solver = make_solver(mesh)
    fill_declared(solver)
    containers = [*solver.solid.values(), solver.fluid, *solver.receiver_sets]
    containers += [ev for att in solver.attenuation.values() for ev in att.events]
    arrays = [
        (type(obj).__name__, name, value)
        for obj in containers
        for name, value in vars(obj).items()
        if isinstance(value, np.ndarray)
    ]
    before = [value.copy() for _, _, value in arrays]
    solver.run(n_steps=solver.n_steps, start_step=0, stop_step=1)
    declared = [s.array for s in solver.dynamic_state()]
    changed = [
        (owner, name, value)
        for (owner, name, value), old in zip(arrays, before)
        if not np.array_equal(value, old)
    ]
    undeclared = [
        f"{owner}.{name}"
        for owner, name, value in changed
        if not any(np.shares_memory(value, d) for d in declared)
    ]
    assert not undeclared, f"state arrays missing from dynamic_state: {undeclared}"
    # Not vacuous: the step changed every declared entry.
    assert all(
        any(np.shares_memory(value, d) for _, _, value in changed)
        for d in declared
    )


# ------------------------------------------------ (b) save -> load, bitwise


def test_save_load_round_trips_every_entry(mesh, tmp_path):
    solver = make_solver(mesh)
    fill_declared(solver, seed=1)
    saved = declared_copy(solver)
    path = save_checkpoint(solver, tmp_path / "state.ckpt", step=3)
    fresh = make_solver(mesh)
    assert load_checkpoint(fresh, path) == 3
    restored = declared_copy(fresh)
    assert list(restored) == DECLARED
    for name in DECLARED:
        assert restored[name].tobytes() == saved[name].tobytes(), name
    assert all(rs.step_cursor == 3 for rs in fresh.receiver_sets)


# ---------------------------------------- (c) remap -> restore, bitwise


def quantised_points(region):
    coords = np.empty((region.nglob, 3))
    coords[region.ibool.reshape(-1)] = region.xyz.reshape(-1, 3)
    return np.round(coords / TOLERANCE_KM).astype(np.int64)


def quantised_centroids(region):
    centroids = region.xyz.reshape(region.nspec, -1, 3).mean(axis=1)
    return np.round(centroids / TOLERANCE_KM).astype(np.int64)


def _by_row(labels, shape, axis, salt):
    """Exact values that depend only on each row's integer label along
    ``axis`` (and the position within the row): every owner agrees."""
    labels = np.asarray(labels, dtype=np.int64) % 1_000_003
    out = np.empty(shape)
    rest = out.shape[:axis] + out.shape[axis + 1:]
    moved = np.moveaxis(out, axis, 0)
    moved[...] = (
        labels.reshape(-1, *[1] * len(rest)) * 1e4
        + np.arange(int(np.prod(rest))).reshape(rest)
        + salt * 1e11
    )
    return out


def coordinate_state(solver, mesh):
    """Per declared entry, values that are a function of point
    coordinates, element centroid or station name alone."""
    weights = np.array([3, 5, 7])
    out = {}
    for salt, state in enumerate(solver.dynamic_state()):
        if state.kind == "point":
            labels = quantised_points(mesh.regions[state.region]) @ weights
            out[state.name] = _by_row(labels, state.array.shape, 1, salt)
        elif state.kind == "element":
            labels = quantised_centroids(mesh.regions[state.region]) @ weights
            out[state.name] = _by_row(labels, state.array.shape, 2, salt)
        else:
            names = [r.station.name for r in solver.receiver_sets[0].receivers]
            labels = [[s.name for s in STATIONS].index(n) for n in names]
            out[state.name] = _by_row(labels, state.array.shape, 1, salt)
    return out


def test_remap_restores_every_entry_on_another_partition(mesh, tmp_path):
    params = tiny_params()
    world = prepare_world(params, sources=[source()], stations=STATIONS)
    old_arrays, old_names = {}, {}
    for rank, sl in enumerate(world.slices):
        stations = world.station_assignment.get(rank, [])
        old = GlobalSolver(
            sl, params, stations=stations or None,
            event_sources=world.event_sources_of_rank.get(rank) or [[]],
            dt_override=world.dt_global,
        )
        values = coordinate_state(old, sl)
        for state in old.dynamic_state():
            state.array[:] = values[state.name]
        for rs in old.receiver_sets:
            rs.step_cursor = 4
        old_names[rank] = [s.name for s in stations]
        old_arrays[rank] = read_verified_arrays(
            save_checkpoint(old, tmp_path / f"rank{rank}.ckpt", step=4)
        )
    # The new partition is the merged globe: one rank owning every point.
    new = GlobalSolver(
        mesh, params, sources=[source()], stations=STATIONS,
        dt_override=world.dt_global,
    )

    def remap():
        return WorldRemap(
            world.slices, old_arrays, [mesh],
            old_station_names=old_names,
            new_station_names={0: [s.name for s in STATIONS]},
        )

    assert restore_state(new, remap().arrays_for(0, new)) == 4
    expected = coordinate_state(new, mesh)
    restored = declared_copy(new)
    assert list(restored) == DECLARED
    for name in DECLARED:
        assert restored[name].tobytes() == expected[name].tobytes(), name
    assert all(rs.step_cursor == 4 for rs in new.receiver_sets)

    # In a supervised recovery every new rank's thread asks at once.
    shared = remap()
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            answers = list(pool.map(lambda _: shared.arrays_for(0, new), range(6)))
    finally:
        sys.setswitchinterval(previous)
    for arrays in answers:
        for name in DECLARED:
            assert arrays[name].tobytes() == expected[name].tobytes(), name


# ------------------------------------------------- records that do not fit


@pytest.mark.parametrize("name", DECLARED)
def test_missing_declared_array_is_rejected_before_any_write(
    mesh, record, tmp_path, name
):
    path = tmp_path / "state.ckpt"
    path.write_bytes(record.read_bytes())
    rewrite(path, lambda arrays: arrays.pop(name))
    fresh = make_solver(mesh)
    untouched = declared_copy(fresh)
    with pytest.raises(CheckpointError, match=name):
        load_checkpoint(fresh, path)
    after = declared_copy(fresh)
    assert all(np.array_equal(after[n], untouched[n]) for n in DECLARED)


def test_attenuated_record_on_elastic_solver_is_rejected(mesh, record):
    elastic = make_solver(mesh, tiny_params(attenuation=False))
    untouched = declared_copy(elastic)
    with pytest.raises(ValueError, match="zeta_") as info:
        load_checkpoint(elastic, record)
    assert not isinstance(info.value, CheckpointError)
    after = declared_copy(elastic)
    assert all(np.array_equal(after[n], untouched[n]) for n in untouched)
