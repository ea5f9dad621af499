"""Mesh-determined solver artefacts are prepared once per cached mesh.

A solver on a mesh that :class:`MeshCache` serves takes its geometry,
mass, CMB/ICB coupling operators and Courant bound from the entry's
:class:`PreparedMesh`: the first solver fills it, every later one reuses
it.  These tests pin the four halves of that contract: nothing is
prepared twice (call counters, also under two racing threads); the reuse
is invisible in the results (``np.array_equal`` against a solver on an
uncached copy of the mesh, whatever the second solver's own parameters);
the shared arrays cannot be written (also not by a halo exchanger's mass
assembly); and only the cache keeps them alive (weakrefs with ``gc``
disabled, so a reference cycle would show as a leak).
"""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.apps.merged_app import run_global_simulation
from repro.campaign import MeshCache, run_segmented_simulation
from repro.config import constants
from repro.config.parameters import SimulationParameters
from repro.kernels.geometry import compute_geometry
from repro.mesh import build_global_mesh, quality
from repro.solver import (
    GlobalSolver,
    MomentTensorSource,
    Station,
    assemble_mass_matrix,
    assemble_scalar_mass_matrix,
    build_coupling_operator,
    build_ocean_load,
    gaussian_stf,
)


def tiny_params(**overrides):
    defaults = dict(
        nex_xi=4, nproc_xi=1, ner_crust_mantle=2, ner_outer_core=1,
        ner_inner_core=1, nstep_override=8, attenuation=True,
    )
    defaults.update(overrides)
    return SimulationParameters(**defaults)


def explosion(depth_km: float = 150.0, m0: float = 1e20):
    return MomentTensorSource(
        position=(0.0, 0.0, constants.R_EARTH_KM - depth_km),
        moment=m0 * np.eye(3),
        stf=gaussian_stf(10.0),
        time_shift=3.0,
    )


def stations():
    r = constants.R_EARTH_KM
    return [Station("POLE", (0.0, 0.0, r)), Station("EQ_X", (r, 0.0, 0.0))]


def events(nbatch: int):
    return [[explosion(100.0 + 50.0 * b, m0=(1.0 + b) * 1e20)] for b in range(nbatch)]


def count_calls(monkeypatch, func) -> list:
    """Count calls of ``func`` through every ``repro`` module that binds it."""
    calls: list = []

    def counting(*args, **kwargs):
        calls.append(func.__name__)
        return func(*args, **kwargs)

    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "") or ""
        if name.startswith("repro") and getattr(module, func.__name__, None) is func:
            monkeypatch.setattr(module, func.__name__, counting)
    return calls


PREPARATION = (
    compute_geometry,
    assemble_mass_matrix,
    assemble_scalar_mass_matrix,
    build_coupling_operator,
    build_ocean_load,
    quality._min_gll_spacing_per_element,
)


def prepared_arrays(prepared):
    for region in prepared.regions.values():
        g = region.geom
        yield from (g.dxi_dx, g.jacobian, g.jweight, region.mass)
        if region.ti_frames is not None:
            yield region.ti_frames
    for _code, op in prepared.couplings:
        yield from (op.fluid_ids, op.solid_ids, op.normals, op.weights)
    yield from prepared.gravity.values()
    load = prepared.ocean_load
    yield from (load.point_ids, load.normals, load.ocean_mass)


@pytest.fixture
def cached():
    """A fresh cache and the mesh it built (its PreparedMesh still empty)."""
    cache = MeshCache()
    mesh, hit = cache.get(tiny_params())
    assert not hit
    return cache, mesh


class TestPreparedOnce:
    def test_second_solver_on_a_cached_mesh_prepares_nothing(self, cached, monkeypatch):
        _cache, mesh = cached
        counters = {f.__name__: count_calls(monkeypatch, f) for f in PREPARATION}
        physics = dict(gravity=True, oceans=True)
        GlobalSolver(
            mesh, tiny_params(**physics), sources=[explosion()], stations=stations()
        )
        first = {name: len(calls) for name, calls in counters.items()}
        assert first["compute_geometry"] == len(mesh.regions)
        assert first["build_coupling_operator"] == 2  # CMB and ICB
        assert first["build_ocean_load"] == 1
        assert first["_min_gll_spacing_per_element"] == len(mesh.regions)
        for calls in counters.values():
            calls.clear()
        GlobalSolver(
            mesh, tiny_params(attenuation=False, **physics),
            event_sources=events(2), stations=stations(),
        )
        assert {name: len(calls) for name, calls in counters.items()} == dict.fromkeys(
            counters, 0
        )

    def test_racing_solvers_prepare_a_fresh_mesh_once(self, cached, monkeypatch):
        _cache, mesh = cached
        geometry = count_calls(monkeypatch, compute_geometry)
        couplings = count_calls(monkeypatch, build_coupling_operator)
        n = 4  # more threads than this host has cores
        barrier = threading.Barrier(n)
        solvers: list = []
        errors: list = []

        def build() -> None:
            try:
                barrier.wait(timeout=60)
                solvers.append(GlobalSolver(mesh, tiny_params(), sources=[explosion()]))
            except Exception as exc:  # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build) for _ in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors and len(solvers) == n
        assert len(geometry) == len(mesh.regions) and len(couplings) == 2
        assert all(s.prepared is mesh.prepared for s in solvers)

    def test_only_the_cache_shares(self):
        mesh = build_global_mesh(tiny_params())
        a = GlobalSolver(mesh, tiny_params())
        b = GlobalSolver(mesh, tiny_params())
        assert mesh.prepared is None
        assert a.prepared is not b.prepared


class TestBitIdentity:
    """A solver on the cache-served mesh, after another solver filled its
    PreparedMesh, equals a solver on an uncached copy of the mesh."""

    def run_pair(self, cached, params, **kwargs):
        _cache, mesh = cached
        # The first solver on the entry fills the shared artefacts.
        GlobalSolver(mesh, tiny_params(), sources=[explosion()], stations=stations())
        shared = GlobalSolver(mesh, params, stations=stations(), **kwargs)
        alone = GlobalSolver(
            build_global_mesh(params), params, stations=stations(), **kwargs
        )
        assert shared.prepared is mesh.prepared
        assert alone.prepared is not mesh.prepared
        assert shared.dt == alone.dt and shared.n_steps == alone.n_steps
        a, b = shared.run().seismograms, alone.run().seismograms
        assert np.array_equal(a, b)
        assert np.abs(a).max() > 0.0
        return shared, alone

    def test_single_event_with_attenuation(self, cached):
        self.run_pair(cached, tiny_params(), sources=[explosion(200.0)])

    def test_four_events(self, cached):
        self.run_pair(cached, tiny_params(attenuation=False), event_sources=events(4))

    def test_solver_parameters_do_not_leak_into_the_prepared_mesh(self, cached):
        # Courant number, attenuation and record length differ from the
        # first solver's: the shared artefacts must carry none of them.
        params = tiny_params(
            attenuation=False, courant=0.3, nstep_override=None, record_length_s=2.5
        )
        shared, alone = self.run_pair(cached, params, sources=[explosion()])
        assert shared.n_steps == int(np.ceil(2.5 / shared.dt))
        assert shared.total_energy() == alone.total_energy()

    def test_two_segment_run(self, cached):
        _cache, mesh = cached
        params = tiny_params()
        segmented = run_segmented_simulation(
            params, sources=[explosion()], stations=stations(), n_segments=2, mesh=mesh
        )
        assert segmented.n_segments == 2
        assert segmented.solver.prepared is mesh.prepared
        alone = run_global_simulation(
            params, sources=[explosion()], stations=stations(),
            mesh=build_global_mesh(params),
        )
        assert np.array_equal(segmented.seismograms, alone.seismograms)


class TestReadOnly:
    def test_every_prepared_array_refuses_writes(self, cached):
        _cache, mesh = cached
        solver = GlobalSolver(mesh, tiny_params(), sources=[explosion()])
        arrays = list(prepared_arrays(mesh.prepared))
        # geometry + mass per region, 2 couplings, 2 solid gravities, 1 load
        assert len(arrays) == 4 * len(mesh.regions) + 4 * 2 + 2 + 3
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[...] = 0
        for mass in solver.mass.values():
            with pytest.raises(ValueError):
                mass += 1.0

    def test_exchanger_assembles_a_copy_of_the_mass(self, cached):
        _cache, mesh = cached
        GlobalSolver(mesh, tiny_params())
        before = {
            code: region.mass.copy() for code, region in mesh.prepared.regions.items()
        }

        class AddOne:
            """Stands in for the halo exchanger: a neighbour adds 1 everywhere."""

            merge_regions = True

            def assemble(self, arrays):
                for arr in arrays.values():
                    arr += 1.0

        solver = GlobalSolver(mesh, tiny_params(), exchanger=AddOne())
        assert solver.prepared is mesh.prepared
        for code, region in mesh.prepared.regions.items():
            assert np.array_equal(region.mass, before[code])
            assert np.array_equal(solver.mass[code], before[code] + 1.0)


class TestOwnership:
    def test_a_solver_on_an_uncached_mesh_frees_its_prepared_arrays(self):
        mesh = build_global_mesh(tiny_params())
        gc.collect()
        gc.disable()
        try:
            solver = GlobalSolver(mesh, tiny_params(), sources=[explosion()])
            solver.run(n_steps=2)
            refs = [weakref.ref(solver.prepared)]
            refs += [weakref.ref(a) for a in prepared_arrays(solver.prepared)]
            del solver
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()

    def test_an_evicted_entry_drops_its_prepared_arrays(self):
        cache = MeshCache(max_entries=1)
        mesh, _ = cache.get(tiny_params())
        gc.collect()
        gc.disable()
        try:
            solver = GlobalSolver(mesh, tiny_params(), sources=[explosion()])
            refs = [weakref.ref(mesh.prepared)]
            refs += [weakref.ref(a) for a in prepared_arrays(mesh.prepared)]
            del solver
            assert all(ref() is not None for ref in refs)  # the cache keeps them
            cache.get(tiny_params(seed=1))  # another key evicts the entry
            assert mesh.prepared is None
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()

    def test_a_reloaded_spill_is_prepared_afresh(self, tmp_path):
        cache = MeshCache(max_entries=1, spill_dir=tmp_path)
        mesh, _ = cache.get(tiny_params())
        first = GlobalSolver(mesh, tiny_params(), sources=[explosion()])
        cache.get(tiny_params(seed=1))
        reloaded, _ = cache.get(tiny_params())
        assert cache.stats()["disk_hits"] == 1
        assert reloaded.prepared is not None and reloaded.prepared is not first.prepared
        again = GlobalSolver(reloaded, tiny_params(), sources=[explosion()])
        assert again.prepared is reloaded.prepared
        assert np.array_equal(again.mass[0], first.mass[0])
