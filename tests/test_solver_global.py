"""Integration tests: the coupled global solver on a small globe mesh."""

import numpy as np
import pytest

from repro.config import constants
from repro.config.parameters import SimulationParameters
from repro.mesh import build_global_mesh
from repro.model.prem import RegionCode
from repro.solver import (
    GlobalSolver,
    MomentTensorSource,
    Station,
    gaussian_stf,
)


def explosion_source(depth_km: float = 100.0, m0: float = 1e20):
    """Isotropic source below the north pole."""
    r = constants.R_EARTH_KM - depth_km
    return MomentTensorSource(
        position=(0.0, 0.0, r),
        moment=m0 * np.eye(3),
        stf=gaussian_stf(15.0),
        time_shift=40.0,
    )


def surface_stations():
    r = constants.R_EARTH_KM
    return [
        Station("POLE", (0.0, 0.0, r)),
        Station("EQ_X", (r, 0.0, 0.0)),
        Station("MID", (r / np.sqrt(2), 0.0, r / np.sqrt(2))),
    ]


@pytest.fixture(scope="module")
def tiny_params():
    return SimulationParameters(
        nex_xi=4,
        nproc_xi=1,
        ner_crust_mantle=3,
        ner_outer_core=2,
        ner_inner_core=1,
        nstep_override=60,
    )


@pytest.fixture(scope="module")
def tiny_mesh(tiny_params):
    return build_global_mesh(tiny_params)


class TestSolverSetup:
    def test_couplings_built(self, tiny_mesh, tiny_params):
        solver = GlobalSolver(tiny_mesh, tiny_params)
        radii = sorted(op.radius for _, op in solver.couplings)
        assert radii == pytest.approx([constants.R_ICB_KM, constants.R_CMB_KM])

    def test_coupling_area_matches_sphere(self, tiny_mesh, tiny_params):
        solver = GlobalSolver(tiny_mesh, tiny_params)
        for solid_code, op in solver.couplings:
            area = op.weights.sum()
            exact = 4.0 * np.pi * (op.radius * 1000.0) ** 2
            assert area == pytest.approx(exact, rel=1e-3)

    def test_coupling_normals_radial(self, tiny_mesh, tiny_params):
        solver = GlobalSolver(tiny_mesh, tiny_params)
        for _, op in solver.couplings:
            norms = np.linalg.norm(op.normals, axis=-1)
            np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_mass_matrix_totals_earth_mass(self, tiny_mesh, tiny_params):
        solver = GlobalSolver(tiny_mesh, tiny_params)
        total = sum(
            solver.mass[code].sum()
            for code in solver.solid_codes
        )
        # Solid regions only: Earth mass minus the fluid outer core
        # (~1.84e24 kg), on a very coarse mesh -> loose tolerance.
        assert total == pytest.approx(5.97e24 - 1.84e24, rel=0.05)

    def test_dt_positive(self, tiny_mesh, tiny_params):
        solver = GlobalSolver(tiny_mesh, tiny_params)
        assert 0.0 < solver.dt < 60.0

    def test_fluid_source_rejected(self, tiny_mesh, tiny_params):
        src = MomentTensorSource(
            position=(0.0, 0.0, 2000.0),  # inside the outer core
            moment=np.eye(3),
            stf=gaussian_stf(10.0),
        )
        with pytest.raises(ValueError):
            GlobalSolver(tiny_mesh, tiny_params, sources=[src])


class TestQuietEarth:
    def test_no_source_stays_quiet(self, tiny_mesh, tiny_params):
        solver = GlobalSolver(tiny_mesh, tiny_params, stations=surface_stations())
        result = solver.run(n_steps=10)
        assert np.all(result.seismograms == 0.0)


class TestEarthquakeRun:
    @pytest.fixture(scope="class")
    def result_and_solver(self, tiny_mesh, tiny_params):
        solver = GlobalSolver(
            tiny_mesh,
            tiny_params,
            sources=[explosion_source()],
            stations=surface_stations(),
        )
        result = solver.run(track_energy=True)
        return result, solver

    def test_run_is_stable(self, result_and_solver):
        result, solver = result_and_solver
        assert np.all(np.isfinite(result.seismograms))
        for code in solver.solid_codes:
            assert np.all(np.isfinite(solver.solid[code].displ))
        assert np.all(np.isfinite(solver.fluid.chi))

    def test_waves_reach_stations(self, result_and_solver):
        result, _ = result_and_solver
        # The source acts at t ~ 40 s under the pole: the polar station
        # must move; amplitude at the antipodal-ish equator is smaller
        # at early times.
        pole = result.receivers.seismogram("POLE")
        assert np.abs(pole).max() > 0.0

    def test_fluid_core_excited(self, result_and_solver):
        _, solver = result_and_solver
        assert np.abs(solver.fluid.chi).max() > 0.0

    def test_inner_core_excited(self, result_and_solver):
        _, solver = result_and_solver
        ic = solver.solid[RegionCode.INNER_CORE]
        assert np.abs(ic.displ).max() > 0.0

    def test_energy_bounded(self, result_and_solver):
        result, _ = result_and_solver
        e = result.energy_history
        assert np.all(np.isfinite(e))
        # After the source window the energy must not grow.
        assert e[-1] <= e.max() * 1.000001

    def test_timings_recorded(self, result_and_solver):
        result, _ = result_and_solver
        assert result.timings.total_s > 0
        assert 0 < result.timings.compute_s <= result.timings.total_s
        assert result.timings.steps == result.n_steps


class TestPhysicsSwitches:
    """Each optional physics term runs stably and changes the solution."""

    def _run(self, tiny_mesh, params, n_steps=40):
        solver = GlobalSolver(
            tiny_mesh, params,
            sources=[explosion_source()],
            stations=surface_stations(),
        )
        return solver.run(n_steps=n_steps)

    def test_attenuation_damps(self, tiny_mesh, tiny_params):
        base = self._run(tiny_mesh, tiny_params)
        atten = self._run(tiny_mesh, tiny_params.with_updates(attenuation=True))
        assert np.all(np.isfinite(atten.seismograms))
        # Attenuation changes the waveform (measurably, relative to scale).
        scale = np.abs(base.seismograms).max()
        assert np.abs(base.seismograms - atten.seismograms).max() > 1e-6 * scale

    def test_rotation_stable(self, tiny_mesh, tiny_params):
        res = self._run(tiny_mesh, tiny_params.with_updates(rotation=True))
        assert np.all(np.isfinite(res.seismograms))

    def test_gravity_stable(self, tiny_mesh, tiny_params):
        res = self._run(tiny_mesh, tiny_params.with_updates(gravity=True))
        assert np.all(np.isfinite(res.seismograms))

    def test_oceans_stable_and_different(self, tiny_mesh, tiny_params):
        base = self._run(tiny_mesh, tiny_params)
        ocean = self._run(tiny_mesh, tiny_params.with_updates(oceans=True))
        assert np.all(np.isfinite(ocean.seismograms))
        scale = np.abs(base.seismograms).max()
        assert np.abs(base.seismograms - ocean.seismograms).max() > 1e-6 * scale

    def test_station_modes_agree_approximately(self, tiny_mesh, tiny_params):
        interp = self._run(
            tiny_mesh, tiny_params.with_updates(station_location="interpolated")
        )
        close = self._run(
            tiny_mesh, tiny_params.with_updates(station_location="closest_point")
        )
        # Stations sit exactly on mesh nodes here (chunk corners/centres),
        # so the two algorithms should agree well.
        a, b = interp.seismograms, close.seismograms
        scale = np.abs(b).max()
        if scale > 0:
            np.testing.assert_allclose(a, b, atol=0.05 * scale)

    def test_kernel_variants_identical_seismograms(self, tiny_mesh, tiny_params):
        # The paper's loop-order/implementation invariance check, on the
        # real globe mesh.
        vec = self._run(tiny_mesh, tiny_params, n_steps=25)
        blas = self._run(
            tiny_mesh, tiny_params.with_updates(kernel_variant="blas"), n_steps=25
        )
        scale = max(np.abs(vec.seismograms).max(), 1e-300)
        np.testing.assert_allclose(
            vec.seismograms / scale, blas.seismograms / scale, atol=1e-9
        )


class TestFusedForceSchedule:
    def test_one_hprime_triple_per_block_with_attenuation(
        self, tiny_mesh, tiny_params, monkeypatch
    ):
        # With attenuation on, the displacement gradient is evaluated once
        # per (block of a subset, event, step) and serves both the memory
        # variables and the stress: one hprime triple forward, one back.
        from repro.kernels import weakform

        batched = weakform._CONTRACT["vectorized"]
        calls = []

        def counting(axis, m, mt, src, dst, n):
            calls.append((axis, m))
            batched(axis, m, mt, src, dst, n)

        monkeypatch.setitem(weakform._CONTRACT, "vectorized", counting)
        n_steps, events = 2, [[explosion_source()], [explosion_source(300.0)]]
        solver = GlobalSolver(
            tiny_mesh, tiny_params.with_updates(attenuation=True),
            event_sources=events,
        )
        assert solver.attenuation and not calls
        solver.run(n_steps=n_steps)
        blocks = sum(
            -(-st.ibool.shape[0] // weakform.BLOCK) for st in solver.regions.values()
        )
        h = solver.basis.hprime
        for axis in range(3):
            forward = sum(1 for a, m in calls if a == axis and m is h)
            back = sum(1 for a, m in calls if a == axis and m is not h)
            assert forward == back == n_steps * len(events) * blocks
