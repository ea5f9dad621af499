"""Tests for the regional single-chunk mode and Stacey absorbing boundaries."""

import dataclasses

import numpy as np
import pytest

from repro.config import constants
from repro.config.parameters import SimulationParameters
from repro.gll import GLLBasis
from repro.regional import build_regional_mesh
from repro.solver import (
    GlobalSolver,
    build_stacey_boundary,
    load_checkpoint,
    save_checkpoint,
)
from repro.solver.absorbing import _outward_normals
from repro.mesh.interfaces import FACE_SLICES
from repro.solver import MomentTensorSource, Station, gaussian_stf


@pytest.fixture(scope="module")
def params():
    return SimulationParameters(
        nex_xi=6, nproc_xi=1, ner_crust_mantle=3, nstep_override=30,
    )


@pytest.fixture(scope="module")
def regional(params):
    return build_regional_mesh(params, chunk=0, depth_km=600.0)


class TestRegionalMesh:
    def test_element_count(self, params, regional):
        assert regional.nspec == params.nex_xi**2 * params.ner_crust_mantle

    def test_depth_range(self, regional):
        r = regional.mesh.radii()
        assert r.max() == pytest.approx(constants.R_EARTH_KM, rel=1e-12)
        assert r.min() == pytest.approx(constants.R_EARTH_KM - 600.0, rel=1e-9)

    def test_face_classification(self, params, regional):
        nex = params.nex_xi
        assert len(regional.free_surface_faces) == nex * nex
        # Sides: 4 * nex * ner ; bottom: nex^2.
        expected_absorbing = 4 * nex * params.ner_crust_mantle + nex * nex
        assert len(regional.absorbing_faces) == expected_absorbing

    def test_materials_are_mantle(self, regional):
        assert np.all(regional.mesh.mu > 0)  # all solid
        assert regional.mesh.rho.min() > 2500.0

    def test_invalid_depth(self, params):
        with pytest.raises(ValueError):
            build_regional_mesh(params, depth_km=5000.0)


class TestStaceyBoundary:
    def test_outward_normals_on_sphere_faces(self, regional):
        basis = GLLBasis(5)
        mesh = regional.mesh
        # Bottom faces: outward = -rhat; free-surface faces: +rhat.
        for ispec, face_id in regional.absorbing_faces:
            if face_id != 4:
                continue
            face_xyz = mesh.xyz[(ispec, *FACE_SLICES[face_id])]
            n = _outward_normals(face_xyz, face_id, basis)
            rhat = face_xyz / np.linalg.norm(face_xyz, axis=-1, keepdims=True)
            dots = np.einsum("ijc,ijc->ij", n, rhat)
            assert np.all(dots < -0.99)
            break

    def test_normals_unit_length(self, regional):
        basis = GLLBasis(5)
        stacey = build_stacey_boundary(
            regional.mesh, regional.absorbing_faces, basis
        )
        np.testing.assert_allclose(
            np.linalg.norm(stacey.normals, axis=1), 1.0, atol=1e-12
        )

    def test_impedance_weights_positive(self, regional):
        stacey = build_stacey_boundary(
            regional.mesh, regional.absorbing_faces, GLLBasis(5)
        )
        assert np.all(stacey.weight_p > 0)
        assert np.all(stacey.weight_s > 0)
        assert np.all(stacey.weight_p > stacey.weight_s)  # vp > vs

    def test_dissipative(self, regional):
        # The Stacey traction always removes energy: v . f_stacey <= 0.
        stacey = build_stacey_boundary(
            regional.mesh, regional.absorbing_faces, GLLBasis(5)
        )
        rng = np.random.default_rng(0)
        veloc = rng.standard_normal((regional.mesh.nglob, 3))
        force = np.zeros_like(veloc)
        stacey.apply(force, veloc)
        assert np.sum(force * veloc) < 0.0

    def test_requires_faces_and_materials(self, regional):
        with pytest.raises(ValueError):
            build_stacey_boundary(regional.mesh, [], GLLBasis(5))


class TestRegionalRun:
    def _source(self):
        return MomentTensorSource(
            position=(0.0, 0.0, constants.R_EARTH_KM - 80.0),
            moment=1e18 * np.eye(3),
            stf=gaussian_stf(4.0),
            time_shift=8.0,
        )

    def test_stable_run_with_receivers(self, regional, params):
        stations = [Station("TOP", (0.0, 0.0, constants.R_EARTH_KM))]
        solver = GlobalSolver(
            regional, params, sources=[self._source()], stations=stations
        )
        result = solver.run()
        assert np.all(np.isfinite(result.seismograms))
        assert np.abs(result.seismograms).max() > 0

    def test_absorbing_boundary_removes_energy(self, regional, params):
        """The headline test: waves leaving through the bottom are absorbed,
        so the late-time energy of the absorbing run is far below the
        rigid-boundary run's."""
        long_params = params.with_updates(nstep_override=1000)
        # Source near the truncation depth so outgoing waves hit the
        # absorbing bottom quickly (dt ~ 0.12 s on this mesh).
        deep_source = MomentTensorSource(
            position=(0.0, 0.0, constants.R_EARTH_KM - 450.0),
            moment=1e18 * np.eye(3),
            stf=gaussian_stf(3.0),
            time_shift=6.0,
        )

        rigid = dataclasses.replace(
            regional, absorbing_faces=regional.absorbing_faces[:0]
        )

        def late_energy(absorbing: bool) -> tuple[float, float]:
            solver = GlobalSolver(
                regional if absorbing else rigid, long_params,
                sources=[deep_source],
            )
            result = solver.run(track_energy=True)
            e = result.energy_history
            # Average the last quarter (kinetic energy oscillates).
            return float(e[-len(e) // 4:].mean()), float(e.max())

        e_abs, peak_abs = late_energy(True)
        e_rigid, peak_rigid = late_energy(False)
        assert e_abs < 0.5 * e_rigid
        # First-order paraxial absorption leaves grazing/surface energy in
        # the domain, so the absolute decay is partial.
        assert e_abs / peak_abs < 0.5

    def test_energy_never_negative(self, regional, params):
        solver = GlobalSolver(regional, params, sources=[self._source()])
        result = solver.run(track_energy=True)
        assert np.all(result.energy_history >= 0)


class TestRegionalOnGlobalSolver:
    """A regional mesh is a mesh bundle: batching and checkpoint/restart
    of the one solver hold on it, bit for bit, with Stacey active."""

    def _source(self, depth_km: float, m0: float):
        return MomentTensorSource(
            position=(0.0, 0.0, constants.R_EARTH_KM - depth_km),
            moment=m0 * np.eye(3),
            stf=gaussian_stf(4.0),
            time_shift=8.0,
        )

    def _stations(self):
        r = constants.R_EARTH_KM
        return [
            Station("TOP", (0.0, 0.0, r)),
            Station("FAR", (r * np.sin(0.3), 0.0, r * np.cos(0.3))),
        ]

    def test_batched_event_equals_dedicated_run(self, regional, params):
        events = [[self._source(80.0, 1e18)], [self._source(200.0, 3e18)]]
        batched = GlobalSolver(
            regional, params, stations=self._stations(), event_sources=events
        ).run()
        for b, sources in enumerate(events):
            solo = GlobalSolver(
                regional, params, sources=sources, stations=self._stations()
            ).run()
            assert np.array_equal(batched.seismograms[b], solo.seismograms)

    def test_checkpoint_resume_equals_uninterrupted_run(
        self, regional, params, tmp_path
    ):
        sources = [self._source(80.0, 1e18)]
        n_steps = params.nstep_override
        half = n_steps // 2
        uninterrupted = GlobalSolver(
            regional, params, sources=sources, stations=self._stations()
        ).run()
        writer = GlobalSolver(
            regional, params, sources=sources, stations=self._stations()
        )
        writer.run(stop_step=half)
        path = save_checkpoint(writer, tmp_path / "regional.ckpt", step=half)
        reader = GlobalSolver(
            regional, params, sources=sources, stations=self._stations()
        )
        assert load_checkpoint(reader, path) == half
        resumed = reader.run(start_step=half)
        assert np.array_equal(resumed.seismograms, uninterrupted.seismograms)
