"""Validation of the SEM machinery against analytic solutions (V-SEM).

These are the correctness anchors for everything the globe solver uses:
kernels, assembly, mass matrices, and the explicit Newmark scheme.
"""

import functools

import numpy as np
import pytest

from repro.cartesian import (
    CartesianAcousticSolver,
    CartesianElasticSolver,
    acoustic_standing_mode,
    build_box_mesh,
    plane_p_wave,
    plane_s_wave,
)
from repro.cartesian import solver as cartesian_solver
from repro.kernels.elastic import compute_forces_elastic
from repro.kernels.weakform import KERNEL_VARIANTS


class TestBoxMesh:
    def test_non_periodic_counting(self):
        mesh = build_box_mesh((2, 2, 2), ngll=5)
        assert mesh.nglob == 9**3

    def test_periodic_identification(self):
        mesh = build_box_mesh((2, 2, 2), ngll=5, periodic=True)
        assert mesh.nglob == 8**3  # wrap removes one plane per axis

    def test_material_arrays(self):
        mesh = build_box_mesh((1, 1, 1), rho=2.0, vp=3.0, vs=1.5)
        rho, lam, mu = mesh.material_arrays()
        assert np.all(mu == 2.0 * 1.5**2)
        assert np.all(lam == 2.0 * 9.0 - 2.0 * 2.0 * 2.25)

    def test_invalid(self):
        with pytest.raises(ValueError):
            build_box_mesh((0, 1, 1))
        with pytest.raises(ValueError):
            build_box_mesh((1, 1, 1), rho=-1.0)


class TestMassMatrix:
    def test_total_mass(self):
        mesh = build_box_mesh((3, 2, 2), lengths=(2.0, 1.0, 1.0), rho=5.0)
        solver = CartesianElasticSolver(mesh)
        assert solver.mass.sum() == pytest.approx(5.0 * 2.0, rel=1e-12)

    def test_periodic_total_mass(self):
        mesh = build_box_mesh((2, 2, 2), periodic=True, rho=3.0)
        solver = CartesianElasticSolver(mesh)
        assert solver.mass.sum() == pytest.approx(3.0, rel=1e-12)


class TestElasticPlaneWaves:
    def _propagate_error(
        self, n_elem: int, wave, t_end: float = 0.25, courant: float = 0.2
    ):
        mesh = build_box_mesh(
            (n_elem, 1, 1), lengths=(1.0, 0.25, 0.25), periodic=True,
            rho=1.0, vp=np.sqrt(3.0), vs=1.0,
        )
        solver = CartesianElasticSolver(mesh, courant=courant)
        solver.set_initial_condition(
            lambda x: wave.displacement(x, 0.0),
            lambda x: wave.velocity(x, 0.0),
        )
        n = solver.run(t_end)
        t = n * solver.dt
        coords = np.empty((mesh.nglob, 3))
        coords[mesh.ibool.ravel()] = mesh.xyz.reshape(-1, 3)
        exact = wave.displacement(coords, t)
        return float(
            np.linalg.norm(solver.displ - exact)
            / np.linalg.norm(exact)
        )

    def test_s_wave_accuracy(self):
        wave = plane_s_wave((1.0, 0.25, 0.25), vs=1.0)
        err = self._propagate_error(4, wave)
        assert err < 1e-3

    def test_p_wave_accuracy(self):
        wave = plane_p_wave((1.0, 0.25, 0.25), vp=np.sqrt(3.0))
        err = self._propagate_error(4, wave)
        assert err < 2e-3

    def test_spatial_convergence(self):
        # Refining 2 -> 4 elements per wavelength must slash the error
        # (spectral accuracy: much faster than 2nd order). A tiny Courant
        # number keeps the O(dt^2) time error out of the comparison.
        wave = plane_s_wave((1.0, 0.25, 0.25), vs=1.0)
        err_coarse = self._propagate_error(2, wave, courant=0.02)
        err_fine = self._propagate_error(4, wave, courant=0.02)
        assert err_fine < err_coarse / 20.0


class TestAcousticStandingMode:
    def test_mode_oscillates_at_analytic_frequency(self):
        mesh = build_box_mesh((4, 1, 1), lengths=(1.0, 0.3, 0.3), vp=1.0)
        chi_at, omega = acoustic_standing_mode((1.0, 0.3, 0.3), vp=1.0)
        solver = CartesianAcousticSolver(mesh, courant=0.3)
        solver.set_initial_condition(lambda x: chi_at(x, 0.0))
        # March half a period: chi should be exactly inverted.
        half_period = np.pi / omega
        n = max(1, int(round(half_period / solver.dt)))
        solver.dt = half_period / n  # land exactly on t = T/2
        for _ in range(n):
            solver.step()
        coords = np.empty((mesh.nglob, 3))
        coords[mesh.ibool.ravel()] = mesh.xyz.reshape(-1, 3)
        exact = chi_at(coords, half_period)
        err = np.linalg.norm(solver.chi - exact) / np.linalg.norm(exact)
        assert err < 1e-3

    def test_zero_mode_rejected(self):
        with pytest.raises(ValueError):
            acoustic_standing_mode((1, 1, 1), vp=1.0, modes=(0, 0, 0))


class TestEnergyConservation:
    def test_elastic_energy_conserved(self):
        mesh = build_box_mesh(
            (3, 2, 2), lengths=(1.0, 0.7, 0.7), periodic=True, vp=np.sqrt(3.0)
        )
        wave = plane_s_wave((1.0, 0.7, 0.7), vs=1.0)
        solver = CartesianElasticSolver(mesh, courant=0.3)
        solver.set_initial_condition(
            lambda x: wave.displacement(x, 0.0),
            lambda x: wave.velocity(x, 0.0),
        )
        e0 = solver.total_energy()
        solver.run(0.5)
        e1 = solver.total_energy()
        assert e1 == pytest.approx(e0, rel=1e-6)

    def test_energy_positive(self):
        mesh = build_box_mesh((2, 2, 2), periodic=True)
        wave = plane_s_wave((1.0, 1.0, 1.0), vs=1.0)
        solver = CartesianElasticSolver(mesh)
        solver.set_initial_condition(lambda x: wave.displacement(x, 0.0))
        assert solver.total_energy() > 0.0

    def test_unstable_beyond_courant_limit(self):
        # The explicit scheme is conditionally stable (Section 2.4): a time
        # step well beyond the Courant limit must blow up.
        mesh = build_box_mesh((3, 1, 1), lengths=(1.0, 0.3, 0.3), periodic=True)
        wave = plane_s_wave((1.0, 0.3, 0.3), vs=1.0)
        solver = CartesianElasticSolver(mesh, courant=0.3)
        solver.set_initial_condition(lambda x: wave.displacement(x, 0.0))
        solver.dt *= 20.0
        for _ in range(60):
            solver.step()
        assert not np.all(np.isfinite(solver.displ)) or (
            np.max(np.abs(solver.displ)) > 1e3 * wave.amplitude
        )

    def test_kernel_variants_give_identical_trajectories(self, monkeypatch):
        # The paper's associativity observation: different implementations
        # (and loop orders) yield seismograms identical to roundoff.  The
        # solver runs the vectorized contraction; each variant is injected
        # at its force-kernel call.
        mesh = build_box_mesh((2, 1, 1), lengths=(1.0, 0.4, 0.4), periodic=True)
        wave = plane_s_wave((1.0, 0.4, 0.4), vs=1.0)
        results = {}
        for variant in KERNEL_VARIANTS:
            monkeypatch.setattr(
                cartesian_solver, "compute_forces_elastic",
                functools.partial(compute_forces_elastic, variant=variant),
            )
            solver = CartesianElasticSolver(mesh)
            solver.set_initial_condition(
                lambda x: wave.displacement(x, 0.0),
                lambda x: wave.velocity(x, 0.0),
            )
            for _ in range(20):
                solver.step()
            results[variant] = solver.displ.copy()
        np.testing.assert_allclose(
            results["baseline"], results["vectorized"], atol=1e-18
        )
        np.testing.assert_allclose(
            results["blas"], results["vectorized"], atol=1e-14
        )
