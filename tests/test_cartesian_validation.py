"""Validation of the SEM machinery against analytic solutions (V-SEM).

These are the correctness anchors for everything the globe solver uses:
kernels, assembly, mass matrices, and the explicit Newmark scheme.  Every
box runs on :class:`~repro.solver.GlobalSolver`, the loop production
runs; box units are the globe's (km, km/s), so masses read
``LENGTH_SCALE**3`` times their box-unit values.
"""

import numpy as np
import pytest

from repro.cartesian import (
    acoustic_standing_mode,
    build_box_mesh,
    plane_p_wave,
    plane_s_wave,
)
from repro.config.parameters import SimulationParameters
from repro.model.prem import RegionCode
from repro.solver import GlobalSolver
from repro.solver.prepared import LENGTH_SCALE

CM = RegionCode.CRUST_MANTLE


def box_solver(mesh, courant=0.4, t_end=1.0, dt=None):
    """The globe's solver on a box: ``n_steps`` covers ``t_end``."""
    params = SimulationParameters(courant=courant, record_length_s=t_end)
    return GlobalSolver(mesh, params, dt_override=dt)


def start_plane_wave(solver, wave, moving=True):
    solver.set_initial_condition(
        lambda x: wave.displacement(x, 0.0),
        (lambda x: wave.velocity(x, 0.0)) if moving else None,
    )


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
        solver = box_solver(mesh)
        assert solver.mass[CM].sum() == pytest.approx(
            5.0 * 2.0 * LENGTH_SCALE**3, rel=1e-12
        )

    def test_periodic_total_mass(self):
        mesh = build_box_mesh((2, 2, 2), periodic=True, rho=3.0)
        solver = box_solver(mesh)
        assert solver.mass[CM].sum() == pytest.approx(
            3.0 * LENGTH_SCALE**3, rel=1e-12
        )


class TestElasticPlaneWaves:
    def _propagate_error(
        self, n_elem: int, wave, t_end: float = 0.25, courant: float = 0.2
    ):
        mesh = build_box_mesh(
            (n_elem, 1, 1), lengths=(1.0, 0.25, 0.25), periodic=True,
            rho=1.0, vp=np.sqrt(3.0), vs=1.0,
        )
        solver = box_solver(mesh, courant, t_end)
        start_plane_wave(solver, wave)
        solver.run()
        t = solver.n_steps * solver.dt
        exact = wave.displacement(mesh.mesh.global_coordinates(), t)
        return float(
            np.linalg.norm(solver.solid[CM].displ[0] - exact)
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
        # vs = 0: the box is one fluid region, marched as the potential.
        mesh = build_box_mesh((4, 1, 1), lengths=(1.0, 0.3, 0.3), vp=1.0, vs=0.0)
        chi_at, omega = acoustic_standing_mode((1.0, 0.3, 0.3), vp=1.0)
        # March half a period: chi should be exactly inverted.
        half_period = np.pi / omega
        n = max(1, int(round(half_period / box_solver(mesh, 0.3).dt)))
        # Land exactly on t = T/2.
        solver = box_solver(mesh, 0.3, dt=half_period / n)
        solver.set_initial_condition(lambda x: chi_at(x, 0.0))
        solver.run(n_steps=n)
        exact = chi_at(mesh.mesh.global_coordinates(), half_period)
        err = np.linalg.norm(solver.fluid.chi[0] - exact) / np.linalg.norm(exact)
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
        solver = box_solver(mesh, 0.3, t_end=0.5)
        start_plane_wave(solver, wave)
        e0 = solver.total_energy()
        solver.run()
        e1 = solver.total_energy()
        assert e1 == pytest.approx(e0, rel=1e-6)

    def test_energy_positive(self):
        mesh = build_box_mesh((2, 2, 2), periodic=True)
        wave = plane_s_wave((1.0, 1.0, 1.0), vs=1.0)
        solver = box_solver(mesh)
        start_plane_wave(solver, wave, moving=False)
        assert solver.total_energy() > 0.0

    def test_unstable_beyond_courant_limit(self):
        # The explicit scheme is conditionally stable (Section 2.4): a time
        # step well beyond the Courant limit must blow up.
        mesh = build_box_mesh((3, 1, 1), lengths=(1.0, 0.3, 0.3), periodic=True)
        wave = plane_s_wave((1.0, 0.3, 0.3), vs=1.0)
        solver = box_solver(mesh, dt=20.0 * box_solver(mesh, 0.3).dt)
        start_plane_wave(solver, wave, moving=False)
        solver.run(n_steps=60)
        displ = solver.solid[CM].displ[0]
        assert not np.all(np.isfinite(displ)) or (
            np.max(np.abs(displ)) > 1e3 * wave.amplitude
        )
