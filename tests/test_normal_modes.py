"""Normal-mode validation helpers: analytic toroidal eigenmodes.

The pieces the end-to-end check is built from — characteristic equation,
eigenfrequencies, mode displacement, homogeneous model, period
measurement.  The marching check (initialise the homogeneous solid
sphere with the analytic _0T_2 eigenmode and verify the SEM oscillates at
the analytic eigenfrequency, the Section-3 practice of benchmarking
against semi-analytical normal-mode synthetics) marches 3 234 steps and
lives in ``benchmarks/test_validation_normal_modes.py::test_0T2_period``,
a blocking CI guard.  :class:`TestRayleighQuotient` checks the same
operator without marching: the SEM's Rayleigh quotient of each analytic
eigenmode against its squared eigenfrequency.
"""

import numpy as np
import pytest

from repro.analysis import (
    make_homogeneous,
    measure_period_zero_crossings,
    toroidal_characteristic,
    toroidal_eigenfrequencies,
    toroidal_mode_displacement,
)
from repro.config import constants
from repro.config.parameters import SimulationParameters
from repro.mesh import build_global_mesh
from repro.solver import GlobalSolver


class TestAnalyticModes:
    def test_characteristic_properties(self):
        # f(x) -> 0 as x -> 0 for l=2 ((l-1) j_l - x j_{l+1} ~ O(x^2)).
        assert abs(toroidal_characteristic(2, 1e-6)) < 1e-10
        with pytest.raises(ValueError):
            toroidal_characteristic(1, 1.0)

    def test_known_first_root_l2(self):
        # The first root of (l-1) j_l(x) = x j_{l+1}(x) for l=2 is the
        # classical x ~ 2.501 (e.g. Dahlen & Tromp, homogeneous sphere).
        omega = toroidal_eigenfrequencies(2, vs_m_s=1.0, radius_m=1.0, n_modes=1)
        assert omega[0] == pytest.approx(2.501, abs=0.01)

    def test_overtones_increasing(self):
        omegas = toroidal_eigenfrequencies(2, 4000.0, 6.371e6, n_modes=4)
        assert np.all(np.diff(omegas) > 0)

    def test_higher_degree_higher_frequency(self):
        w2 = toroidal_eigenfrequencies(2, 4000.0, 6.371e6, 1)[0]
        w3 = toroidal_eigenfrequencies(3, 4000.0, 6.371e6, 1)[0]
        assert w3 > w2

    def test_earth_scale_period(self):
        # For vs = 4 km/s, R = 6371 km: T(0T2) = 2 pi R / (x vs) ~ 2510 s.
        omega = toroidal_eigenfrequencies(2, 4000.0, 6.371e6, 1)[0]
        period = 2 * np.pi / omega
        assert period == pytest.approx(2.0 * np.pi * 6.371e6 / (2.501 * 4000.0),
                                       rel=1e-3)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            toroidal_eigenfrequencies(2, -1.0, 1.0)
        with pytest.raises(ValueError):
            toroidal_mode_displacement(np.zeros((1, 3)), 5, 1.0, 4000.0)


class TestModeDisplacement:
    def test_purely_azimuthal(self):
        rng = np.random.default_rng(0)
        coords = rng.uniform(-4000, 4000, (100, 3))
        u = toroidal_mode_displacement(coords, 2, 1.5e-3, 4000.0)
        # Toroidal: u . rhat = 0 and u_z = 0 for m=0.
        r = np.linalg.norm(coords, axis=1, keepdims=True)
        radial = np.einsum("pc,pc->p", u, coords / r)
        np.testing.assert_allclose(radial, 0.0, atol=1e-12)
        np.testing.assert_allclose(u[:, 2], 0.0, atol=1e-15)

    def test_vanishes_on_axis_and_centre(self):
        coords = np.array([[0.0, 0.0, 3000.0], [0.0, 0.0, 0.0]])
        u = toroidal_mode_displacement(coords, 2, 1.5e-3, 4000.0)
        np.testing.assert_allclose(u, 0.0, atol=1e-12)


class TestMakeHomogeneous:
    def test_override(self):
        params = SimulationParameters(
            nex_xi=4, nproc_xi=1, ner_crust_mantle=2, ner_outer_core=1,
            ner_inner_core=1, uniform_radial_layers=True,
        )
        mesh = build_global_mesh(params)
        make_homogeneous(mesh, rho=4500.0, vp=6928.0, vs=4000.0)
        for rmesh in mesh.regions.values():
            assert not rmesh.is_fluid
            assert np.all(rmesh.mu > 0)
            np.testing.assert_allclose(rmesh.rho, 4500.0)

    def test_invalid_material(self):
        params = SimulationParameters(nex_xi=4)
        mesh = build_global_mesh(params)
        with pytest.raises(ValueError):
            make_homogeneous(mesh, vs=0.0)


class TestPeriodMeasurement:
    def test_pure_cosine(self):
        dt = 0.5
        t = np.arange(400) * dt
        trace = np.cos(2 * np.pi * t / 37.0)
        assert measure_period_zero_crossings(trace, dt) == pytest.approx(
            37.0, rel=1e-3
        )

    def test_too_few_crossings(self):
        with pytest.raises(ValueError):
            measure_period_zero_crossings(np.ones(100), 0.1)


class TestRayleighQuotient:
    """The direct-SEM normal-mode comparison (Myhill & Al-Attar, arXiv
    2603.08613): with the displacement set to an analytic toroidal
    eigenmode u and the velocity zero, ``2 E / u^T M u`` is the SEM's
    Rayleigh quotient ``u^T K u / u^T M u``, which approximates the
    mode's omega^2 to the discretisation error of the NEX 4 sphere."""

    VS, VP, RHO = 4000.0, 6928.0, 4500.0
    #: (overtone n, degree l) -> bound on |quotient / omega^2 - 1|: ten
    #: times the NEX 4 error (2.1e-8, -7.9e-8, 1.2e-7, 8.1e-8, 1.1e-6).
    #: Those are discretisation errors, not roundoff: at NEX 8 (NER
    #: 6/4/2) the same modes read 7.8e-10, -1.8e-10, 6.9e-9, 2.4e-9 and
    #: 2.7e-8, 18-450 times smaller.
    BOUNDS = {(0, 2): 2e-7, (0, 3): 8e-7, (1, 2): 1.2e-6, (1, 3): 8e-7,
              (2, 2): 1.1e-5}

    @pytest.fixture(scope="class")
    def solver(self):
        params = SimulationParameters(
            nex_xi=4, nproc_xi=1, ner_crust_mantle=3, ner_outer_core=2,
            ner_inner_core=1, uniform_radial_layers=True,
        )
        mesh = build_global_mesh(params)
        make_homogeneous(mesh, rho=self.RHO, vp=self.VP, vs=self.VS)
        return GlobalSolver(mesh, params)

    @pytest.mark.parametrize("n, l", sorted(BOUNDS))
    def test_quotient_matches_eigenfrequency(self, solver, n, l):
        omega = toroidal_eigenfrequencies(
            l, self.VS, constants.R_EARTH_M, n + 1
        )[n]
        solver.set_initial_condition(
            lambda coords: toroidal_mode_displacement(coords, l, omega, self.VS)
        )
        u_m_u = sum(
            float(np.sum(solver.mass[code][:, None] * solver.solid[code].displ**2))
            for code in solver.solid_codes
        )
        quotient = 2.0 * solver.total_energy() / u_m_u
        assert abs(quotient / omega**2 - 1.0) < self.BOUNDS[n, l]
