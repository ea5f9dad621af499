"""Tests for transverse isotropy: TI kernel, PREM anisotropic layers, solver."""

import numpy as np
import pytest

from repro.config import constants
from repro.config.parameters import SimulationParameters
from repro.gll import GLLBasis
from repro.kernels import (
    TIModuli,
    compute_forces_elastic,
    compute_forces_elastic_ti,
    compute_geometry,
    radial_frames,
    stress_ti,
)
from repro.model import PREM
from repro.model.prem import RegionCode


def brick(nx=2, ny=2, nz=1, offset=10.0):
    from repro.gll import gll_points_and_weights

    nodes, _ = gll_points_and_weights(5)
    t = 0.5 * (nodes + 1.0)
    elems = []
    for kz in range(nz):
        for ky in range(ny):
            for kx in range(nx):
                X = kx + t[:, None, None] + offset
                Y = ky + t[None, :, None] + offset
                Z = kz + t[None, None, :] + offset
                X, Y, Z = np.broadcast_arrays(X, Y, Z)
                elems.append(np.stack([X, Y, Z], axis=-1))
    return np.asarray(elems)


class TestTIModuli:
    def test_from_isotropic(self):
        lam = np.full((1, 5, 5, 5), 2.0)
        mu = np.full((1, 5, 5, 5), 1.0)
        ti = TIModuli.from_isotropic(lam, mu)
        np.testing.assert_array_equal(ti.A, 4.0)
        np.testing.assert_array_equal(ti.C, 4.0)
        np.testing.assert_array_equal(ti.L, 1.0)
        np.testing.assert_array_equal(ti.N, 1.0)
        np.testing.assert_array_equal(ti.F, 2.0)
        assert ti.anisotropy_strength() == 0.0

    def test_validation(self):
        good = np.ones((1, 5, 5, 5))
        with pytest.raises(ValueError):
            TIModuli(A=-good, C=good, L=good, N=good, F=good)
        with pytest.raises(ValueError):
            TIModuli(A=good, C=good, L=good, N=np.ones((2, 5, 5, 5)), F=good)


class TestRadialFrames:
    def test_orthonormal(self):
        xyz = brick()
        q = radial_frames(xyz)
        identity = np.einsum("...ia,...ib->...ab", q, q)
        np.testing.assert_allclose(
            identity, np.broadcast_to(np.eye(3), identity.shape), atol=1e-13
        )

    def test_third_axis_radial(self):
        xyz = brick()
        q = radial_frames(xyz)
        rhat = xyz / np.linalg.norm(xyz, axis=-1, keepdims=True)
        np.testing.assert_allclose(q[..., :, 2], rhat, atol=1e-13)

    def test_origin_rejected(self):
        xyz = np.zeros((1, 2, 2, 2, 3))
        with pytest.raises(ValueError):
            radial_frames(xyz)


class TestTIStress:
    def test_reduces_to_isotropic(self):
        rng = np.random.default_rng(0)
        shape = (3, 5, 5, 5)
        lam = 1.0 + rng.random(shape)
        mu = 0.5 + rng.random(shape)
        strain = rng.standard_normal((*shape, 3, 3))
        strain = 0.5 * (strain + np.swapaxes(strain, -1, -2))
        frames = radial_frames(brick(3, 1, 1))
        ti = TIModuli.from_isotropic(lam, mu)
        sigma_ti = stress_ti(strain, ti, frames)
        trace = np.trace(strain, axis1=-2, axis2=-1)
        sigma_iso = 2.0 * mu[..., None, None] * strain
        sigma_iso += (lam * trace)[..., None, None] * np.eye(3)
        np.testing.assert_allclose(sigma_ti, sigma_iso, atol=1e-10)

    def test_azimuthal_invariance(self):
        # Rotating the transverse axes must not change the stress: compare
        # two different (valid) frame choices sharing the radial axis.
        rng = np.random.default_rng(1)
        shape = (1, 5, 5, 5)
        xyz = brick(1, 1, 1)
        frames = radial_frames(xyz)
        # Rotate e1, e2 by 37 degrees about rhat.
        angle = np.deg2rad(37.0)
        e1 = np.cos(angle) * frames[..., 0] + np.sin(angle) * frames[..., 1]
        e2 = -np.sin(angle) * frames[..., 0] + np.cos(angle) * frames[..., 1]
        frames2 = np.stack([e1, e2, frames[..., 2]], axis=-1)
        ti = TIModuli(
            A=4.0 + rng.random(shape),
            C=3.5 + rng.random(shape),
            L=1.0 + rng.random(shape),
            N=1.2 + rng.random(shape),
            F=1.8 + rng.random(shape),
        )
        strain = rng.standard_normal((*shape, 3, 3))
        strain = 0.5 * (strain + np.swapaxes(strain, -1, -2))
        np.testing.assert_allclose(
            stress_ti(strain, ti, frames),
            stress_ti(strain, ti, frames2),
            atol=1e-12,
        )

    def test_polarisation_speeds(self):
        # For the symmetry axis along z (radial), a shear strain in the
        # (e1, rhat) plane must feel L, one in (e1, e2) must feel N.
        shape = (1, 1, 1, 1)
        ti = TIModuli(
            A=np.full(shape, 4.0), C=np.full(shape, 3.0),
            L=np.full(shape, 1.0), N=np.full(shape, 2.0),
            F=np.full(shape, 1.5),
        )
        frames = np.broadcast_to(np.eye(3), (*shape, 3, 3))
        eps_13 = np.zeros((*shape, 3, 3))
        eps_13[..., 0, 2] = eps_13[..., 2, 0] = 0.5
        sig = stress_ti(eps_13, ti, frames)
        assert sig[0, 0, 0, 0, 0, 2] == pytest.approx(1.0)  # 2 L eps13
        eps_12 = np.zeros((*shape, 3, 3))
        eps_12[..., 0, 1] = eps_12[..., 1, 0] = 0.5
        sig = stress_ti(eps_12, ti, frames)
        assert sig[0, 0, 0, 0, 0, 1] == pytest.approx(2.0)  # 2 N eps12


class TestTIKernel:
    def test_matches_isotropic_kernel(self):
        xyz = brick(2, 2, 1)
        geom = compute_geometry(xyz)
        basis = GLLBasis(5)
        rng = np.random.default_rng(3)
        shape = xyz.shape[:-1]
        lam = 1.0 + rng.random(shape)
        mu = 0.5 + rng.random(shape)
        u = rng.standard_normal((*shape, 3))
        frames = radial_frames(xyz)
        ti = TIModuli.from_isotropic(lam, mu)
        out_ti = compute_forces_elastic_ti(u, geom, ti, frames, basis)
        out_iso = compute_forces_elastic(u, geom, lam, mu, basis)
        np.testing.assert_allclose(out_ti, out_iso, rtol=1e-10, atol=1e-12)

    def test_rigid_motion_zero_force(self):
        xyz = brick(2, 1, 1)
        geom = compute_geometry(xyz)
        basis = GLLBasis(5)
        shape = xyz.shape[:-1]
        ti = TIModuli(
            A=np.full(shape, 4.0), C=np.full(shape, 3.0),
            L=np.full(shape, 1.0), N=np.full(shape, 2.0),
            F=np.full(shape, 1.5),
        )
        frames = radial_frames(xyz)
        u = np.tile(np.array([0.3, -0.7, 1.1]), (*shape, 1))
        out = compute_forces_elastic_ti(u, geom, ti, frames, basis)
        np.testing.assert_allclose(out, 0.0, atol=1e-10)
        omega = np.array([0.1, 0.2, -0.3])
        u_rot = np.cross(np.broadcast_to(omega, xyz.shape), xyz)
        out = compute_forces_elastic_ti(u_rot, geom, ti, frames, basis)
        np.testing.assert_allclose(out, 0.0, atol=1e-8)

    def test_operator_symmetric(self):
        from repro.mesh import build_global_numbering

        xyz = brick(2, 2, 1)
        ibool, nglob = build_global_numbering(xyz)
        geom = compute_geometry(xyz)
        basis = GLLBasis(5)
        rng = np.random.default_rng(4)
        shape = xyz.shape[:-1]
        ti = TIModuli(
            A=4.0 + rng.random(shape), C=3.0 + rng.random(shape),
            L=1.0 + rng.random(shape), N=2.0 + rng.random(shape),
            F=1.5 + rng.random(shape),
        )
        frames = radial_frames(xyz)
        a = rng.standard_normal((nglob, 3))
        b = rng.standard_normal((nglob, 3))
        ka = compute_forces_elastic_ti(a[ibool], geom, ti, frames, basis)
        kb = compute_forces_elastic_ti(b[ibool], geom, ti, frames, basis)
        assert np.sum(b[ibool] * ka) == pytest.approx(
            np.sum(a[ibool] * kb), rel=1e-10
        )


class TestAnisotropicPREM:
    def test_upper_mantle_is_anisotropic(self):
        r = 6250.0  # inside the LVZ
        vsh = PREM.vsh(r)
        vsv = PREM.vsv(r)
        assert vsh > vsv  # PREM: horizontally polarised S is faster
        assert (vsh - vsv) / vsv > 0.01

    def test_lower_mantle_isotropic(self):
        r = 4000.0
        assert PREM.vsh(r) == PREM.vsv(r) == PREM.vs(r)
        assert PREM.vph(r) == PREM.vp(r)
        assert PREM.eta_anisotropy(r) == 1.0

    def test_published_values_at_220(self):
        # Anisotropic PREM at the top of the 220-km layer (x = 6151/6371):
        # vsv ~ 4.441 km/s, vsh ~ 4.437? (published: 4.432 / 4.436...);
        # just pin the polynomials' own values to guard regressions.
        x = constants.R_220_KM / constants.R_EARTH_KM
        assert PREM.vsv(6160.0) == pytest.approx(
            (5.8582 - 1.4678 * (6160.0 / 6371.0)) * 1000, rel=1e-12
        )

    def test_love_parameters_physical(self):
        r = np.linspace(6160.0, 6340.0, 20)
        a, c, l, n, f = PREM.love_parameters(r)
        assert np.all(a > 0) and np.all(c > 0)
        assert np.all(l > 0) and np.all(n > 0)
        assert np.all(n > l)  # vsh > vsv in the PREM upper mantle
        assert np.all(f > 0)

    def test_eta_below_one(self):
        assert PREM.eta_anisotropy(6250.0) < 1.0


class TestSolverWithTI:
    @pytest.fixture(scope="class")
    def params(self):
        return SimulationParameters(
            nex_xi=4, nproc_xi=1, ner_crust_mantle=3, ner_outer_core=1,
            ner_inner_core=1, nstep_override=20,
        )

    def test_mesher_attaches_ti(self, params):
        from repro.mesh import build_slice_mesh

        mesh = build_slice_mesh(params.with_updates(transverse_isotropy=True))
        cm = mesh.regions[RegionCode.CRUST_MANTLE]
        assert cm.ti_moduli is not None
        assert cm.ti_moduli.anisotropy_strength() > 0.01
        # Other regions stay isotropic.
        assert mesh.regions[RegionCode.INNER_CORE].ti_moduli is None

    def test_ti_solver_stable_and_different(self, params):
        from repro.mesh import build_global_mesh
        from repro.solver import GlobalSolver, MomentTensorSource, Station, gaussian_stf

        r = constants.R_EARTH_KM
        source = MomentTensorSource(
            position=(0.0, 0.0, r - 150.0), moment=1e20 * np.eye(3),
            stf=gaussian_stf(15.0), time_shift=20.0,
        )
        stations = [Station("S", (0.0, 0.0, r))]
        iso_mesh = build_global_mesh(params)
        iso = GlobalSolver(iso_mesh, params, sources=[source],
                           stations=stations).run()
        ti_params = params.with_updates(transverse_isotropy=True)
        ti_mesh = build_global_mesh(ti_params)
        ti = GlobalSolver(ti_mesh, ti_params, sources=[source],
                          stations=stations).run()
        assert np.all(np.isfinite(ti.seismograms))
        scale = np.abs(iso.seismograms).max()
        diff = np.abs(ti.seismograms - iso.seismograms).max()
        assert diff > 1e-6 * scale  # anisotropy changes the waveform
        assert diff < 0.5 * scale  # ... but it is a perturbation
