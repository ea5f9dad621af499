"""Unit tests for solver components: assembly, sources, receivers, physics terms."""

import numpy as np
import pytest

from repro.cartesian import build_box_mesh
from repro.gll import GLLBasis
from repro.kernels import compute_geometry
from repro.solver import (
    Station,
    assemble_mass_matrix,
    build_attenuation,
    coriolis_local_force,
    gather,
    gaussian_stf,
    gravity_local_force,
    locate_receivers,
    moment_tensor_source_array,
    point_force_source_array,
    ricker_stf,
    scatter_add,
    step_stf,
)
from repro.solver.receivers import ReceiverSet, _invert_isoparametric
from repro.solver.sources import MomentTensorSource


@pytest.fixture(scope="module")
def box():
    return build_box_mesh((2, 2, 2), lengths=(2.0, 2.0, 2.0))


@pytest.fixture(scope="module")
def box_geom(box):
    return compute_geometry(box.xyz)


class TestAssembly:
    def test_gather_scatter_adjoint(self, box):
        # <gather(g), l> == <g, scatter(l)> : gather/scatter are adjoint.
        rng = np.random.default_rng(0)
        g = rng.standard_normal(box.nglob)
        l = rng.standard_normal(box.ibool.shape)
        lhs = np.sum(gather(g, box.ibool) * l)
        rhs = np.sum(g * scatter_add(l, box.ibool, box.nglob))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_scatter_vector(self, box):
        l = np.ones((*box.ibool.shape, 3))
        out = scatter_add(l, box.ibool, box.nglob)
        assert out.shape == (box.nglob, 3)
        # Each global point receives one contribution per touching element
        # corner/face/edge; total preserved.
        assert out.sum() == pytest.approx(l.sum())

    def test_mass_positive(self, box, box_geom):
        rho = np.full(box.ibool.shape, 2.0)
        mass = assemble_mass_matrix(rho, box_geom, box.ibool, box.nglob)
        assert np.all(mass > 0)
        assert mass.sum() == pytest.approx(2.0 * 8.0, rel=1e-12)

    def test_mass_rejects_zero_density(self, box, box_geom):
        rho = np.zeros(box.ibool.shape)
        with pytest.raises(ValueError):
            assemble_mass_matrix(rho, box_geom, box.ibool, box.nglob)


class TestSourceTimeFunctions:
    def test_gaussian_integrates_to_one(self):
        stf = gaussian_stf(2.0)
        t = np.linspace(-20, 20, 4001)
        integral = np.trapezoid([stf(x) for x in t], t)
        assert integral == pytest.approx(1.0, abs=1e-6)

    def test_ricker_zero_mean(self):
        stf = ricker_stf(1.0)
        t = np.linspace(-10, 10, 4001)
        integral = np.trapezoid([stf(x) for x in t], t)
        assert integral == pytest.approx(0.0, abs=1e-6)

    def test_step_limits(self):
        stf = step_stf(1.0)
        assert stf(-10.0) == pytest.approx(0.0, abs=1e-12)
        assert stf(10.0) == pytest.approx(1.0, abs=1e-12)
        assert stf(0.0) == pytest.approx(0.5)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            gaussian_stf(0.0)
        with pytest.raises(ValueError):
            ricker_stf(-1.0)
        with pytest.raises(ValueError):
            step_stf(0.0)


class TestMomentTensorSource:
    def test_symmetry_required(self):
        m = np.zeros((3, 3))
        m[0, 1] = 1.0
        with pytest.raises(ValueError):
            MomentTensorSource((0, 0, 0), m, gaussian_stf(1.0))

    def test_scalar_moment(self):
        m = 1e20 * np.eye(3)
        src = MomentTensorSource((0, 0, 0), m, gaussian_stf(1.0))
        assert src.scalar_moment == pytest.approx(1e20 * np.sqrt(3 / 2))

    def test_source_array_zero_total_force(self, box):
        # A moment tensor exerts zero net force: the source array columns
        # sum to ~0 (it is M : grad(basis), and sum of basis gradients = 0).
        m = np.array([[1.0, 0.5, 0.0], [0.5, -1.0, 0.2], [0.0, 0.2, 0.3]])
        inv_jac = np.eye(3)
        arr = moment_tensor_source_array(m, box.xyz[0], inv_jac, 0.1, -0.3, 0.5)
        np.testing.assert_allclose(arr.sum(axis=(0, 1, 2)), 0.0, atol=1e-10)

    def test_point_force_array_partition(self):
        arr = point_force_source_array(np.array([1.0, 2.0, 3.0]), 5, 0.2, 0.1, -0.4)
        np.testing.assert_allclose(arr.sum(axis=(0, 1, 2)), [1.0, 2.0, 3.0],
                                   atol=1e-12)

    def test_explosion_source_array_isotropic_pattern(self, box):
        # For an explosion (M = I) with identity jacobian, the array equals
        # the gradient of the basis summed over d: direction-symmetric.
        arr = moment_tensor_source_array(
            np.eye(3), box.xyz[0], np.eye(3), 0.0, 0.0, 0.0
        )
        assert arr.shape == (5, 5, 5, 3)
        assert np.abs(arr).max() > 0


class TestIsoparametricInversion:
    def test_recovers_known_point(self, box):
        from repro.gll import gll_points_and_weights

        nodes, _ = gll_points_and_weights(5)
        target = box.xyz[3, 2, 1, 4]
        ref, err = _invert_isoparametric(box.xyz[3], target)
        assert err < 1e-10
        np.testing.assert_allclose(
            ref, [nodes[2], nodes[1], nodes[4]], atol=1e-9
        )

    def test_interior_point(self, box):
        # Centroid of element 0 (an axis-aligned brick): ref = (0,0,0).
        centre = box.xyz[0].reshape(-1, 3).mean(axis=0)
        ref, err = _invert_isoparametric(box.xyz[0], centre)
        assert err < 1e-9
        np.testing.assert_allclose(ref, 0.0, atol=1e-6)


class TestReceivers:
    def test_closest_point_mode(self, box):
        stations = [Station("A", (0.5, 0.5, 0.5)), Station("B", (1.9, 0.1, 1.0))]
        recs = locate_receivers(stations, box.xyz, box.ibool, mode="closest_point")
        assert all(r.mode == "closest_point" for r in recs)
        coords = np.empty((box.nglob, 3))
        coords[box.ibool.ravel()] = box.xyz.reshape(-1, 3)
        for rec in recs:
            d = np.linalg.norm(
                coords[rec.global_index] - np.asarray(rec.station.position)
            )
            assert d == pytest.approx(rec.location_error, abs=1e-12)
            assert d < 0.3  # grid spacing bound

    def test_interpolated_mode_exact(self, box):
        stations = [Station("X", (0.63, 1.21, 0.35))]
        recs = locate_receivers(stations, box.xyz, box.ibool, mode="interpolated")
        rec = recs[0]
        assert rec.mode == "interpolated"
        assert rec.location_error < 1e-9
        assert rec.weights.shape == (5, 5, 5)
        assert rec.weights.sum() == pytest.approx(1.0, abs=1e-10)

    def test_interpolation_cost_higher(self, box):
        s = [Station("X", (0.63, 1.21, 0.35))]
        interp = locate_receivers(s, box.xyz, box.ibool, mode="interpolated")[0]
        close = locate_receivers(s, box.xyz, box.ibool, mode="closest_point")[0]
        assert interp.interpolation_flops_per_step > 100 * close.interpolation_flops_per_step

    def test_invalid_mode(self, box):
        with pytest.raises(ValueError):
            locate_receivers([], box.xyz, box.ibool, mode="psychic")

    def test_recording_linear_field(self, box):
        # With u = x (linear), interpolated recording is exact; closest-point
        # recording has an O(grid spacing) error.
        stations = [Station("X", (0.63, 1.21, 0.35))]
        coords = np.empty((box.nglob, 3))
        coords[box.ibool.ravel()] = box.xyz.reshape(-1, 3)
        displ = coords.copy()
        interp = ReceiverSet(
            locate_receivers(stations, box.xyz, box.ibool, "interpolated"), 1, 0.1
        )
        interp.record(displ, box.ibool)
        np.testing.assert_allclose(
            interp.seismogram("X")[0], [0.63, 1.21, 0.35], atol=1e-9
        )
        close = ReceiverSet(
            locate_receivers(stations, box.xyz, box.ibool, "closest_point"), 1, 0.1
        )
        close.record(displ, box.ibool)
        err = np.linalg.norm(close.seismogram("X")[0] - [0.63, 1.21, 0.35])
        assert 0 < err < 0.3

    def test_buffer_overflow(self, box):
        rs = ReceiverSet(
            locate_receivers([Station("X", (1, 1, 1))], box.xyz, box.ibool), 1, 0.1
        )
        displ = np.zeros((box.nglob, 3))
        rs.record(displ, box.ibool)
        with pytest.raises(RuntimeError):
            rs.record(displ, box.ibool)

    def test_unknown_station(self, box):
        rs = ReceiverSet(
            locate_receivers([Station("X", (1, 1, 1))], box.xyz, box.ibool), 1, 0.1
        )
        with pytest.raises(KeyError):
            rs.seismogram("Y")


def relax_region(state, strain):
    """One step of the whole region with its six-component
    (6, nspec, 125) strain, ordered (xx, yy, zz, xy, xz, yz)."""
    scratch = np.empty((4, strain.size))
    return state.relax(strain, slice(0, strain.shape[1]), scratch)


class TestAttenuationState:
    def test_zero_strain_decays_memory(self):
        q = np.full((4, 5, 5, 5), 300.0)
        state = build_attenuation(q, dt=0.1, f_min=0.05, f_max=0.5)
        state.zeta[:] = 1.0
        relax_region(state, np.zeros((6, 4, 125)))
        assert np.all(state.zeta < 1.0)
        assert np.all(state.zeta > 0.0)

    def test_constant_strain_equilibrium(self):
        q = np.full((2, 5, 5, 5), 100.0)
        state = build_attenuation(q, dt=0.05, f_min=0.05, f_max=0.5)
        strain = np.zeros((6, 2, 125))
        strain[3] = 1e-6  # xy: pure deviatoric
        for _ in range(2000):
            relax_region(state, strain)
        # Equilibrium: zeta_j -> y_j * dev(strain).
        y_total = state.y.sum(axis=0)[..., None]  # (nspec, 1, 1, 1)
        z = state.zeta.sum(axis=0)[:, 3]
        np.testing.assert_allclose(
            z, np.broadcast_to(y_total * 1e-6, z.shape), rtol=1e-3
        )

    def test_volumetric_strain_ignored(self):
        q = np.full((1, 5, 5, 5), 100.0)
        state = build_attenuation(q, dt=0.05, f_min=0.05, f_max=0.5)
        strain = np.zeros((6, 1, 125))
        strain[:3] = 1e-6  # pure volumetric
        relax_region(state, strain)
        np.testing.assert_allclose(state.zeta, 0.0, atol=1e-20)

    def test_stress_correction_proportional_to_mu(self, box, box_geom):
        # relax() hands the kernel sum_j zeta_j; the kernel's Hooke step
        # subtracts 2 mu times it, so the anelastic force scales with mu.
        from repro.kernels.elastic import ElasticOperator
        from repro.kernels.weakform import Workspace

        shape = box.ibool.shape
        state = build_attenuation(np.full(shape, 100.0), dt=0.05, f_min=0.05, f_max=0.5)
        rng = np.random.default_rng(4)
        zeta0 = 1e-8 * rng.standard_normal(state.zeta.shape)
        forces = {}
        for mu in (1.0, 7.0):
            state.zeta[:] = zeta0
            operator = ElasticOperator(
                box_geom, np.ones(shape), np.full(shape, mu), GLLBasis(5)
            )
            totals = []

            def relax(strain, lo, hi, ws):
                totals.append(state.relax(strain, slice(lo, hi), ws.memory).copy())
                return totals[-1]

            forces[mu] = np.empty((*shape, 3))
            operator.apply(np.zeros((*shape, 3)), forces[mu], relax, Workspace(5))
            np.testing.assert_array_equal(
                np.concatenate(totals).reshape(state.zeta.shape[1:]),
                state.zeta.sum(axis=0),
            )
        assert np.max(np.abs(forces[1.0])) > 0.0
        np.testing.assert_allclose(forces[7.0], 7.0 * forces[1.0], rtol=1e-12)

    def test_distinct_q_values_binned(self):
        q = np.full((4, 5, 5, 5), 80.0)
        q[2:] = 600.0
        state = build_attenuation(q, dt=0.05, f_min=0.05, f_max=0.5)
        assert len(state.fits) == 2
        assert state.bin_of_element[0] != state.bin_of_element[3]

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            build_attenuation(np.zeros((5, 5, 5)), 0.1, 0.01, 0.1)


class TestBodyTerms:
    def test_coriolis_orthogonal_to_velocity(self, box, box_geom):
        rng = np.random.default_rng(2)
        v = rng.standard_normal((*box.ibool.shape, 3))
        rho = np.ones(box.ibool.shape)
        omega = np.array([0.0, 0.0, 1.0])
        f = coriolis_local_force(v, rho, box_geom, omega)
        dots = np.einsum("...c,...c->...", f, v)
        np.testing.assert_allclose(dots, 0.0, atol=1e-12)

    def test_coriolis_zero_for_zero_omega(self, box, box_geom):
        v = np.ones((*box.ibool.shape, 3))
        f = coriolis_local_force(v, np.ones(box.ibool.shape), box_geom, np.zeros(3))
        np.testing.assert_allclose(f, 0.0)

    def test_coriolis_bad_omega(self, box, box_geom):
        with pytest.raises(ValueError):
            coriolis_local_force(
                np.zeros((*box.ibool.shape, 3)),
                np.ones(box.ibool.shape),
                box_geom,
                np.zeros(2),
            )

    def test_gravity_zero_for_zero_displacement(self, box, box_geom):
        basis = GLLBasis(5)
        xyz_off = box.xyz + 5.0  # keep away from the origin
        f = gravity_local_force(
            np.zeros((*box.ibool.shape, 3)),
            xyz_off,
            np.ones(box.ibool.shape),
            np.full(box.ibool.shape, 9.8),
            box_geom,
            basis,
        )
        np.testing.assert_allclose(f, 0.0)

    def test_gravity_restoring_direction_for_uniform_radial_field(self, box, box_geom):
        # For u = rhat (unit radial), div(u) = 2/r and grad(u_r) = 0:
        # the force should point outward (rhat * div) -> positive radial.
        basis = GLLBasis(5)
        xyz_off = box.xyz + np.array([10.0, 0.0, 0.0])
        r = np.linalg.norm(xyz_off, axis=-1, keepdims=True)
        u = xyz_off / r
        f = gravity_local_force(
            u, xyz_off, np.ones(box.ibool.shape),
            np.full(box.ibool.shape, 1.0), box_geom, basis,
        )
        radial = np.einsum("...c,...c->...", f, xyz_off / r)
        assert np.mean(radial) > 0
