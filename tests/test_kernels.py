"""Tests for the compute kernels: geometry, elastic/acoustic forces, padding."""

import numpy as np
import pytest

from repro.gll import GLLBasis, gll_points_and_weights
from repro.kernels import (
    ElementGeometry,
    acoustic_kernel_flops,
    compute_forces_acoustic,
    compute_forces_elastic,
    compute_geometry,
    displacement_gradient,
    elastic_kernel_flops,
    pad_elements,
    padding_overhead,
    timestep_flops,
    unpad_elements,
)
from repro.kernels.elastic import ElasticOperator
from repro.kernels.reference import (
    forces_acoustic_reference,
    forces_elastic_reference,
)
from repro.kernels.weakform import BLOCK, Workspace
from repro.mesh import build_global_numbering
from repro.solver import build_attenuation


def brick(nx, ny, nz, ngll=5, lx=1.0, ly=1.0, lz=1.0, distort=0.0, seed=0):
    """Brick of elements on [0,lx]x[0,ly]x[0,lz], optionally distorted."""
    nodes, _ = gll_points_and_weights(ngll)
    t = 0.5 * (nodes + 1.0)
    elems = []
    for kz in range(nz):
        for ky in range(ny):
            for kx in range(nx):
                X = (kx + t[:, None, None]) * lx / nx
                Y = (ky + t[None, :, None]) * ly / ny
                Z = (kz + t[None, None, :]) * lz / nz
                X, Y, Z = np.broadcast_arrays(X, Y, Z)
                elems.append(np.stack([X, Y, Z], axis=-1))
    xyz = np.asarray(elems)
    if distort:
        # Smooth coordinate map keeps conformity and positive Jacobians.
        x, y, z = xyz[..., 0], xyz[..., 1], xyz[..., 2]
        xyz = np.stack(
            [
                x + distort * np.sin(np.pi * y / ly) * np.sin(np.pi * z / lz),
                y + distort * np.sin(np.pi * z / lz) * np.sin(np.pi * x / lx),
                z + distort * np.sin(np.pi * x / lx) * np.sin(np.pi * y / ly),
            ],
            axis=-1,
        )
    return xyz


class TestGeometry:
    def test_unit_cube_jacobian(self):
        xyz = brick(1, 1, 1, lx=2.0, ly=2.0, lz=2.0)  # [0,2]^3: identity-ish map
        geom = compute_geometry(xyz)
        np.testing.assert_allclose(geom.jacobian, 1.0, atol=1e-12)
        np.testing.assert_allclose(
            geom.inv_jacobian, np.broadcast_to(np.eye(3), geom.inv_jacobian.shape),
            atol=1e-12,
        )

    def test_anisotropic_scaling(self):
        xyz = brick(1, 1, 1, lx=4.0, ly=2.0, lz=6.0)
        geom = compute_geometry(xyz)
        # dx/dxi = 2, dy/deta = 1, dz/dgamma = 3 -> det = 6.
        np.testing.assert_allclose(geom.jacobian, 6.0, atol=1e-12)
        np.testing.assert_allclose(geom.inv_jacobian[..., 0, 0], 0.5, atol=1e-12)
        np.testing.assert_allclose(geom.inv_jacobian[..., 2, 2], 1 / 3, atol=1e-12)

    def test_volume_integral(self):
        xyz = brick(2, 3, 2, lx=1.5, ly=2.0, lz=0.7, distort=0.04)
        geom = compute_geometry(xyz)
        assert geom.jweight.sum() == pytest.approx(1.5 * 2.0 * 0.7, rel=1e-10)

    def test_inverted_element_rejected(self):
        xyz = brick(1, 1, 1)
        xyz = xyz[:, ::-1]  # flip xi axis: negative Jacobian
        with pytest.raises(ValueError):
            compute_geometry(xyz)

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            compute_geometry(np.zeros((5, 5, 5, 3)))

    def test_closed_form_inverse_matches_linalg(self, distorted_setup):
        xyz, geom, basis, *_ = distorted_setup
        h = basis.hprime
        jac = np.stack(  # [..., l, c] = d x_c / d xi_l
            [
                np.einsum("il,eljkc->eijkc", h, xyz),
                np.einsum("jl,eilkc->eijkc", h, xyz),
                np.einsum("kl,eijlc->eijkc", h, xyz),
            ],
            axis=-2,
        )
        np.testing.assert_allclose(
            geom.inv_jacobian, np.swapaxes(np.linalg.inv(jac), -1, -2),
            rtol=1e-12, atol=1e-12,
        )
        np.testing.assert_allclose(geom.jacobian, np.linalg.det(jac), rtol=1e-12)
        assert geom.inv_jacobian.base is not None  # a view, not a second copy


@pytest.fixture(scope="module")
def distorted_setup():
    xyz = brick(2, 2, 1, distort=0.05, lx=1.3, ly=0.9, lz=1.1)
    geom = compute_geometry(xyz)
    basis = GLLBasis(5)
    rng = np.random.default_rng(42)
    nspec = xyz.shape[0]
    lam = 1.0 + rng.random((nspec, 5, 5, 5))
    mu = 0.5 + rng.random((nspec, 5, 5, 5))
    u = rng.standard_normal((nspec, 5, 5, 5, 3))
    return xyz, geom, basis, lam, mu, u


class TestElasticKernelVariants:
    def test_vectorized_matches_reference(self, distorted_setup):
        _, geom, basis, lam, mu, u = distorted_setup
        ref = forces_elastic_reference(u, geom, lam, mu, basis)
        out = compute_forces_elastic(u, geom, lam, mu, basis)
        np.testing.assert_allclose(out, ref, rtol=1e-10, atol=1e-12)

    def test_unknown_variant(self, distorted_setup):
        # No run option selects a contraction: the losing arms live in
        # the A-SSE bench, and naming one here is an error, not a silent
        # vectorized run.
        _, geom, basis, lam, mu, u = distorted_setup
        with pytest.raises(TypeError):
            compute_forces_elastic(u, geom, lam, mu, basis, variant="baseline")

    def test_stress_correction_linearity(self, distorted_setup):
        # The memory hook enters linearly: K(u, zeta) = K(u, 0) + K(0, zeta).
        _, geom, basis, lam, mu, u = distorted_setup
        rng = np.random.default_rng(3)
        memory = rng.standard_normal((u.shape[0], 6, 125))
        operator = ElasticOperator(geom, lam, mu, basis)

        def forces(field, relax=None):
            out = np.empty_like(field)
            operator.apply(field, out, relax, Workspace(5))
            return out

        def relax(strain, lo, hi, ws):
            return memory[lo:hi]

        with_corr = forces(u, relax)
        without = forces(u)
        zero_u = forces(np.zeros_like(u), relax)
        np.testing.assert_allclose(with_corr, without + zero_u, atol=1e-10)


# Memory-tensor entry [c, d] -> six-component index (xx, yy, zz, xy, xz, yz).
SIX = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])


def compute_strain(u, geom, basis):
    """Symmetric strain tensor at every GLL point: (nspec, n, n, n, 3, 3)."""
    grad = displacement_gradient(u, geom, basis)
    return 0.5 * (grad + np.swapaxes(grad, -1, -2))


def stress_from_strain(strain, lam, mu):
    """Isotropic Hooke's law: sigma = lambda tr(eps) I + 2 mu eps."""
    trace = np.trace(strain, axis1=-2, axis2=-1)
    sigma = 2.0 * mu[..., None, None] * strain
    idx = np.arange(3)
    sigma[..., idx, idx] += (lam * trace)[..., None]
    return sigma


def oracle_anelastic_forces(u, geom, lam, mu, basis, state):
    """The pre-fusion formulation, kept as the oracle: relax nine-component
    memory tensors with the strain, then ``sigma = lam tr(eps) I + 2 mu (eps
    - sum_j zeta_j)`` pushed through einsum flux and ``hprime_wgll``.
    Returns (forces, relaxed six-component memory shaped like state.zeta)."""
    strain = compute_strain(u, geom, basis)
    dev = strain.copy()
    idx = np.arange(3)
    dev[..., idx, idx] -= (np.trace(strain, axis1=-2, axis2=-1) / 3.0)[..., None]
    zeta = np.moveaxis(state.zeta, 2, -1)[..., SIX]  # (n_sls, nspec, n, n, n, 3, 3)
    coeff = (..., None, None, None)
    zeta = state.alpha[coeff] * zeta + ((1.0 - state.alpha) * state.y)[coeff] * dev
    sigma = stress_from_strain(strain, lam, mu)
    sigma -= 2.0 * mu[..., None, None] * zeta.sum(axis=0)
    flux = np.einsum("eijkcd,eijkld->eijklc", sigma, geom.inv_jacobian)
    flux *= geom.jacobian[..., None, None]
    hw, w = basis.hprime_wgll, basis.weights
    t1 = np.einsum("li,eljkc->eijkc", hw, flux[..., 0, :])
    t1 *= w[None, None, :, None, None] * w[None, None, None, :, None]
    t2 = np.einsum("lj,eilkc->eijkc", hw, flux[..., 1, :])
    t2 *= w[None, :, None, None, None] * w[None, None, None, :, None]
    t3 = np.einsum("lk,eijlc->eijkc", hw, flux[..., 2, :])
    t3 *= w[None, :, None, None, None] * w[None, None, :, None, None]
    six = np.stack(
        [zeta[..., c, d] for c, d in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))],
        axis=2,
    )
    return -(t1 + t2 + t3), six


def relative_error(out, ref):
    return np.max(np.abs(out - ref)) / np.max(np.abs(ref))


@pytest.fixture(scope="module")
def big_setup():
    """More than one block of distorted elements, with distinct Q values."""
    xyz = brick(5, 5, 4, distort=0.03)
    assert xyz.shape[0] > BLOCK + 3
    rng = np.random.default_rng(7)
    shape = xyz.shape[:-1]
    q_mu = np.where(np.arange(shape[0]) % 3 == 0, 80.0, 300.0)[:, None, None, None]
    return {
        "geom": compute_geometry(xyz),
        "basis": GLLBasis(5),
        "lam": 1.0 + rng.random(shape),
        "mu": 0.5 + rng.random(shape),
        "u": rng.standard_normal((*shape, 3)),
        "q_mu": np.broadcast_to(q_mu, shape),
        "zeta0": 1e-2 * rng.standard_normal((3, shape[0], 6, 5, 5, 5)),
    }


def run_operator(setup, idx=slice(None), memory=True):
    """Forces (and relaxed memory) of region elements ``idx`` — the solver's
    recipe: subset geometry and materials, region-wide attenuation state."""
    operator = ElasticOperator(
        setup["geom"].subset(idx), setup["lam"][idx], setup["mu"][idx],
        setup["basis"],
    )
    state = build_attenuation(setup["q_mu"], dt=0.05, f_min=0.05, f_max=0.5)
    state.zeta[:] = setup["zeta0"]
    relax = None
    if memory:

        def relax(strain, lo, hi, ws):
            start = idx.start or 0
            return state.relax(strain, slice(start + lo, start + hi), ws.memory)

    u = np.ascontiguousarray(setup["u"][idx])
    out = np.empty_like(u)
    operator.apply(u, out, relax, Workspace(5))
    return out, state.zeta[:, idx], state


class TestFusedKernel:
    def test_elastic_matches_reference_to_roundoff(self, distorted_setup):
        _, geom, basis, lam, mu, u = distorted_setup
        ref = forces_elastic_reference(u, geom, lam, mu, basis)
        out = compute_forces_elastic(u, geom, lam, mu, basis)
        assert relative_error(out, ref) < 1e-12

    def test_anelastic_matches_prefusion_oracle(self, big_setup):
        state = build_attenuation(big_setup["q_mu"], dt=0.05, f_min=0.05, f_max=0.5)
        state.zeta[:] = big_setup["zeta0"]
        ref, ref_zeta = oracle_anelastic_forces(
            big_setup["u"], big_setup["geom"], big_setup["lam"], big_setup["mu"],
            big_setup["basis"], state,
        )
        out, zeta, _ = run_operator(big_setup)
        assert relative_error(out, ref) < 1e-12
        assert relative_error(zeta, ref_zeta) < 1e-12
        elastic, _, _ = run_operator(big_setup, memory=False)
        assert relative_error(elastic, ref) > 1e-6  # the memory term is not noise

    @pytest.mark.parametrize("size", [1, BLOCK - 1, BLOCK, BLOCK + 1, 67])
    def test_subset_rows_bitwise_equal_full_region(self, big_setup, size):
        # A contiguous window (every solver subset is one) at a random
        # start that is not a multiple of the kernel block.
        full, full_zeta, _ = run_operator(big_setup)
        nspec = full.shape[0]
        rng = np.random.default_rng(size)
        starts = [s for s in range(1, nspec - size + 1) if s % BLOCK]
        start = int(rng.choice(starts))
        idx = slice(start, start + size)
        out, zeta, state = run_operator(big_setup, idx)
        np.testing.assert_array_equal(out, full[idx])
        np.testing.assert_array_equal(zeta, full_zeta[:, idx])
        untouched = np.setdiff1d(np.arange(nspec), np.arange(nspec)[idx])
        np.testing.assert_array_equal(
            state.zeta[:, untouched], big_setup["zeta0"][:, untouched]
        )

    def test_single_element_call_bitwise_equal_inside_block(self, big_setup):
        full, full_zeta, _ = run_operator(big_setup)
        for e in (0, BLOCK // 2, full.shape[0] - 1):
            out, zeta, _ = run_operator(big_setup, slice(e, e + 1))
            np.testing.assert_array_equal(out[0], full[e])
            np.testing.assert_array_equal(zeta[:, 0], full_zeta[:, e])

    def test_strided_or_misshapen_out_rejected(self, distorted_setup):
        # reshape of a non-contiguous ``out`` would copy: nothing written back.
        _, geom, basis, lam, mu, u = distorted_setup
        operator = ElasticOperator(geom, lam, mu, basis)
        strided = np.empty((*u.shape[:-1], 6))[..., ::2]
        assert strided.shape == u.shape
        with pytest.raises(ValueError, match="C-contiguous"):
            operator.apply(u, strided, None, Workspace(5))
        with pytest.raises(ValueError, match="shaped like field"):
            operator.apply(u, np.empty(u.size), None, Workspace(5))

    def test_event_stack_is_a_loop_over_events(self, distorted_setup):
        _, geom, basis, lam, mu, u = distorted_setup
        stack = np.stack([u, 2.0 * u, -u])
        out = compute_forces_elastic(stack, geom, lam, mu, basis)
        for b in range(3):
            np.testing.assert_array_equal(
                out[b], compute_forces_elastic(stack[b], geom, lam, mu, basis)
            )


class TestElasticPhysics:
    def test_rigid_translation_gives_zero_force(self, distorted_setup):
        _, geom, basis, lam, mu, _ = distorted_setup
        nspec = geom.nspec
        u = np.tile(np.array([1.0, -2.0, 0.5]), (nspec, 5, 5, 5, 1))
        out = compute_forces_elastic(u, geom, lam, mu, basis)
        np.testing.assert_allclose(out, 0.0, atol=1e-10)

    def test_rigid_rotation_gives_zero_force(self, distorted_setup):
        xyz, geom, basis, lam, mu, _ = distorted_setup
        # Infinitesimal rigid rotation u = omega x r: zero strain.
        omega = np.array([0.3, -0.2, 0.7])
        u = np.cross(np.broadcast_to(omega, xyz.shape), xyz)
        out = compute_forces_elastic(u, geom, lam, mu, basis)
        np.testing.assert_allclose(out, 0.0, atol=1e-9)

    def test_stiffness_symmetry(self, distorted_setup):
        # v^T K u == u^T K v after assembly (K symmetric).
        xyz, geom, basis, lam, mu, _ = distorted_setup
        ibool, nglob = build_global_numbering(xyz)
        rng = np.random.default_rng(11)
        ug = rng.standard_normal((nglob, 3))
        vg = rng.standard_normal((nglob, 3))
        ku_local = compute_forces_elastic(ug[ibool], geom, lam, mu, basis)
        kv_local = compute_forces_elastic(vg[ibool], geom, lam, mu, basis)
        vku = np.sum(vg[ibool] * ku_local)
        ukv = np.sum(ug[ibool] * kv_local)
        assert vku == pytest.approx(ukv, rel=1e-10)

    def test_stiffness_negative_semidefinite(self, distorted_setup):
        # The returned value is -K u, so u . (-K u) <= 0 energy-wise.
        xyz, geom, basis, lam, mu, u = distorted_setup
        out = compute_forces_elastic(u, geom, lam, mu, basis)
        assert np.sum(u * out) < 0.0

    def test_strain_of_linear_field_is_exact(self, distorted_setup):
        xyz, geom, basis, _, _, _ = distorted_setup
        A = np.array([[0.1, 0.2, 0.0], [0.0, -0.3, 0.1], [0.2, 0.0, 0.4]])
        u = xyz @ A.T  # u_c = A[c,d] x_d
        strain = compute_strain(u, geom, basis)
        expected = 0.5 * (A + A.T)
        np.testing.assert_allclose(
            strain, np.broadcast_to(expected, strain.shape), atol=1e-9
        )

    def test_stress_from_strain_isotropic(self):
        eps = np.zeros((1, 1, 1, 1, 3, 3))
        eps[..., 0, 0] = 1.0
        lam = np.full((1, 1, 1, 1), 2.0)
        mu = np.full((1, 1, 1, 1), 3.0)
        sig = stress_from_strain(eps, lam, mu)
        assert sig[0, 0, 0, 0, 0, 0] == pytest.approx(2.0 + 6.0)
        assert sig[0, 0, 0, 0, 1, 1] == pytest.approx(2.0)
        assert sig[0, 0, 0, 0, 0, 1] == pytest.approx(0.0)


class TestAcousticKernel:
    def test_matches_reference(self):
        xyz = brick(2, 1, 2, distort=0.05)
        geom = compute_geometry(xyz)
        basis = GLLBasis(5)
        rng = np.random.default_rng(5)
        chi = rng.standard_normal(xyz.shape[:-1])
        rho_inv = 0.5 + rng.random(xyz.shape[:-1])
        ref = forces_acoustic_reference(chi, geom, rho_inv, basis)
        out = compute_forces_acoustic(chi, geom, rho_inv, basis)
        np.testing.assert_allclose(out, ref, rtol=1e-10, atol=1e-12)

    def test_constant_potential_zero_force(self):
        xyz = brick(2, 2, 1, distort=0.03)
        geom = compute_geometry(xyz)
        basis = GLLBasis(5)
        chi = np.full(xyz.shape[:-1], 7.0)
        rho_inv = np.ones_like(chi)
        out = compute_forces_acoustic(chi, geom, rho_inv, basis)
        np.testing.assert_allclose(out, 0.0, atol=1e-11)

    def test_operator_symmetry(self):
        xyz = brick(2, 2, 1, distort=0.04)
        ibool, nglob = build_global_numbering(xyz)
        geom = compute_geometry(xyz)
        basis = GLLBasis(5)
        rng = np.random.default_rng(9)
        rho_inv = 0.5 + rng.random(xyz.shape[:-1])
        a = rng.standard_normal(nglob)
        b = rng.standard_normal(nglob)
        ka = compute_forces_acoustic(a[ibool], geom, rho_inv, basis)
        kb = compute_forces_acoustic(b[ibool], geom, rho_inv, basis)
        assert np.sum(b[ibool] * ka) == pytest.approx(
            np.sum(a[ibool] * kb), rel=1e-10
        )


class TestPadding:
    def test_roundtrip_scalar(self):
        rng = np.random.default_rng(0)
        a = rng.random((3, 5, 5, 5))
        np.testing.assert_array_equal(unpad_elements(pad_elements(a)), a)

    def test_roundtrip_vector(self):
        rng = np.random.default_rng(1)
        a = rng.random((2, 5, 5, 5, 3))
        padded = pad_elements(a)
        assert padded.shape == (2, 128, 3)
        np.testing.assert_array_equal(unpad_elements(padded), a)

    def test_pad_values_zero(self):
        a = np.ones((1, 5, 5, 5))
        padded = pad_elements(a)
        np.testing.assert_array_equal(padded[:, 125:], 0.0)

    def test_overhead_is_paper_value(self):
        assert padding_overhead() == pytest.approx(0.024)

    def test_invalid(self):
        with pytest.raises(ValueError):
            pad_elements(np.zeros((1, 6, 6, 6)), padded_size=100)
        with pytest.raises(ValueError):
            unpad_elements(np.zeros((1, 100)), ngll=5)


class TestFlops:
    def test_linear_in_nspec(self):
        assert elastic_kernel_flops(10) == 10 * elastic_kernel_flops(1)
        assert acoustic_kernel_flops(7) == 7 * acoustic_kernel_flops(1)

    def test_elastic_order_of_magnitude(self):
        # ~30-60 kflops per 125-point element for the full elastic kernel.
        per_elem = elastic_kernel_flops(1)
        assert 2e4 < per_elem < 2e5

    def test_elastic_more_expensive_than_acoustic(self):
        assert elastic_kernel_flops(1) > 2 * acoustic_kernel_flops(1)

    def test_attenuation_increases_flops_modestly(self):
        base = timestep_flops(100, 20, 5000, 1000, attenuation=False)
        atten = timestep_flops(100, 20, 5000, 1000, attenuation=True)
        assert atten > base
        # The paper: big runtime increase but only an "almost imperceptible"
        # flops-rate drop -> the added work is flops-dense, well under 2x.
        assert atten < 2.0 * base
