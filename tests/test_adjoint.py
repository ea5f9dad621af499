"""Tests for the adjoint sensitivity kernels — including the rigorous
finite-difference gradient check."""

import numpy as np
import pytest

from repro.adjoint import (
    compute_kernels,
    misfit_and_adjoint_source,
    run_adjoint,
    run_forward_with_recording,
)
from repro.cartesian import build_box_mesh
from repro.kernels import compute_geometry
from repro.gll import GLLBasis


def setup_problem(mu_perturbation: np.ndarray | None = None, n_steps=160):
    """A small periodic box: source at one point, receiver at another.

    Returns (mesh, forward_record). ``mu_perturbation`` perturbs the shear
    modulus field (for FD checks and 'data' generation).
    """
    mesh = build_box_mesh(
        (3, 3, 3), lengths=(1.0, 1.0, 1.0), periodic=True,
        rho=1.0, vp=np.sqrt(3.0), vs=1.0,
    )
    coords = np.empty((mesh.nglob, 3))
    coords[mesh.ibool.ravel()] = mesh.xyz.reshape(-1, 3)
    source_index = int(np.argmin(np.linalg.norm(coords - 0.25, axis=1)))
    receiver_index = int(
        np.argmin(np.linalg.norm(coords - np.array([0.75, 0.75, 0.6]), axis=1))
    )

    def stf(t):
        t0, f0 = 0.08, 12.0
        a = (np.pi * f0) ** 2
        return (1.0 - 2.0 * a * (t - t0) ** 2) * np.exp(-a * (t - t0) ** 2)

    record = run_forward_with_recording(
        mesh, n_steps, receiver_index,
        source_index=source_index,
        source_time_function=stf,
        source_direction=np.array([0.0, 0.0, 1.0]),
        courant=0.3,
        d_mu=mu_perturbation,
    )
    return mesh, record


@pytest.fixture(scope="module")
def baseline():
    return setup_problem()


class TestForwardRecording:
    def test_shapes(self, baseline):
        mesh, record = baseline
        assert record.displ.shape == (record.n_steps, mesh.nglob, 3)
        assert record.receiver_trace.shape == (record.n_steps, 3)
        assert np.abs(record.receiver_trace).max() > 0

    def test_trace_matches_stored_field(self, baseline):
        _, record = baseline
        np.testing.assert_array_equal(
            record.receiver_trace, record.displ[:, record.receiver_index]
        )


class TestMisfit:
    def test_zero_for_identical(self, baseline):
        _, record = baseline
        chi, adj = misfit_and_adjoint_source(
            record.receiver_trace, record.receiver_trace, record.dt
        )
        assert chi == 0.0
        np.testing.assert_array_equal(adj, 0.0)

    def test_positive_for_different(self, baseline):
        _, record = baseline
        data = np.zeros_like(record.receiver_trace)
        chi, adj = misfit_and_adjoint_source(
            record.receiver_trace, data, record.dt
        )
        assert chi > 0
        np.testing.assert_array_equal(adj, record.receiver_trace)

    def test_shape_mismatch(self, baseline):
        _, record = baseline
        with pytest.raises(ValueError):
            misfit_and_adjoint_source(
                record.receiver_trace, record.receiver_trace[:-1], record.dt
            )


class TestKernels:
    @pytest.fixture(scope="class")
    def kernels_and_parts(self):
        # "Data" from a perturbed-mu model; misfit/kernels in the baseline.
        mesh, record = setup_problem()
        # Perturbation: a smooth blob of d_mu between source and receiver.
        coords = np.empty((mesh.nglob, 3))
        coords[mesh.ibool.ravel()] = mesh.xyz.reshape(-1, 3)
        centre = np.array([0.5, 0.5, 0.45])
        d_mu_shape = None

        def blob(xyz_local):
            d = np.linalg.norm(xyz_local - centre, axis=-1)
            return np.exp(-((d / 0.15) ** 2))

        d_mu_field = 0.02 * blob(mesh.xyz)  # (nspec, n, n, n)
        _, record2 = setup_problem(mu_perturbation=d_mu_field)
        data = record2.receiver_trace
        chi0, residual = misfit_and_adjoint_source(
            record.receiver_trace, data, record.dt
        )
        u_adj = run_adjoint(mesh, residual, record.receiver_index, record.dt)
        geom = compute_geometry(mesh.xyz)
        basis = GLLBasis(5)
        kernels = compute_kernels(mesh, geom, basis, record, u_adj)
        return mesh, geom, kernels, d_mu_field, chi0, data

    def test_kernels_finite_and_nonzero(self, kernels_and_parts):
        _, _, kernels, _, _, _ = kernels_and_parts
        for k in (kernels.k_rho, kernels.k_lambda, kernels.k_mu):
            assert np.all(np.isfinite(k))
        assert np.abs(kernels.k_mu).max() > 0

    def test_finite_difference_gradient_check(self, kernels_and_parts):
        """The decisive test: the kernel-predicted misfit change matches a
        finite difference of the actual misfit under a mu perturbation."""
        mesh, geom, kernels, d_mu_field, chi0, data = kernels_and_parts
        # chi at mu + eps * d_mu for a small eps (FD of dchi/deps at 0).
        eps = 0.2
        _, record_pert = setup_problem(mu_perturbation=eps * d_mu_field)
        chi_eps, _ = misfit_and_adjoint_source(
            record_pert.receiver_trace, data, record_pert.dt
        )
        fd = (chi_eps - chi0) / eps
        predicted = kernels.predicted_misfit_change(geom, d_mu=d_mu_field)
        assert predicted == pytest.approx(fd, rel=0.15), (
            f"kernel prediction {predicted:.3e} vs finite difference {fd:.3e}"
        )

    def test_length_mismatch_rejected(self, baseline):
        mesh, record = baseline
        geom = compute_geometry(mesh.xyz)
        basis = GLLBasis(5)
        with pytest.raises(ValueError):
            compute_kernels(
                mesh, geom, basis, record,
                np.zeros((record.n_steps - 1, mesh.nglob, 3)),
            )
