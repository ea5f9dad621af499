#!/usr/bin/env python
"""Adjoint sensitivity kernels — the inverse-problem capability.

The paper (Section 1) lists "the capacity to compute sensitivity kernels
for inverse problems" among SPECFEM3D's algorithmic advances.  This
example builds a banana-doughnut-style shear kernel on a Cartesian box
run by the globe's solver: forward run from a source, adjoint run from the
receiver's waveform residual, interaction integrals in between — and
verifies the kernel against a finite difference of the actual misfit.

Run:  python examples/sensitivity_kernel.py
"""

import numpy as np

from repro.adjoint import (
    compute_kernels,
    misfit_and_adjoint_source,
    run_adjoint,
    run_forward_with_recording,
)
from repro.cartesian import build_box_mesh
from repro.gll import GLLBasis
from repro.kernels import compute_geometry


def main() -> None:
    mesh = build_box_mesh((4, 4, 4), periodic=True, rho=1.0,
                          vp=np.sqrt(3.0), vs=1.0)
    coords = np.empty((mesh.nglob, 3))
    coords[mesh.ibool.ravel()] = mesh.xyz.reshape(-1, 3)
    src = int(np.argmin(np.linalg.norm(coords - 0.2, axis=1)))
    rec = int(np.argmin(np.linalg.norm(coords - 0.8, axis=1)))
    print(f"mesh: {mesh.nspec} elements; source at {coords[src].round(2)}, "
          f"receiver at {coords[rec].round(2)}")

    def stf(t):
        t0, f0 = 0.08, 10.0
        a = (np.pi * f0) ** 2
        return (1 - 2 * a * (t - t0) ** 2) * np.exp(-a * (t - t0) ** 2)

    n_steps = 200
    forward = run_forward_with_recording(
        mesh, n_steps, rec, source_index=src, source_time_function=stf,
    )

    # 'Observed data': the same experiment in a model with a +2% mu blob
    # midway between source and receiver.
    centre = 0.5 * (coords[src] + coords[rec])
    d_mu = 0.02 * np.exp(
        -(np.linalg.norm(mesh.xyz - centre, axis=-1) / 0.15) ** 2
    )
    data = run_forward_with_recording(
        mesh, n_steps, rec, source_index=src, source_time_function=stf,
        d_mu=d_mu,
    ).receiver_trace

    chi, residual = misfit_and_adjoint_source(
        forward.receiver_trace, data, forward.dt
    )
    print(f"waveform misfit chi = {chi:.3e}")

    u_adj = run_adjoint(mesh, residual, rec, forward.dt)
    geom = compute_geometry(mesh.xyz)
    kernels = compute_kernels(mesh, geom, GLLBasis(5), forward, u_adj)

    # Where does the kernel live? Report |K_mu| integrated per element and
    # its centroid distance to the source-receiver ray.
    k = np.abs(kernels.k_mu * geom.jweight).sum(axis=(1, 2, 3))
    centroids = mesh.xyz.mean(axis=(1, 2, 3))
    top = np.argsort(k)[-5:][::-1]
    print("\nstrongest |K_mu| elements (kernel concentrates on the path):")
    for e in top:
        print(f"  element {e}: centroid {centroids[e].round(2)}, "
              f"|K| = {k[e]:.3e}")

    predicted = kernels.predicted_misfit_change(geom, d_mu=d_mu)
    # Finite difference: chi(mu + eps*d_mu) vs chi(mu).
    eps = 0.2
    trace_fd = run_forward_with_recording(
        mesh, n_steps, rec, source_index=src, source_time_function=stf,
        d_mu=eps * d_mu,
    ).receiver_trace
    chi_fd, _ = misfit_and_adjoint_source(trace_fd, data, forward.dt)
    fd = (chi_fd - chi) / eps
    print(f"\ngradient check: kernel prediction {predicted:.3e} "
          f"vs finite difference {fd:.3e} "
          f"({100 * abs(predicted - fd) / abs(fd):.1f}% apart)")


if __name__ == "__main__":
    main()
