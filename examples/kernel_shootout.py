#!/usr/bin/env python
"""The Section-4.3 kernel experiment: scalar loops vs vectors vs tiny BLAS.

Times the three implementations of the dominant internal-force routine on
the same batch of elements:

* ``baseline``   — element-at-a-time NumPy (the scalar "regular Fortran"
  analog, paying per-element dispatch overhead);
* ``vectorized`` — whole-batch tensor contractions (the SSE/Altivec analog);
* ``blas``       — one tiny 5x5 ``np.dot`` per cutplane with alignment
  copies (the "call SGEMM for every small matrix" strategy the paper
  measured to be a net loss).

The solver runs only the ``vectorized`` contraction; the two losing
arms are defined here and injected by replacing one operator's
contraction (``StiffnessOperator._contract``).

Also reports the 125 -> 128 padding overhead (the paper's 2.4%).

Run:  python examples/kernel_shootout.py
"""

import time

import numpy as np

from repro.cartesian import build_box_mesh
from repro.gll import GLLBasis
from repro.kernels import (
    compute_geometry,
    elastic_kernel_flops,
    pad_elements,
    padding_overhead,
)
from repro.kernels.elastic import ElasticOperator
from repro.kernels.weakform import StiffnessOperator, Workspace

VECTOR = StiffnessOperator._contract


def per_element(axis, m, mt, src, dst, n):
    """The scalar analog: the batched contraction one element at a time."""
    for e in range(src.shape[-2]):
        VECTOR(axis, m, mt, src[..., e, :], dst[..., e, :], n)


def per_cutplane(axis, m, mt, src, dst, n):
    """The tiny-BLAS analog: one ``np.dot`` per copied cut-plane."""
    src = src.reshape(-1, n, n, n)
    dst = dst.reshape(-1, n, n, n)
    for block, out in zip(src, dst):
        for k in range(n):
            if axis == 0:
                out[:, :, k] = np.dot(m, np.ascontiguousarray(block[:, :, k]))
            elif axis == 1:
                out[:, :, k] = np.dot(m, np.ascontiguousarray(block[:, :, k].T)).T
            else:
                out[k] = np.dot(m, np.ascontiguousarray(block[k].T)).T


ARMS = {"vectorized": VECTOR, "baseline": per_element, "blas": per_cutplane}


def forces(variant, u, geom, lam, mu, basis):
    operator = ElasticOperator(geom, lam, mu, basis)
    operator._contract = ARMS[variant]
    out = np.empty_like(u)
    operator.apply(u, out, None, Workspace(basis.ngll))
    return out


def main() -> None:
    mesh = build_box_mesh((6, 6, 6))  # 216 elements
    geom = compute_geometry(mesh.xyz)
    basis = GLLBasis(5)
    rho, lam, mu = mesh.material_arrays()
    rng = np.random.default_rng(0)
    u = rng.standard_normal((mesh.nspec, 5, 5, 5, 3))

    timings = {}
    repeats = {"vectorized": 20, "baseline": 3, "blas": 1}
    reference = None
    for variant, n in repeats.items():
        forces(variant, u, geom, lam, mu, basis)  # warm
        t0 = time.perf_counter()
        for _ in range(n):
            out = forces(variant, u, geom, lam, mu, basis)
        timings[variant] = (time.perf_counter() - t0) / n
        if reference is None:
            reference = out
        else:
            assert np.allclose(out, reference, atol=1e-10), variant

    flops = elastic_kernel_flops(mesh.nspec)
    print(f"{mesh.nspec} elements, {flops / 1e6:.1f} Mflops per evaluation\n")
    print(f"{'variant':>12} {'ms/call':>10} {'Gflop/s':>9} {'vs baseline':>12}")
    base = timings["baseline"]
    for variant, t in sorted(timings.items(), key=lambda kv: kv[1]):
        print(f"{variant:>12} {1e3 * t:>10.2f} {flops / t / 1e9:>9.2f} "
              f"{base / t:>11.2f}x")

    print("\npaper: manual SSE/Altivec gains 15-20% over compiler loops;")
    print("per-matrix BLAS calls are slower than plain loops. The Python")
    print("analog shows the same ordering with larger gaps (interpreter")
    print("dispatch costs far more than scalar Fortran).")

    padded = pad_elements(u)
    print(f"\npadded layout: {u.nbytes / 1e6:.1f} MB -> "
          f"{padded.nbytes / 1e6:.1f} MB "
          f"(+{100 * padding_overhead():.1f}%, paper: +2.4%)")


if __name__ == "__main__":
    main()
