"""A-SSE — Kernel implementation shootout (paper Section 4.3).

Paper: manual SSE/Altivec vector code gains 15-20% over the compiler's
scalar loops; calling BLAS SGEMM per 5x5 matrix "actually significantly
slows down the code" (call overhead + cutplane copies); the 125 -> 128
padding costs 2.4% memory.

Python analog: batched matmul (vector analog, the one contraction the
solver runs) vs per-element NumPy (scalar analog) vs per-cutplane np.dot
(tiny-BLAS analog).  The ordering vector > scalar > tiny-BLAS is the
reproduced result; the magnitudes are larger because interpreter dispatch
dwarfs scalar-Fortran overhead.

The two losing arms live here and nowhere else: no run option selects
them.  Each is injected by replacing the operator's contraction
(``StiffnessOperator._contract``), on one operator or, for whole runs,
on the class; the equivalence tests below show every arm computes the
same forces, relaxed memory, trajectories and seismograms to roundoff.
"""

import time

import numpy as np
import pytest

from repro.cartesian import build_box_mesh, plane_s_wave
from repro.config import constants
from repro.config.parameters import SimulationParameters
from repro.gll import GLLBasis
from repro.kernels import (
    compute_geometry,
    elastic_kernel_flops,
    pad_elements,
    padding_overhead,
)
from repro.kernels.elastic import ElasticOperator
from repro.kernels.reference import forces_elastic_reference
from repro.kernels.weakform import StiffnessOperator, Workspace
from repro.mesh import build_global_mesh
from repro.model.prem import RegionCode
from repro.solver import (
    GlobalSolver,
    MomentTensorSource,
    Station,
    build_attenuation,
    gaussian_stf,
)

#: The solver's contraction: one batched matmul per element block.
VECTOR = StiffnessOperator._contract


def _contract_per_element(axis, m, mt, src, dst, n):
    """A Python loop over elements — the scalar-loop analog, paying
    interpreter dispatch per element."""
    for e in range(src.shape[-2]):
        VECTOR(axis, m, mt, src[..., e, :], dst[..., e, :], n)


def _contract_per_cutplane(axis, m, mt, src, dst, n):
    """One ``np.dot`` per explicitly copied (aligned) cut-plane — the
    paper's "call BLAS for each small matrix", copies and all."""
    src = src.reshape(-1, n, n, n)
    dst = dst.reshape(-1, n, n, n)
    for block, out in zip(src, dst):
        for k in range(n):
            if axis == 0:  # contiguous cut-plane at fixed k
                out[:, :, k] = np.dot(m, np.ascontiguousarray(block[:, :, k]))
            elif axis == 1:  # needs a transpose copy first
                out[:, :, k] = np.dot(m, np.ascontiguousarray(block[:, :, k].T)).T
            else:  # cut along the slowest axis, copy then dot
                out[k] = np.dot(m, np.ascontiguousarray(block[k].T)).T


ARMS = {
    "vectorized": VECTOR,
    "baseline": _contract_per_element,
    "blas": _contract_per_cutplane,
}
LOSING = ("baseline", "blas")


def arm_forces(arm, u, geom, lam, mu, basis, relax=None):
    """``-K u`` with the operator's contraction replaced by ``arm``."""
    operator = ElasticOperator(geom, lam, mu, basis)
    operator._contract = ARMS[arm]
    out = np.empty_like(u)
    operator.apply(u, out, relax, Workspace(basis.ngll))
    return out


def relative_error(out, ref):
    return np.max(np.abs(out - ref)) / np.max(np.abs(ref))


@pytest.fixture(scope="module")
def setup():
    mesh = build_box_mesh((5, 5, 5))  # 125 elements
    geom = compute_geometry(mesh.xyz)
    basis = GLLBasis(5)
    _, lam, mu = mesh.material_arrays()
    rng = np.random.default_rng(0)
    u = rng.standard_normal((mesh.nspec, 5, 5, 5, 3))
    return mesh, geom, basis, lam, mu, u


@pytest.mark.parametrize("variant", ["vectorized", "baseline", "blas"])
def test_kernel_variant_speed(benchmark, setup, variant):
    mesh, geom, basis, lam, mu, u = setup
    benchmark.group = "elastic-force-kernel"
    out = benchmark(arm_forces, variant, u, geom, lam, mu, basis)
    assert np.all(np.isfinite(out))
    benchmark.extra_info["gflops"] = (
        elastic_kernel_flops(mesh.nspec) / benchmark.stats["mean"] / 1e9
    )


def test_kernel_ordering_matches_paper(benchmark, setup):
    """The reproduced claim: vector > scalar > tiny-BLAS, identical results."""
    mesh, geom, basis, lam, mu, u = setup

    def time_variant(variant, repeats):
        arm_forces(variant, u, geom, lam, mu, basis)  # warm-up
        t0 = time.perf_counter()
        for _ in range(repeats):
            out = arm_forces(variant, u, geom, lam, mu, basis)
        return (time.perf_counter() - t0) / repeats, out

    def shootout():
        t_vec, out_vec = time_variant("vectorized", 10)
        t_base, out_base = time_variant("baseline", 3)
        t_blas, out_blas = time_variant("blas", 1)
        np.testing.assert_allclose(out_base, out_vec, atol=1e-12)
        np.testing.assert_allclose(out_blas, out_vec, atol=1e-12)
        return t_vec, t_base, t_blas

    t_vec, t_base, t_blas = benchmark.pedantic(shootout, rounds=1, iterations=1)

    assert t_vec < t_base, "vector analog must beat the scalar analog"
    assert t_blas > t_base, (
        "per-matrix BLAS calls must lose to plain loops (the paper's finding)"
    )

    benchmark.extra_info.update(
        vector_gain_over_baseline_pct=round(100 * (t_base / t_vec - 1), 1),
        paper_gain_pct="15-20",
        blas_slowdown_vs_baseline=round(t_blas / t_base, 2),
        paper_blas="significantly slows down the code",
    )


def test_padding_overhead(benchmark, setup):
    """125 -> 128 alignment padding costs 2.4% memory (paper Section 4.3)."""
    _, _, _, _, _, u = setup
    padded = benchmark(pad_elements, u)
    overhead = padded.nbytes / u.nbytes - 1.0
    assert overhead == pytest.approx(0.024, abs=1e-3)
    assert padding_overhead() == pytest.approx(128 / 125 - 1.0)
    benchmark.extra_info["memory_overhead_pct"] = round(100 * overhead, 2)
    benchmark.extra_info["paper_pct"] = 2.4


# ---------------------------------------------------------------- equivalence


def distorted_box(n_elements, distort, seed):
    """Box GLL coordinates under a smooth map (conforming, positive
    Jacobians), with random positive Lame fields and a displacement."""
    xyz = build_box_mesh(n_elements).xyz
    x, y, z = xyz[..., 0], xyz[..., 1], xyz[..., 2]
    s = np.sin(np.pi * xyz)
    xyz = np.stack(
        [x + distort * s[..., 1] * s[..., 2],
         y + distort * s[..., 2] * s[..., 0],
         z + distort * s[..., 0] * s[..., 1]],
        axis=-1,
    )
    rng = np.random.default_rng(seed)
    shape = xyz.shape[:-1]
    return (
        compute_geometry(xyz), GLLBasis(5), 1.0 + rng.random(shape),
        0.5 + rng.random(shape), rng.standard_normal((*shape, 3)),
    )


@pytest.mark.parametrize("arm", LOSING)
def test_arm_matches_reference(arm):
    geom, basis, lam, mu, u = distorted_box((2, 2, 1), 0.05, 42)
    ref = forces_elastic_reference(u, geom, lam, mu, basis)
    out = arm_forces(arm, u, geom, lam, mu, basis)
    np.testing.assert_allclose(out, ref, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("memory", [False, True])
def test_arms_agree(memory):
    # More than one block of distorted elements, with distinct Q values:
    # the relaxation is shared, so the memory variables agree bitwise.
    geom, basis, lam, mu, u = distorted_box((5, 5, 4), 0.03, 7)
    nspec = u.shape[0]
    q_mu = np.where(np.arange(nspec) % 3 == 0, 80.0, 300.0)[:, None, None, None]
    zeta0 = 1e-2 * np.random.default_rng(8).standard_normal((3, nspec, 6, 5, 5, 5))

    def run(arm):
        state = build_attenuation(
            np.broadcast_to(q_mu, u.shape[:-1]), dt=0.05, f_min=0.05, f_max=0.5
        )
        state.zeta[:] = zeta0

        def relax(strain, lo, hi, ws):
            return state.relax(strain, slice(lo, hi), ws.memory)

        out = arm_forces(arm, u, geom, lam, mu, basis, relax if memory else None)
        return out, state.zeta

    ref, ref_zeta = run("vectorized")
    for arm in LOSING:
        out, zeta = run(arm)
        assert relative_error(out, ref) < 1e-12, arm
        np.testing.assert_array_equal(zeta, ref_zeta)


def test_arms_give_identical_box_trajectories(monkeypatch):
    # The paper's associativity observation: different implementations
    # (and loop orders) yield seismograms identical to roundoff.  Each
    # arm is injected into the contraction of every operator the solver
    # builds.
    mesh = build_box_mesh((2, 1, 1), lengths=(1.0, 0.4, 0.4), periodic=True)
    wave = plane_s_wave((1.0, 0.4, 0.4), vs=1.0)
    results = {}
    for arm, contract in ARMS.items():
        monkeypatch.setattr(StiffnessOperator, "_contract", staticmethod(contract))
        solver = GlobalSolver(mesh, SimulationParameters())
        solver.set_initial_condition(
            lambda x: wave.displacement(x, 0.0),
            lambda x: wave.velocity(x, 0.0),
        )
        solver.run(n_steps=20)
        results[arm] = solver.solid[RegionCode.CRUST_MANTLE].displ[0].copy()
    np.testing.assert_allclose(
        results["baseline"], results["vectorized"], atol=1e-18
    )
    np.testing.assert_allclose(
        results["blas"], results["vectorized"], atol=1e-14
    )


def test_arms_identical_globe_seismograms(monkeypatch):
    # The same invariance on the real globe mesh, with its fluid core:
    # the tiny-BLAS contraction injected into every operator.
    params = SimulationParameters(
        nex_xi=4, nproc_xi=1, ner_crust_mantle=3, ner_outer_core=2,
        ner_inner_core=1,
    )
    mesh = build_global_mesh(params)
    r = constants.R_EARTH_KM
    source = MomentTensorSource(
        position=(0.0, 0.0, r - 100.0), moment=1e20 * np.eye(3),
        stf=gaussian_stf(15.0), time_shift=40.0,
    )
    stations = [
        Station("POLE", (0.0, 0.0, r)),
        Station("EQ_X", (r, 0.0, 0.0)),
        Station("MID", (r / np.sqrt(2), 0.0, r / np.sqrt(2))),
    ]

    def seismograms():
        solver = GlobalSolver(mesh, params, sources=[source], stations=stations)
        return solver.run(n_steps=25).seismograms

    vec = seismograms()
    monkeypatch.setattr(
        StiffnessOperator, "_contract", staticmethod(_contract_per_cutplane)
    )
    blas = seismograms()
    scale = max(np.abs(vec).max(), 1e-300)
    np.testing.assert_allclose(vec / scale, blas / scale, atol=1e-9)
