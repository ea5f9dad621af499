"""A-CM — Multilevel reverse Cuthill-McKee element sorting (Section 4.2).

Paper findings reproduced here:

* sorting elements with (multilevel) reverse CM and renumbering the global
  index table reduces the memory strides of the gather/scatter;
* the *runtime* gain is small — "at most 5% in practice" — because the
  earlier first-touch point renumbering already removed most cache misses
  and the kernels are compute-dense per element;
* loop order does not change the physics: seismograms from different
  element orders agree to roundoff (the associativity check).
"""

import time

import numpy as np

from repro.gll import GLLBasis
from repro.kernels import compute_forces_elastic, compute_geometry
from repro.mesh import (
    average_global_stride,
    build_global_mesh,
    cuthill_mckee_order,
    element_adjacency,
    multilevel_cache_blocks,
    renumber_first_touch,
    reorder_elements,
)
from repro.model.prem import RegionCode
from repro.solver.assembly import gather, scatter_add

from conftest import small_params


#: Timed passes per element order.  The two orders alternate pass by
#: pass, so a change in the host's speed falls on both alike.
PASSES = 11


def _kernel_pass(xyz, ibool, nglob, lam, mu):
    """A timed gather -> force -> scatter pass over one element order,
    warmed up once."""
    geom = compute_geometry(xyz)
    basis = GLLBasis(5)
    u_glob = np.random.default_rng(0).standard_normal((nglob, 3))

    def timed_pass():
        t0 = time.perf_counter()
        f = compute_forces_elastic(gather(u_glob, ibool), geom, lam, mu, basis)
        scatter_add(f, ibool, nglob)
        return time.perf_counter() - t0

    timed_pass()
    return timed_pass


def _interleaved_times(*arms, passes=PASSES):
    """Each arm's pass times, the arms run in turn and their order
    reversed every pass."""
    times = [[] for _ in arms]
    for i in range(passes):
        turn = list(enumerate(arms))
        for k, arm in turn if i % 2 == 0 else reversed(turn):
            times[k].append(arm())
    return [np.asarray(t) for t in times]


def _quartile_spread(times):
    """Interquartile range over median."""
    q1, median, q3 = np.percentile(times, [25, 50, 75])
    return (q3 - q1) / median


def test_cuthill_mckee_stride_and_runtime(benchmark, record):
    params = small_params(nex=8)
    mesh = build_global_mesh(params).regions[RegionCode.CRUST_MANTLE]

    def experiment():
        rng = np.random.default_rng(7)
        shuffle = rng.permutation(mesh.nspec)
        xyz_s, ibool_s, lam_s, mu_s = reorder_elements(
            shuffle,
            mesh.xyz,
            mesh.ibool,
            mesh.kappa - 2 / 3 * mesh.mu,
            mesh.mu,
        )
        # Shuffled-and-renumbered baseline (renumbering alone is the
        # earlier optimisation the paper says already did most of the work).
        ibool_s, _ = renumber_first_touch(ibool_s, mesh.nglob)
        stride_before = average_global_stride(ibool_s)

        order = cuthill_mckee_order(element_adjacency(ibool_s))
        blocks = multilevel_cache_blocks(order, block_elements=64)
        order = np.concatenate(blocks)
        xyz_cm, ibool_cm, lam_cm, mu_cm = reorder_elements(
            order, xyz_s, ibool_s, lam_s, mu_s
        )
        ibool_cm, _ = renumber_first_touch(ibool_cm, mesh.nglob)
        stride_after = average_global_stride(ibool_cm)
        times = _interleaved_times(
            _kernel_pass(xyz_s, ibool_s, mesh.nglob, lam_s, mu_s),
            _kernel_pass(xyz_cm, ibool_cm, mesh.nglob, lam_cm, mu_cm),
        )
        return stride_before, stride_after, times

    stride_before, stride_after, (times_before, times_after) = benchmark.pedantic(
        experiment, rounds=1, iterations=1
    )
    t_before, t_after = np.median(times_before), np.median(times_after)

    # CM sorting reduces the access strides of the element loop.
    assert stride_after < stride_before

    # The runtime gain is small, as the paper found ("at most 5%"):
    # certainly not a large swing in either direction.
    gain = t_before / t_after - 1.0
    assert -0.15 < gain < 0.30, f"CM runtime gain {gain:.1%}"

    record(
        stride_shuffled=round(stride_before, 1),
        stride_cm_sorted=round(stride_after, 1),
        runtime_gain_pct=round(100 * gain, 1),
        passes_per_order=PASSES,
        quartile_spread_pct_shuffled=round(100 * _quartile_spread(times_before), 1),
        quartile_spread_pct_cm_sorted=round(100 * _quartile_spread(times_after), 1),
        paper="at most 5% gain - point renumbering had already removed "
              "most L2 misses",
    )


def test_loop_order_invariance(benchmark, record):
    """The paper's associativity check: two element orders, same seismograms
    'indistinguishable when plotted superimposed'."""
    from repro.config import constants
    from repro.solver import GlobalSolver, MomentTensorSource, gaussian_stf
    from conftest import demo_stations

    params = small_params(nex=4, nstep_override=12)
    mesh = build_global_mesh(params)
    region = mesh.regions[RegionCode.CRUST_MANTLE]
    # A generic off-axis source position: a source exactly on an element
    # corner (like the polar axis) makes the discrete host-element choice
    # ambiguous, which is a different effect than loop order.
    r = constants.R_EARTH_KM - 300.0
    lat, lon = np.deg2rad(37.0), np.deg2rad(52.0)
    source = MomentTensorSource(
        position=(
            r * np.cos(lat) * np.cos(lon),
            r * np.cos(lat) * np.sin(lon),
            r * np.sin(lat),
        ),
        moment=1e20 * np.eye(3),
        stf=gaussian_stf(15.0),
        time_shift=20.0,
    )

    def run_both():
        base = GlobalSolver(
            mesh, params, sources=[source], stations=demo_stations()
        ).run()
        # Re-order the crust-mantle elements with reverse CM and run again.
        order = cuthill_mckee_order(element_adjacency(region.ibool))
        (region.xyz, region.ibool, region.rho, region.kappa, region.mu,
         region.q_mu) = reorder_elements(
            order, region.xyz, region.ibool, region.rho, region.kappa,
            region.mu, region.q_mu,
        )
        sorted_run = GlobalSolver(
            mesh, params, sources=[source], stations=demo_stations()
        ).run()
        return base.seismograms, sorted_run.seismograms

    seis_a, seis_b = benchmark.pedantic(run_both, rounds=1, iterations=1)
    scale = max(np.abs(seis_a).max(), 1e-300)
    np.testing.assert_allclose(seis_a / scale, seis_b / scale, atol=1e-9)
    record(
        max_relative_difference=float(np.abs(seis_a - seis_b).max() / scale),
        paper="the same mesh computed with different loop orders gives "
              "indistinguishable seismograms",
    )
