"""A-MESH2X — Single-pass vs legacy two-pass mesher (paper Section 4.4.1).

Paper: "the mesher was actually run twice internally: once to generate the
mesh ... and a second time to populate this geometry with material
properties; this slowed down the mesher by a factor of two ... we
therefore merged these two steps".

The mesher is single-pass; this benchmark is the only runner of the
legacy arm, injected by wrapping the slice geometry step so each region
is generated and numbered, then generated again.  The wrapper counts
its passes itself.
"""

import time

from repro.mesh import MesherStats, build_slice_mesh, mesher

from conftest import small_params


REPEATS = 3


def test_mesher_pass_ablation(benchmark, record, monkeypatch):
    params = small_params(nex=8)
    geometry = mesher._region_geometry
    passes = [0]  # region geometry passes of the two-pass arm

    def two_pass(*args):
        xyz, labels = geometry(*args)
        mesher.build_global_numbering(xyz, labels=labels)
        passes[0] += 2
        return geometry(*args)

    def timed():
        stats = MesherStats()
        t0 = time.perf_counter()
        for _ in range(REPEATS):
            build_slice_mesh(params, stats=stats)
        return stats, (time.perf_counter() - t0) / REPEATS

    def run_both():
        stats_1, t_single = timed()
        with monkeypatch.context() as patch:
            patch.setattr(mesher, "_region_geometry", two_pass)
            stats_2, t_double = timed()
        return stats_1, stats_2, t_single, t_double

    stats_1, stats_2, t_single, t_double = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )

    # The legacy mode generates every region twice (three regions a
    # slice), so every GLL point twice...
    assert passes[0] == 2 * 3 * REPEATS
    assert stats_2.gll_points_generated == 2 * stats_1.gll_points_generated
    # ...but assigns materials once, like the fixed version.
    assert stats_2.material_points_assigned == stats_1.material_points_assigned

    # Wall-clock: the two-pass mesher is substantially slower; the exact
    # factor depends on the geometry/materials cost split (the paper's
    # Fortran mesher was geometry-dominated, hence its full 2x).
    factor = t_double / t_single
    assert 1.2 < factor < 2.3, f"two-pass mesher factor {factor:.2f}"

    record(
        single_pass_s=round(t_single, 3),
        two_pass_s=round(t_double, 3),
        slowdown_factor=round(factor, 2),
        paper_factor=2.0,
        geometry_points_ratio=2.0,
        two_pass_region_passes=passes[0],
    )
