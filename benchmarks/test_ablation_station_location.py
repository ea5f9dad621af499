"""A-STATION — Station location algorithms (paper Section 4.4.2).

Paper: the mesher's exact non-linear station location plus the solver's
per-step interpolation caused "a significant slowdown of the whole
application and significant load imbalance because some mesh slices carry
more seismic stations than others"; at high resolution the fix is to snap
stations to the closest grid point, where "the error made is then very
small".
"""

import time

import numpy as np

from repro.config import constants
from repro.mesh import build_global_mesh, load_balance_imbalance
from repro.model.prem import RegionCode
from repro.solver import ReceiverSet, Station, locate_receivers

from conftest import small_params


def _dense_station_network(n: int, seed: int = 3) -> list[Station]:
    """n stations clustered in one hemisphere (uneven, like real networks)."""
    rng = np.random.default_rng(seed)
    r = constants.R_EARTH_KM
    lats = np.deg2rad(rng.uniform(10, 80, n))   # northern hemisphere only
    lons = np.deg2rad(rng.uniform(-120, 40, n))  # America/Europe cluster
    return [
        Station(
            f"ST{i:03d}",
            (
                r * np.cos(lat) * np.cos(lon),
                r * np.cos(lat) * np.sin(lon),
                r * np.sin(lat),
            ),
        )
        for i, (lat, lon) in enumerate(zip(lats, lons))
    ]


def test_station_location_cost_and_error(benchmark, record):
    params = small_params(nex=8)
    mesh = build_global_mesh(params).regions[RegionCode.CRUST_MANTLE]
    stations = _dense_station_network(40)

    def experiment():
        t0 = time.perf_counter()
        interp = locate_receivers(stations, mesh.xyz, mesh.ibool, "interpolated")
        t_locate_interp = time.perf_counter() - t0
        t0 = time.perf_counter()
        close = locate_receivers(stations, mesh.xyz, mesh.ibool, "closest_point")
        t_locate_close = time.perf_counter() - t0

        # Per-step recording cost over many steps.
        displ = np.random.default_rng(0).standard_normal((mesh.nglob, 3))
        n_rec = 200
        rs_i = ReceiverSet(interp, n_rec, 0.1)
        t0 = time.perf_counter()
        for _ in range(n_rec):
            rs_i.record(displ, mesh.ibool)
        t_record_interp = time.perf_counter() - t0
        rs_c = ReceiverSet(close, n_rec, 0.1)
        t0 = time.perf_counter()
        for _ in range(n_rec):
            rs_c.record(displ, mesh.ibool)
        t_record_close = time.perf_counter() - t0
        return (interp, close, t_locate_interp, t_locate_close,
                t_record_interp, t_record_close)

    (interp, close, t_li, t_lc, t_ri, t_rc) = benchmark.pedantic(
        experiment, rounds=1, iterations=1
    )

    # Location: the Newton search is far costlier than the KD-tree snap.
    assert t_li > 2.0 * t_lc
    # Recording: interpolation costs more per step than a direct read.
    assert t_ri > t_rc
    # Accuracy: at this mesh density the closest-point location error stays
    # a small fraction of the element size ("negligible from a geophysical
    # point of view" at the paper's production resolutions).
    element_size_km = constants.R_EARTH_KM * (np.pi / 2) / params.nex_xi
    worst_error = max(r.location_error for r in close)
    assert worst_error < 0.5 * element_size_km

    record(
        n_stations=len(close),
        locate_s_interpolated=round(t_li, 3),
        locate_s_closest=round(t_lc, 3),
        record_s_interpolated=round(t_ri, 3),
        record_s_closest=round(t_rc, 3),
        recording_cost_ratio=round(t_ri / max(t_rc, 1e-9), 1),
        worst_snap_error_km=round(worst_error, 1),
        element_size_km=round(element_size_km, 1),
    )


def test_station_load_imbalance(benchmark, record):
    """Uneven station sets load slices unevenly (the paper's imbalance)."""
    from repro.cubed_sphere.topology import SliceGrid
    from repro.mesh import build_slice_mesh
    from repro.parallel.launcher import _assign_owners

    params = small_params(nex=8)
    stations = _dense_station_network(60)

    def assign():
        grid = SliceGrid(1)
        slices = [
            build_slice_mesh(params, grid.address_of(r))
            for r in range(grid.nproc_total)
        ]
        return _assign_owners(slices, stations, [])[0]

    assignment = benchmark.pedantic(assign, rounds=1, iterations=1)
    counts = np.zeros(6)
    for rank, assigned in assignment.items():
        counts[rank] = len(assigned)
    imbalance = load_balance_imbalance(np.maximum(counts, 1e-9))
    # A hemisphere-clustered network concentrates stations on few slices.
    assert counts.max() >= 2 * counts.mean()
    record(
        stations_per_slice=[int(c) for c in counts],
        station_load_imbalance=round(imbalance, 2),
        paper="some mesh slices carry more seismic stations than others and "
              "therefore would spend more time performing the interpolation",
    )
