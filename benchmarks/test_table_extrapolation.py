"""T-EXTRAP — The 12K- and 62K-core predictions (paper Section 5).

Paper: "the total communication time for all cores of a hypothetical
SPECFEM3D run with 12K processors and a resolution of NEX_XI = 1440 [is]
around 7.3E6 seconds, which corresponds to 599 seconds per core and 3.2%
of overall execution time. Similarly ... 62K processors and a resolution
of NEX_XI = 4848 ... around 28K seconds [per core], which also corresponds
to 4.7% of overall execution time."
"""

from repro.perf import FRANKLIN, RANGER, predict_run


def test_extrapolation_12k_and_62k(benchmark, record):
    def extrapolate():
        return (
            predict_run(FRANKLIN, 1440, 45),
            predict_run(RANGER, 4848, 102),
        )

    p12k, p62k = benchmark(extrapolate)

    # --- 12K cores, NEX = 1440 (paper: 7.3e6 s, 599 s/core, 3.2%) ---
    assert p12k.nproc_total == 12150
    assert 2e6 < p12k.comm_s_total_all_cores < 2e7
    assert 200 < p12k.comm_s_per_core < 1500
    assert 0.015 < p12k.comm_fraction < 0.06

    # --- 62K cores, NEX = 4848 (paper: ~28K s/core, 4.7%) ---
    assert p62k.nproc_total == 62424
    assert 8_000 < p62k.comm_s_per_core < 80_000
    assert 0.015 < p62k.comm_fraction < 0.10

    # The structural claim: the fraction stays in low single digits at 62K
    # cores, so "communication is not expected to be the bottleneck".
    assert p62k.comm_fraction < 0.10

    record(
        model_12k={
            "total_comm_s": f"{p12k.comm_s_total_all_cores:.2e}",
            "comm_s_per_core": round(p12k.comm_s_per_core),
            "comm_pct": round(100 * p12k.comm_fraction, 1),
        },
        paper_12k={"total_comm_s": "7.3e6", "comm_s_per_core": 599,
                   "comm_pct": 3.2},
        model_62k={
            "comm_s_per_core": round(p62k.comm_s_per_core),
            "comm_pct": round(100 * p62k.comm_fraction, 1),
            "memory_per_core_gb": round(p62k.memory_per_core_gb, 2),
        },
        paper_62k={"comm_s_per_core": "~28000", "comm_pct": 4.7,
                   "memory_per_core_gb": "<= 1.85"},
    )


def test_petascale_week_estimate(benchmark, record):
    """Section 7: 25 minutes of seismograms ~ 1 week on 32K+ cores."""

    def extrapolate():
        return predict_run(RANGER, 4352, 73, record_length_s=25 * 60.0)

    pred = benchmark(extrapolate)
    days = pred.wall_time_s / 86400.0
    assert 31000 < pred.nproc_total < 33000
    assert 2.0 < days < 21.0  # "about 1 week"
    record(
        cores=pred.nproc_total,
        nex=pred.nex_xi,
        shortest_period_s=round(pred.shortest_period_s, 2),
        time_steps=pred.n_steps,
        wall_days=round(days, 1),
        paper="about 25 minutes of real time ... about 1 week of dedicated "
              "32K or more processor supercomputer time",
    )


def test_calibrated_cross_resolution_error(benchmark, record):
    """OBS-CAL (EXPERIMENTS.md): calibrate `repro.perf.calibrate` on a
    traced NEX=6 run, predict a NEX=8 run, total-runtime error < 25 %.

    A wall-clock bar, so it lives here and not in tier-1: deep in a long
    suite on a shared host it measured -25.7 % where a quiet run gives
    -14.4 %.  Tier-1 keeps the deterministic half (self-prediction and a
    synthetic trace with planted rates, tests/test_observatory.py).
    """
    import gc
    import time

    from conftest import demo_source, small_params

    from repro.apps.merged_app import run_global_simulation
    from repro.obs.tracer import Tracer
    from repro.perf.calibrate import calibrate, predicted_vs_measured

    def traced(nex):
        # The traces carry real wall-clock: collect garbage before timing
        # and keep the faster of two runs, so one scheduler hiccup does
        # not pass for model error.
        best = None
        for _ in range(2):
            gc.collect()
            tracer = Tracer(pid=0)
            t0 = time.perf_counter()
            run_global_simulation(
                small_params(nex=nex, nstep_override=20),
                sources=[demo_source()], n_steps=20, tracer=tracer,
            )
            wall = time.perf_counter() - t0
            if best is None or wall < best[0]:
                best = (wall, tracer.records)
        return best[1]

    def cross_predict():
        return predicted_vs_measured(calibrate(traced(6)), traced(8))

    _rows, totals = benchmark.pedantic(cross_predict, rounds=1, iterations=1)
    assert totals["coverage"] > 0.999
    assert abs(totals["error_pct"]) < 25.0, totals
    record(
        measured_s=round(totals["measured_s"], 3),
        predicted_s=round(totals["predicted_s"], 3),
        error_pct=round(totals["error_pct"], 1),
        acceptance="|error| < 25 % (EXPERIMENTS.md records -14.4 %)",
    )
