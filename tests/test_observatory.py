"""Performance observatory: streaming telemetry, aggregation, calibration.

Three subsystems, three invariant families:

* **Streaming** (:mod:`repro.obs.stream`) — ring-buffer wraparound is
  counted, never silent; a crashed writer leaves a readable file (the
  torn final line is skipped, not raised); a streamed solver run is
  bit-identical to an unstreamed one (the stream only *reads* state).
* **Segmented metrics** — a run split into segments (including one that
  falls back past a corrupted checkpoint and re-executes steps) reports
  exactly the same counters as an uninterrupted run: the re-run span
  must not double-count.
* **Aggregation/calibration** (:mod:`repro.obs.aggregate`,
  :mod:`repro.perf.calibrate`) — campaign rollups match the records they
  summarise; a calibration fitted at NEX=6 predicts a NEX=8 run's total
  within 25%.
"""

import json
import math
import time

import numpy as np
import pytest

from repro.config import constants
from repro.config.parameters import SimulationParameters
from repro.obs import MetricsRegistry, Tracer
from repro.obs.stream import (
    STREAM_FIELDS,
    StreamingTelemetry,
    dedupe_steps,
    read_stream,
)
from repro.solver import MomentTensorSource, Station, gaussian_stf


def small_params(nex=4, n_steps=8, **kw):
    defaults = dict(
        nex_xi=nex, nproc_xi=1, ner_crust_mantle=2, ner_outer_core=1,
        ner_inner_core=1, nstep_override=n_steps,
    )
    defaults.update(kw)
    return SimulationParameters(**defaults)


def demo_source():
    return MomentTensorSource(
        position=(0.0, 0.0, constants.R_EARTH_KM - 200.0),
        moment=1e20 * np.eye(3),
        stf=gaussian_stf(10.0),
        time_shift=3.0,
    )


def demo_stations():
    return [
        Station("POLE", (0.0, 0.0, constants.R_EARTH_KM)),
        Station("EQTR", (constants.R_EARTH_KM, 0.0, 0.0)),
    ]


# ------------------------------------------------------------------ stream


class TestStreamingTelemetry:
    def test_ring_wraparound_counts_drops(self, tmp_path):
        """Overflowing the ring loses the oldest rows, loudly."""
        path = tmp_path / "s.jsonl"
        stream = StreamingTelemetry(path, capacity=8, flush_every=10_000)
        for step in range(20):
            stream.sample(step, wall_s=0.1 * step)
        assert stream.samples_taken == 20
        stream.close()
        assert stream.dropped == 12
        samples, _meta, info = read_stream(path)
        # Only the newest `capacity` rows survive, in order.
        assert [s["step"] for s in samples] == list(range(12, 20))
        assert info["dropped"] == 12
        assert info["complete"] is True

    def test_no_flush_needed_within_capacity(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with StreamingTelemetry(path, capacity=64, flush_every=4) as stream:
            for step in range(10):
                stream.sample(step, wall_s=1.0, seismogram_fill=step / 10)
        samples, meta, info = read_stream(path)
        assert len(samples) == 10
        assert info == {"bad_lines": 0, "dropped": 0, "complete": True}
        assert meta["version"] == 1
        assert meta["fields"] == list(STREAM_FIELDS)
        # NaN-valued fields are omitted from the JSON lines entirely.
        assert "health_peak_m" not in samples[0]
        assert samples[3]["seismogram_fill"] == pytest.approx(0.3)

    def test_in_memory_stream_latest(self):
        stream = StreamingTelemetry(capacity=4)
        for step in range(6):
            stream.sample(step, wall_s=float(step))
        latest = stream.latest(2)
        assert [s["step"] for s in latest] == [4, 5]
        assert latest[-1]["wall_s"] == 5.0
        stream.close()  # no path: close must not create a file

    def test_reader_tolerates_torn_final_line(self, tmp_path):
        """A writer killed mid-write leaves a readable stream."""
        path = tmp_path / "s.jsonl"
        stream = StreamingTelemetry(path, flush_every=1)
        for step in range(5):
            stream.sample(step, wall_s=0.5)
        stream.flush()
        # Simulate the crash: a torn, half-written final line (no close,
        # no stream_end marker).
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"type": "step", "step": 5, "wal')
        try:
            samples, _meta, info = read_stream(path)
        finally:
            stream.close()  # only to release the handle the "crash" left open
        assert [s["step"] for s in samples] == [0, 1, 2, 3, 4]
        assert info["bad_lines"] == 1
        assert info["complete"] is False

    def test_dedupe_steps_keeps_last(self):
        samples = [
            {"step": 3, "wall_s": 1.0},
            {"step": 4, "wall_s": 1.0},
            {"step": 3, "wall_s": 2.0},  # fallback re-run of step 3
        ]
        deduped = dedupe_steps(samples)
        assert [s["step"] for s in deduped] == [3, 4]
        assert deduped[0]["wall_s"] == 2.0

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            StreamingTelemetry(capacity=0)
        with pytest.raises(ValueError):
            StreamingTelemetry(flush_every=0)


class TestStreamedSolverRun:
    def test_streamed_run_bit_identical_and_sampled(self, tmp_path):
        """The stream observes the solver; it must never perturb it."""
        from repro.apps.merged_app import run_global_simulation

        params = small_params(n_steps=8)
        src, sta = [demo_source()], demo_stations()
        plain = run_global_simulation(
            params, sources=src, stations=sta, n_steps=8
        )
        path = tmp_path / "run.stream.jsonl"
        with StreamingTelemetry(path, flush_every=2) as stream:
            streamed = run_global_simulation(
                params, sources=src, stations=sta, n_steps=8, stream=stream
            )
        np.testing.assert_array_equal(
            plain.seismograms, streamed.seismograms
        )
        samples, _meta, info = read_stream(path)
        assert [s["step"] for s in samples] == list(range(8))
        assert info["complete"] is True
        assert all(s["wall_s"] > 0 for s in samples)
        # Seismogram fill reaches 1.0 on the final recorded step.
        assert samples[-1]["seismogram_fill"] == pytest.approx(1.0)

    def test_stream_samples_health_sentinel(self):
        """Sentinel peak/energy reach the stream without extra scans."""
        from repro.mesh import build_global_mesh
        from repro.solver import GlobalSolver

        params = small_params(n_steps=6, health_check_every=2)
        mesh = build_global_mesh(params)
        stream = StreamingTelemetry(capacity=16)
        solver = GlobalSolver(
            mesh, params, sources=[demo_source()], stream=stream
        )
        solver.run(n_steps=6)
        samples = stream.latest(6)
        # Before the first check the health fields are NaN -> omitted.
        assert "health_peak_m" not in samples[0]
        # After a check they carry the sentinel's last observation.
        assert samples[-1]["health_checks"] == 3.0
        assert samples[-1]["health_peak_m"] >= 0.0
        assert "health_energy_j" in samples[-1]

    def test_stream_survives_mid_run_crash(self, tmp_path):
        """A crash mid-run still leaves the flushed samples on disk."""
        from repro.mesh import build_global_mesh
        from repro.solver import GlobalSolver

        params = small_params(n_steps=10)
        mesh = build_global_mesh(params)
        path = tmp_path / "crash.stream.jsonl"
        stream = StreamingTelemetry(path, flush_every=2)

        def blow_up(step, _solver):
            if step == 6:
                raise RuntimeError("injected crash")

        solver = GlobalSolver(
            mesh, params, sources=[demo_source()], stream=stream
        )
        with pytest.raises(RuntimeError, match="injected crash"):
            solver.run(n_steps=10, callbacks=[blow_up])
        # The solver's finally-flush persisted everything sampled so far
        # even though close() never ran (step 6 died before its sample).
        try:
            samples, _meta, info = read_stream(path)
        finally:
            stream.close()  # only to release the handle the crash left open
        assert [s["step"] for s in samples] == list(range(6))
        assert info["complete"] is False  # no end marker: honest crash


class TestStepObserverOrder:
    def test_observers_run_in_one_fixed_order(self):
        """callbacks, sentinel, receivers, energy, metrics, stream: a poison
        at step 3 fails that step's check, so nothing after the sentinel
        sees step 3 while every observer saw steps 0-2."""
        from repro.chaos import FaultPlan, FaultSpec, NumericalHealthError
        from repro.mesh import build_global_mesh
        from repro.solver import GlobalSolver

        params = small_params(n_steps=8, health_check_every=1)
        metrics = MetricsRegistry()
        stream = StreamingTelemetry(capacity=16)
        solver = GlobalSolver(
            build_global_mesh(params), params, sources=[demo_source()],
            stations=demo_stations()[:1], metrics=metrics, stream=stream,
        )
        plan = FaultPlan([FaultSpec(kind="poison", rank=0, step=3)])
        with pytest.raises(NumericalHealthError) as err:
            solver.run(callbacks=[plan.solver_callback(rank=0)])
        assert err.value.snapshot.step == 3
        assert solver.receiver_set.step_cursor == 3
        assert [s["step"] for s in stream.latest(16)] == [0, 1, 2]
        assert metrics.counter("health.checks").value == 4
        assert metrics.counter("health.failures").value == 1
        assert metrics.counter("solver.steps").value == 3


class TestDistributedStreams:
    def test_stream_dir_writes_one_file_per_rank(self, tmp_path):
        from repro.parallel import run_distributed_simulation

        params = small_params(n_steps=4)
        run_distributed_simulation(
            params, sources=[demo_source()], n_steps=4,
            stream_dir=tmp_path,
        )
        files = sorted(tmp_path.glob("rank*.stream.jsonl"))
        assert len(files) == constants.NCHUNKS  # nproc_xi=1: one per chunk
        for rank, path in enumerate(files):
            samples, meta, info = read_stream(path)
            assert meta["rank"] == rank
            assert len(samples) == 4
            assert info["complete"] is True
            # Distributed ranks communicate: the comm split is recorded.
            assert all("comm_s" in s for s in samples)

    def test_stream_comm_columns_come_from_the_exchanger(self, tmp_path):
        """Per rank, the streamed comm deltas are a positive part of the
        communicator's total (set-up and the final gather are outside
        the steps) and the halo-wait deltas are positive."""
        from repro.parallel import run_distributed_simulation

        params = small_params(n_steps=4)
        result = run_distributed_simulation(
            params, sources=[demo_source()], n_steps=4,
            stream_dir=tmp_path,
        )
        files = sorted(tmp_path.glob("rank*.stream.jsonl"))
        for stats, path in zip(result.comm_stats, files, strict=True):
            samples, _meta, _info = read_stream(path)
            comm = sum(s["comm_s"] for s in samples)
            assert 0.0 < comm <= stats.comm_time_s
            assert sum(s["halo_wait_s"] for s in samples) > 0.0


# -------------------------------------------------- segmented double-count


class TestSegmentedMetricsNoDoubleCount:
    @pytest.fixture(scope="class")
    def params(self):
        return small_params(n_steps=9)

    @pytest.fixture(scope="class")
    def mesh(self, params):
        from repro.mesh import build_global_mesh

        return build_global_mesh(params)

    def _counters(self, params, mesh, **kw):
        from repro.apps.merged_app import run_global_simulation

        metrics = MetricsRegistry()
        result = run_global_simulation(
            params, sources=[demo_source()], stations=demo_stations(),
            n_steps=9, mesh=mesh, metrics=metrics, **kw,
        )
        return result, metrics

    def test_three_segment_run_counts_each_step_once(self, params, mesh):
        _result, metrics = self._counters(params, mesh, n_segments=3)
        assert metrics.counter("solver.steps").value == 9
        assert metrics.counter("campaign.segments").value == 3

    def test_fallback_rerun_does_not_double_count(self, params, mesh):
        """Corrupting a checkpoint forces re-execution of old steps; the
        metrics must still equal an uninterrupted run's."""

        def corrupt_first(index, path):
            if index == 0:
                data = bytearray(path.read_bytes())
                data[len(data) // 2] ^= 0xFF
                path.write_bytes(bytes(data))

        with pytest.warns(UserWarning, match="falling back"):
            result, metrics = self._counters(
                params, mesh, n_segments=3, on_checkpoint=corrupt_first
            )
        assert metrics.counter("campaign.checkpoint_corruptions").value == 1
        # Steps 0..2 re-executed (the corrupt checkpoint covered them),
        # but every counter still reflects exactly 9 logical steps.
        assert metrics.counter("solver.steps").value == 9
        # The per-step series was not double-appended either.
        series = metrics.snapshot()["series"]
        for name, s in series.items():
            assert len(s["values"]) <= 9, name

    def test_fallback_stream_is_honest_then_dedupes(self, params, mesh):
        """The stream records re-executed steps twice; dedupe collapses."""

        def corrupt_first(index, path):
            if index == 0:
                data = bytearray(path.read_bytes())
                data[len(data) // 2] ^= 0xFF
                path.write_bytes(bytes(data))

        stream = StreamingTelemetry(capacity=64)
        with pytest.warns(UserWarning, match="falling back"):
            self._counters(
                params, mesh, n_segments=3, on_checkpoint=corrupt_first,
                stream=stream,
            )
        samples = stream.latest(64)
        steps = [s["step"] for s in samples]
        assert len(steps) == 12  # 9 logical + 3 re-executed
        assert [s["step"] for s in dedupe_steps(samples)] == list(range(9))

    def test_health_checks_count_each_segments_last_step(self, mesh):
        """The replay gate does not make ``health.checks`` match: every
        segment checks its last step, which guards its checkpoint."""
        from repro.apps.merged_app import run_global_simulation

        params = small_params(n_steps=9, health_check_every=5)
        whole = MetricsRegistry()
        run_global_simulation(
            params, sources=[demo_source()], stations=demo_stations(),
            n_steps=9, mesh=mesh, metrics=whole,
        )
        _result, segmented = self._counters(params, mesh, n_segments=3)
        assert whole.counter("health.checks").value == 2  # steps 4, 8
        assert segmented.counter("health.checks").value == 4  # 2, 4, 5, 8
        for name in ("solver.steps", "io.seismogram_bytes"):
            assert (
                segmented.counter(name).value == whole.counter(name).value
            ), name

    def test_checkpoint_spans_and_counters(self, params, mesh):
        from repro.apps.merged_app import run_global_simulation

        tracer = Tracer(pid=0)
        metrics = MetricsRegistry()
        run_global_simulation(
            params, sources=[demo_source()], n_steps=9, n_segments=3,
            mesh=mesh, tracer=tracer, metrics=metrics,
        )
        names = [r.name for r in tracer.records]
        assert names.count("checkpoint.save") == 2  # none after last seg
        assert names.count("checkpoint.load") == 2
        saves = [r for r in tracer.records if r.name == "checkpoint.save"]
        assert all(r.counters["bytes"] > 0 for r in saves)
        assert metrics.counter("checkpoint.saves").value == 2
        assert metrics.counter("checkpoint.loads").value == 2
        assert metrics.counter("io.checkpoint_bytes_written").value > 0


# ------------------------------------------------------- cache/obs wiring


class TestMeshCacheSpans:
    def test_build_load_spill_spans(self, tmp_path):
        from repro.campaign.mesh_cache import MeshCache

        p1 = small_params(nex=4)
        p2 = small_params(nex=4, ner_crust_mantle=3)
        tracer = Tracer(pid=0)
        cache = MeshCache(max_entries=1, spill_dir=tmp_path)
        cache.get(p1, tracer=tracer)            # cold build
        cache.get(p2, tracer=tracer)            # build; evicts+spills p1
        cache.get(p1, tracer=tracer)            # reload from spill
        names = [r.name for r in tracer.records]
        assert names.count("cache.build") == 2
        assert names.count("cache.spill") >= 1
        assert names.count("cache.load") == 1

    def test_get_without_tracer_still_works(self):
        from repro.campaign.mesh_cache import MeshCache

        cache = MeshCache()
        mesh, hit = cache.get(small_params(nex=4))
        assert not hit
        _mesh, hit = cache.get(small_params(nex=4))
        assert hit


class TestCampaignStreamWiring:
    def test_job_stream_path_lands_in_record(self, tmp_path):
        from repro.campaign.queue import JobSpec
        from repro.campaign.store import ResultStore
        from repro.campaign import run_batched_campaign

        stream_path = tmp_path / "ev1.stream.jsonl"
        jobs = [
            JobSpec(name="ev1", params=small_params(n_steps=4), n_steps=4,
                    stream_path=str(stream_path)),
        ]
        results, _pool = run_batched_campaign(
            jobs, n_workers=1, store_dir=tmp_path / "store"
        )
        assert results[0].succeeded
        samples, _meta, info = read_stream(stream_path)
        assert len(samples) == 4
        assert info["complete"] is True
        rec = ResultStore(tmp_path / "store").get("ev1")
        assert rec.stream_path == str(stream_path)


# ----------------------------------------------------------- aggregation


class TestAggregate:
    def test_percentile_nearest_rank(self):
        from repro.obs.aggregate import percentile

        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50.0) == 2.0
        assert percentile(values, 99.0) == 4.0
        assert percentile(values, 0.0) == 1.0
        assert math.isnan(percentile([], 50.0))
        with pytest.raises(ValueError):
            percentile(values, 101.0)

    def test_campaign_aggregate_and_summary_record(self, tmp_path):
        from repro.campaign.queue import JobSpec
        from repro.campaign import run_batched_campaign
        from repro.obs.aggregate import (
            aggregate_campaign,
            record_campaign_summary,
            render_campaign_report,
        )

        store = tmp_path / "store"
        jobs = [
            JobSpec(name="a", params=small_params(n_steps=4), n_steps=4,
                    stream_path=str(tmp_path / "a.stream.jsonl")),
            JobSpec(name="b", params=small_params(n_steps=4), n_steps=4),
            JobSpec(name="c", params=small_params(n_steps=4), n_steps=4,
                    inject_failures=1),
        ]
        run_batched_campaign(jobs, n_workers=2, store_dir=store)
        agg = aggregate_campaign(store)
        assert agg.jobs == 3
        assert agg.succeeded == 3
        assert agg.retries == 1
        assert agg.cache_hits + agg.cache_misses == 3
        assert agg.cache_hit_rate == pytest.approx(2 / 3)
        assert agg.streams_read == 1
        assert agg.stream_steps == 4
        assert agg.wall_p50_s <= agg.wall_p99_s
        report = render_campaign_report(agg)
        assert "3 succeeded" in report
        assert "hit rate" in report
        manifest = record_campaign_summary(store, agg)
        last = json.loads(
            manifest.read_text(encoding="utf-8").strip().splitlines()[-1]
        )
        assert last["record_type"] == "campaign_summary"
        assert last["jobs"] == 3
        assert last["cache_hit_rate"] == pytest.approx(2 / 3)

    def test_report_cli_campaign_mode(self, tmp_path, capsys):
        from repro.campaign.queue import JobSpec
        from repro.campaign import run_batched_campaign
        from repro.obs.report import main

        store = tmp_path / "store"
        jobs = [JobSpec(name="solo", params=small_params(n_steps=4),
                        n_steps=4)]
        run_batched_campaign(jobs, n_workers=1, store_dir=store)
        assert main(["--campaign", str(store)]) == 0
        out = capsys.readouterr().out
        assert "campaign aggregate" in out
        assert main(["--campaign"]) == 2  # missing dir

    def test_aggregate_tolerates_missing_traces(self, tmp_path):
        from repro.campaign.store import JobRecord, ResultStore
        from repro.obs.aggregate import aggregate_campaign

        store = ResultStore(tmp_path / "store")
        store.record(JobRecord(
            name="gone", status="succeeded", wall_s=1.0,
            trace_path=str(tmp_path / "nope.jsonl"),
            stream_path=str(tmp_path / "nope.stream.jsonl"),
        ))
        agg = aggregate_campaign(tmp_path / "store")
        assert agg.jobs == 1
        assert agg.traces_read == 0
        assert agg.streams_read == 0


# ----------------------------------------------------------- calibration


class TestCalibration:
    @pytest.fixture(scope="class")
    def traces(self):
        from repro.apps.merged_app import run_global_simulation

        # Enough steps that the flops-modeled solver phases dominate the
        # per-call-modeled mesher ones (which grow with NEX and would
        # otherwise skew the cross-resolution total).  The traces carry
        # real wall-clock, so deep in a long suite a scheduler hiccup or
        # GC pause during one run can swamp the model error this class
        # asserts on: collect garbage before timing and keep the faster
        # of two runs per resolution.
        import gc

        out = {}
        for nex in (6, 8):
            best = None
            best_wall = None
            for _ in range(2):
                gc.collect()
                tracer = Tracer(pid=0)
                t0 = time.perf_counter()
                run_global_simulation(
                    small_params(nex=nex, n_steps=20),
                    sources=[demo_source()], n_steps=20, tracer=tracer,
                )
                wall = time.perf_counter() - t0
                if best_wall is None or wall < best_wall:
                    best, best_wall = tracer.records, wall
            out[nex] = best
        return out

    def test_self_prediction_is_exact(self, traces):
        from repro.perf.calibrate import calibrate, predicted_vs_measured

        calib = calibrate(traces[6])
        assert calib.flops_per_s > 0
        assert calib.n_steps == 20
        _rows, totals = predicted_vs_measured(calib, traces[6])
        # Self-calibration: flops phases predict exactly, per-call
        # phases exactly, so the total error collapses to ~0.
        assert abs(totals["error_pct"]) < 1e-6
        assert totals["coverage"] == pytest.approx(1.0)

    def test_recovers_planted_rates_from_synthetic_trace(self):
        """Deterministic stand-in for the wall-clock cross-resolution bar
        (now benchmarks/test_table_extrapolation.py): a hand-built trace
        with a planted flop rate and comm latency/bandwidth must be
        recovered exactly, and predict itself with zero error."""
        from repro.obs.tracer import SpanRecord
        from repro.perf.calibrate import (
            calibrate,
            predicted_vs_measured,
            render_predicted_vs_measured,
        )

        rate, lat, bw = 2.0e9, 1.0e-4, 1.0e8
        spans = [("kernel.elastic", {"flops": 6.0e9}, 6.0e9 / rate)] + [
            (name, {"messages": m, "bytes": nbytes}, m * lat + nbytes / bw)
            for name, m, nbytes in (
                ("halo.post", 40.0, 2.0e6), ("halo.wait", 10.0, 8.0e6),
            )
        ]
        records, start = [], 0.0
        for name, counters, duration in spans:
            records.append(SpanRecord(name, start, duration, 0, -1, 0, 0, counters))
            start += duration
        calib = calibrate(records)
        assert calib.flops_per_s == pytest.approx(rate, rel=1e-12)
        assert calib.comm_latency_s == pytest.approx(lat, rel=1e-9)
        assert calib.comm_bytes_per_s == pytest.approx(bw, rel=1e-9)
        rows, totals = predicted_vs_measured(calib, records)
        assert abs(totals["error_pct"]) < 1e-6
        assert totals["coverage"] == pytest.approx(1.0)
        table = render_predicted_vs_measured(rows, totals)
        assert "total (modeled)" in table
        assert "kernel.elastic" in table

    def test_extrapolate_calibrated_paper_scale(self, traces):
        from repro.perf.calibrate import calibrate, extrapolate_calibrated
        from repro.perf.machines import RANGER

        calib = calibrate(traces[6])
        pred = extrapolate_calibrated(calib, RANGER, nex_xi=1152,
                                      nproc_xi=32)
        assert pred.nproc_total == constants.NCHUNKS * 32**2
        assert pred.wall_time_s > 0
        assert 0.0 < pred.comm_fraction < 1.0
        assert "calibrated" in pred.machine

    def test_extrapolate_requires_flops(self):
        from repro.perf.calibrate import calibrate, extrapolate_calibrated
        from repro.perf.machines import RANGER

        tr = Tracer(pid=0)
        with tr.span("io.only"):
            pass
        calib = calibrate(tr.records)
        with pytest.raises(ValueError, match="no flops"):
            extrapolate_calibrated(calib, RANGER, 256, 8)

    def test_cli_runs_on_exported_trace(self, traces, tmp_path, capsys):
        from repro.obs.export import write_jsonl
        from repro.perf.calibrate import main
        from repro.obs.tracer import SpanRecord

        path = tmp_path / "calib.jsonl"
        write_jsonl(path, records=traces[6])
        assert main([str(path), "--extrapolate", "ranger", "256", "8"]) == 0
        out = capsys.readouterr().out
        assert "calibrated from" in out
        assert "extrapolation" in out
        del SpanRecord  # imported only to assert availability
