"""Segmented checkpoint–restart: bit-identity, crash-safety, versioning.

The campaign executor chains queue jobs through checkpoints, so this
file proves the properties that chain rests on: a run split into >= 3
segments (with attenuation on and the fluid outer core marching) equals
the uninterrupted run bit-for-bit *including seismograms*; checkpoint
writes are atomic (no truncated file can block a restart, no temp litter
survives); truncated or corrupt files are rejected loudly with
:class:`CheckpointError`; only format v5 is read, any other version is
rejected; and the dt comparison tolerates the dt == 0 edge case.
"""

import numpy as np
import pytest

from repro.apps.merged_app import run_global_simulation
from repro.chaos.integrity import flip_bit, read_record, write_record
from repro.config import constants
from repro.config.parameters import SimulationParameters
from repro.mesh import build_global_mesh
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.parallel.launcher import segment_boundaries
from repro.solver import (
    CheckpointError,
    GlobalSolver,
    MomentTensorSource,
    Station,
    gaussian_stf,
    load_checkpoint,
    save_checkpoint,
)


@pytest.fixture(scope="module")
def params():
    return SimulationParameters(
        nex_xi=4, nproc_xi=1, ner_crust_mantle=2, ner_outer_core=1,
        ner_inner_core=1, nstep_override=12, attenuation=True,
    )


@pytest.fixture(scope="module")
def mesh(params):
    return build_global_mesh(params)


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


def make_solver(mesh, params, stations=True):
    st = demo_stations() if stations else None
    return GlobalSolver(mesh, params, sources=[demo_source()], stations=st)


def _rewrite_record(path, mutate):
    """Load a checkpoint's arrays, apply ``mutate(dict)``, write back.

    The record is rewritten through the shared codec, so every CRC32 is
    fresh: these rewrites simulate *format variants*, not on-disk
    corruption — the corruption tests live in ``tests/test_chaos.py``.
    """
    magic = path.read_bytes()[:8]
    arrays, meta = read_record(path, magic)
    mutate(arrays)
    write_record(path, magic, arrays, meta)


# ---------------------------------------------------------------- boundaries


class TestSegmentBoundaries:
    def test_cover_exactly_once(self):
        for n_steps, n_segments in ((12, 3), (10, 4), (7, 7), (5, 1)):
            bounds = segment_boundaries(n_steps, n_segments)
            assert bounds[0][0] == 0 and bounds[-1][1] == n_steps
            for (_, a_stop), (b_start, _) in zip(bounds, bounds[1:]):
                assert a_stop == b_start
            assert all(stop > start for start, stop in bounds)

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            segment_boundaries(0, 1)
        with pytest.raises(ValueError):
            segment_boundaries(5, 6)
        with pytest.raises(ValueError):
            segment_boundaries(5, 0)


# -------------------------------------------------------------- bit-identity


class TestSegmentedBitIdentity:
    def test_three_segments_match_single_run(self, mesh, params):
        """3 checkpointed segments == 1 uninterrupted run, bit-for-bit.

        Attenuation memory variables and the fluid outer core are live,
        so every piece of checkpointed state is exercised.
        """
        straight = make_solver(mesh, params)
        straight.run()

        seg = run_global_simulation(
            params,
            sources=[demo_source()],
            stations=demo_stations(),
            n_segments=3,
            mesh=mesh,
        )
        assert seg.n_segments == 3
        assert [s.steps for s in seg.segments] == [4, 4, 4]
        np.testing.assert_array_equal(
            straight.receiver_set.data, seg.seismograms
        )
        assert np.abs(seg.seismograms).max() > 0
        for code in straight.solid_codes:
            np.testing.assert_array_equal(
                straight.solid[code].displ, seg.solver.solid[code].displ
            )
            np.testing.assert_array_equal(
                straight.solid[code].veloc, seg.solver.solid[code].veloc
            )
        np.testing.assert_array_equal(
            straight.fluid.chi, seg.solver.fluid.chi
        )
        for code in straight.attenuation:
            np.testing.assert_array_equal(
                straight.attenuation[code].zeta,
                seg.solver.attenuation[code].zeta,
            )

    def test_uneven_split_also_matches(self, mesh, params):
        straight = make_solver(mesh, params)
        straight.run()
        seg = run_global_simulation(
            params,
            sources=[demo_source()],
            stations=demo_stations(),
            n_segments=5,  # 12 steps -> uneven 2/3/2/3/2 split
            mesh=mesh,
        )
        assert sum(s.steps for s in seg.segments) == 12
        np.testing.assert_array_equal(
            straight.receiver_set.data, seg.seismograms
        )

    def test_checkpoints_kept_when_requested(self, mesh, params, tmp_path):
        seg = run_global_simulation(
            params,
            sources=[demo_source()],
            stations=demo_stations(),
            n_segments=3,
            mesh=mesh,
            checkpoint_dir=tmp_path,
        )
        kept = sorted(p.name for p in tmp_path.glob("*.ckpt"))
        assert kept == ["step_00000004.ckpt", "step_00000008.ckpt"]
        assert seg.segments[-1].checkpoint is None


class TestReusedCheckpointDir:
    def test_stale_checkpoints_are_never_restored(self, mesh, params, tmp_path):
        """Only steps this call wrote are restore candidates: another
        run's ``step_*.ckpt`` in a reused directory stay untouched."""
        other = MomentTensorSource(
            position=(0.0, 0.0, constants.R_EARTH_KM - 300.0),
            moment=3e20 * np.eye(3),
            stf=gaussian_stf(10.0),
            time_shift=3.0,
        )
        run_global_simulation(  # leaves steps 3, 6 and 9 behind
            params, sources=[other], stations=demo_stations(), n_segments=4,
            mesh=mesh, checkpoint_dir=tmp_path,
        )
        stale = {p.name: p.read_bytes() for p in tmp_path.glob("*.ckpt")}
        assert sorted(stale) == [
            "step_00000003.ckpt", "step_00000006.ckpt", "step_00000009.ckpt"
        ]
        straight = make_solver(mesh, params)
        straight.run()

        def corrupt(index, path):
            flip_bit(path, bit=8 * (path.stat().st_size // 2))

        with pytest.warns(UserWarning, match="falling back"):
            seg = run_global_simulation(
                params, sources=[demo_source()], stations=demo_stations(),
                n_segments=3, mesh=mesh, checkpoint_dir=tmp_path,
                on_checkpoint=corrupt,
            )
        # Both of this call's checkpoints were rejected: cold restarts,
        # never the older stale steps.
        np.testing.assert_array_equal(
            straight.receiver_set.data, seg.seismograms
        )
        assert {n: (tmp_path / n).read_bytes() for n in stale} == stale


class TestOneRunFunction:
    """``run_global_simulation`` is the one serial runner: one segment is
    the plain run, more are the checkpointed chain."""

    def test_one_segment_is_the_plain_run(self, mesh, params, tmp_path,
                                          monkeypatch):
        def no_temp_dir(*args, **kwargs):
            raise AssertionError("a one-segment run made a checkpoint dir")

        monkeypatch.setattr("tempfile.mkdtemp", no_temp_dir)
        tracer, metrics = Tracer(pid=0), MetricsRegistry()
        run = run_global_simulation(
            params, sources=[demo_source()], stations=demo_stations(),
            n_steps=3, mesh=mesh, tracer=tracer, metrics=metrics,
            checkpoint_dir=tmp_path / "unused",
        )
        assert not (tmp_path / "unused").exists()
        assert [s.steps for s in run.segments] == [3]
        assert run.segments[0].checkpoint is None
        # The spans and counters of the solver alone, plus the mesh reuse.
        bare_tracer, bare_metrics = Tracer(pid=0), MetricsRegistry()
        GlobalSolver(
            mesh, params, sources=[demo_source()], stations=demo_stations(),
            tracer=bare_tracer, metrics=bare_metrics,
        ).run(n_steps=3)
        assert [r.name for r in tracer.records] == [
            r.name for r in bare_tracer.records
        ]
        assert set(metrics.counters) == set(bare_metrics.counters) | {
            "mesher.reused"
        }
        assert metrics.counter("solver.steps").value == 3

    def test_segmented_run_checks_the_mesh(self, mesh, params):
        other = params.with_updates(ner_crust_mantle=3)
        with pytest.raises(ValueError, match="mesh-incompatible"):
            run_global_simulation(
                other, sources=[demo_source()], n_segments=3, mesh=mesh,
            )

    def test_energy_needs_one_segment(self, mesh, params):
        with pytest.raises(ValueError, match="track_energy"):
            run_global_simulation(
                params, sources=[demo_source()], n_segments=2, mesh=mesh,
                track_energy=True,
            )


# -------------------------------------------------------------- crash-safety


class TestCrashSafeCheckpoint:
    def test_no_temp_litter_after_save(self, mesh, params, tmp_path):
        solver = make_solver(mesh, params, stations=False)
        save_checkpoint(solver, tmp_path / "state.ckpt", step=0)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["state.ckpt"]

    def test_save_over_existing_is_atomic(self, mesh, params, tmp_path):
        """A re-save replaces the old checkpoint in one rename."""
        solver = make_solver(mesh, params, stations=False)
        path = save_checkpoint(solver, tmp_path / "state.ckpt", step=0)
        first = path.read_bytes()
        solver._one_step(0.0)
        save_checkpoint(solver, path, step=1)
        assert path.read_bytes() != first
        fresh = make_solver(mesh, params, stations=False)
        assert load_checkpoint(fresh, path) == 1

    def test_truncated_checkpoint_rejected(self, mesh, params, tmp_path):
        solver = make_solver(mesh, params, stations=False)
        path = save_checkpoint(solver, tmp_path / "state.ckpt", step=5)
        whole = path.read_bytes()
        for fraction in (0.25, 0.5, 0.9):
            path.write_bytes(whole[: int(len(whole) * fraction)])
            fresh = make_solver(mesh, params, stations=False)
            with pytest.raises(CheckpointError):
                load_checkpoint(fresh, path)

    def test_garbage_checkpoint_rejected(self, mesh, params, tmp_path):
        path = tmp_path / "state.ckpt"
        path.write_bytes(b"this is not an npz archive at all")
        solver = make_solver(mesh, params, stations=False)
        with pytest.raises(CheckpointError):
            load_checkpoint(solver, path)

    def test_missing_header_rejected(self, mesh, params, tmp_path):
        solver = make_solver(mesh, params, stations=False)
        path = save_checkpoint(solver, tmp_path / "state.ckpt", step=0)

        def replace_all(arrays):
            arrays.clear()
            arrays["unrelated"] = np.zeros(3)

        _rewrite_record(path, replace_all)
        with pytest.raises(CheckpointError):
            load_checkpoint(solver, path)

    def test_missing_field_array_rejected(self, mesh, params, tmp_path):
        solver = make_solver(mesh, params, stations=False)
        path = save_checkpoint(solver, tmp_path / "state.ckpt", step=0)
        code = solver.solid_codes[0]
        _rewrite_record(path, lambda a: a.pop(f"displ_{code}"))
        fresh = make_solver(mesh, params, stations=False)
        with pytest.raises(CheckpointError):
            load_checkpoint(fresh, path)


# ------------------------------------------------------------ format/versions


class TestCheckpointFormat:
    def test_v2_missing_seis_with_receivers_rejected(
        self, mesh, params, tmp_path
    ):
        solver = make_solver(mesh, params)
        path = save_checkpoint(solver, tmp_path / "state.ckpt", step=0)

        def drop_seis(arrays):
            for name in ("seis_data", "seis_step", "seis_n_steps"):
                arrays.pop(name)

        _rewrite_record(path, drop_seis)
        fresh = make_solver(mesh, params)
        with pytest.raises(ValueError, match="no seismogram buffers"):
            load_checkpoint(fresh, path)

    def test_unknown_version_rejected(self, mesh, params, tmp_path):
        solver = make_solver(mesh, params, stations=False)
        path = save_checkpoint(solver, tmp_path / "state.ckpt", step=0)
        fresh = make_solver(mesh, params, stations=False)
        # v5 is the only readable format: older files are rejected too.
        for version in (99, 1, 2, 3, 4):
            _rewrite_record(path, lambda a: a.update(version=np.asarray(version)))
            with pytest.raises(ValueError, match=f"version {version}"):
                load_checkpoint(fresh, path)

    def test_seis_cursor_restored(self, mesh, params, tmp_path):
        solver = make_solver(mesh, params)
        result = solver.run(n_steps=12, start_step=0, stop_step=7)
        assert result is not None
        path = save_checkpoint(solver, tmp_path / "state.ckpt", step=7)
        fresh = make_solver(mesh, params)
        assert load_checkpoint(fresh, path) == 7
        assert fresh.receiver_set.step_cursor == 7
        np.testing.assert_array_equal(
            fresh.receiver_set.data, solver.receiver_set.data
        )


# ------------------------------------------------------------------- dt edge


class TestDtComparison:
    def test_zero_dt_both_sides_accepted(self, mesh, params, tmp_path):
        """Regression: dt == 0 on both sides must compare equal.

        The old ``abs(saved - dt) > 1e-12 * dt`` guard degenerated to a
        zero tolerance at dt == 0 yet also accepted *any* saved dt when
        the solver's dt was 0; math.isclose handles both directions.
        """
        solver = make_solver(mesh, params, stations=False)
        path = save_checkpoint(solver, tmp_path / "state.ckpt", step=0)
        _rewrite_record(path, lambda a: a.update(dt=np.asarray(0.0)))
        fresh = make_solver(mesh, params, stations=False)
        fresh.dt = 0.0
        assert load_checkpoint(fresh, path) == 0

    def test_zero_vs_nonzero_rejected(self, mesh, params, tmp_path):
        solver = make_solver(mesh, params, stations=False)
        path = save_checkpoint(solver, tmp_path / "state.ckpt", step=0)
        fresh = make_solver(mesh, params, stations=False)
        fresh.dt = 0.0
        with pytest.raises(ValueError, match="dt"):
            load_checkpoint(fresh, path)
        _rewrite_record(path, lambda a: a.update(dt=np.asarray(0.0)))
        other = make_solver(mesh, params, stations=False)
        with pytest.raises(ValueError, match="dt"):
            load_checkpoint(other, path)

    def test_tiny_relative_jitter_accepted(self, mesh, params, tmp_path):
        solver = make_solver(mesh, params, stations=False)
        path = save_checkpoint(solver, tmp_path / "state.ckpt", step=0)
        fresh = make_solver(mesh, params, stations=False)
        fresh.dt = solver.dt * (1.0 + 1e-15)  # below rel_tol=1e-12
        assert load_checkpoint(fresh, path) == 0

    def test_real_mismatch_still_rejected(self, mesh, params, tmp_path):
        solver = make_solver(mesh, params, stations=False)
        path = save_checkpoint(solver, tmp_path / "state.ckpt", step=0)
        fresh = make_solver(mesh, params, stations=False)
        fresh.dt *= 1.5
        with pytest.raises(ValueError, match="dt"):
            load_checkpoint(fresh, path)


# -------------------------------------------------------------- resume guard


class TestResumeGuards:
    def test_resume_cannot_silently_wipe_receivers(self, mesh, params):
        """Re-running with a different horizon mid-resume must fail, not
        silently reallocate (and zero) the restored seismogram buffers."""
        solver = make_solver(mesh, params)
        solver.run(n_steps=12, start_step=0, stop_step=6)
        with pytest.raises(ValueError):
            solver.run(n_steps=20, start_step=6, stop_step=12)

    def test_step_cursor_validation(self, mesh, params):
        solver = make_solver(mesh, params)
        rs = solver.receiver_set
        with pytest.raises(ValueError):
            rs.step_cursor = -1
        with pytest.raises(ValueError):
            rs.step_cursor = rs.n_steps + 1
        rs.step_cursor = 0

    def test_bad_step_range_rejected(self, mesh, params):
        solver = make_solver(mesh, params, stations=False)
        with pytest.raises(ValueError):
            solver.run(n_steps=12, start_step=8, stop_step=4)
        with pytest.raises(ValueError):
            solver.run(n_steps=12, start_step=-1)
        with pytest.raises(ValueError):
            solver.run(n_steps=12, start_step=0, stop_step=13)
