"""Element-block lanes: a serial solver's force kernel on every CPU.

* ``TestBitIdentity`` — one lane against several (forced by patching the
  CPU count, :func:`repro.config.cpus.run_slot_count`) gives byte-identical
  seismograms and memory variables: serial attenuated, B = 4 batched,
  and TI + attenuation + rotation + gravity.
* ``TestAccounting`` — ``compute_cpu_s`` keeps the helpers' CPU, and a
  traced run keeps one ``kernel.attenuation`` span per block, each under
  its kernel span, whichever lane ran it.
* ``TestLifetime`` — no lane outlives its run: a run stopped by its wall
  limit and a run whose lane raises both surface the error on the
  caller, leave no thread of theirs alive and give every token back.
* ``TestBudget`` — one process-wide budget of ``k - 1`` helper tokens;
  a solver with a halo exchanger has no lanes and reserves no helper
  workspace.
"""

import threading
import time

import numpy as np
import pytest

from repro.apps import default_source, default_stations
from repro.apps.merged_app import run_global_simulation
from repro.config import constants, cpus
from repro.config.parameters import SimulationParameters
from repro.kernels import weakform
from repro.mesh import build_global_mesh
from repro.model.prem import RegionCode
from repro.solver import GlobalSolver, MomentTensorSource, gaussian_stf
from repro.solver.attenuation import AttenuationState
from repro.solver.lanes import HELPERS, HelperBudget


def params_of(**overrides):
    defaults = dict(
        nex_xi=4, nproc_xi=1, ner_crust_mantle=3, ner_outer_core=2,
        ner_inner_core=1, nstep_override=12, attenuation=True,
    )
    defaults.update(overrides)
    return SimulationParameters(**defaults)


def explosion(depth_km: float):
    return MomentTensorSource(
        position=(0.0, 0.0, constants.R_EARTH_KM - depth_km),
        moment=1e20 * np.eye(3), stf=gaussian_stf(15.0), time_shift=40.0,
    )


@pytest.fixture
def lanes(monkeypatch):
    """Set the CPU count solvers built and run from now on see."""

    def patch(k: int) -> None:
        monkeypatch.setattr(cpus, "run_slot_count", lambda: k)

    return patch


def run(params, lanes, k, **kwargs):
    """A fresh solver on ``k`` lanes, run to the end: (solver, result)."""
    lanes(k)
    solver = GlobalSolver(
        build_global_mesh(params), params, stations=default_stations(), **kwargs
    )
    return solver, solver.run()


def state_bytes(solver, result) -> list[bytes]:
    return [result.seismograms.tobytes()] + [
        atten.zeta.tobytes() for atten in solver.attenuation.values()
    ]


def lane_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("lane-")]


# ------------------------------------------------------------ bit identity


class TestBitIdentity:
    @pytest.mark.parametrize("k", [2, 3])
    def test_serial_attenuated(self, lanes, k):
        params = params_of()
        one = state_bytes(*run(params, lanes, 1, sources=[explosion(150.0)]))
        many = state_bytes(*run(params, lanes, k, sources=[explosion(150.0)]))
        assert len(one) == 3 and one == many

    def test_batched_attenuated(self, lanes):
        params = params_of()
        events = [[explosion(d)] for d in (80.0, 150.0, 300.0, 600.0)]
        one = state_bytes(*run(params, lanes, 1, event_sources=events))
        solver, result = run(params, lanes, 2, event_sources=events)
        assert result.seismograms.shape[0] == 4
        assert state_bytes(solver, result) == one

    def test_ti_attenuation_rotation_gravity(self, lanes):
        params = params_of(
            transverse_isotropy=True, rotation=True, gravity=True, nstep_override=8
        )
        one = state_bytes(*run(params, lanes, 1, sources=[explosion(150.0)]))
        solver, result = run(params, lanes, 2, sources=[explosion(150.0)])
        assert solver.regions[RegionCode.CRUST_MANTLE].mesh.ti_moduli is not None
        assert state_bytes(solver, result) == one

    def test_every_region_has_a_subset_split_across_lanes(self, lanes):
        # The cases above exercise the split: at NEX 4 the solid regions
        # span several kernel blocks.
        lanes(2)
        solver = GlobalSolver(build_global_mesh(params_of()), params_of())
        blocks = {
            view.code: view.operator.nblocks
            for _, before, after in solver._rounds
            for view in (*before, *after)
        }
        assert all(blocks[code] >= 2 for code in solver.solid_codes)


# ------------------------------------------------------------- accounting


class TestAccounting:
    def test_compute_cpu_keeps_the_helpers_cpu(self, lanes, monkeypatch):
        # Every kernel call's own thread CPU, by thread: compute_cpu_s
        # must hold at least the caller's calls plus the helpers'.
        spent: dict[int, float] = {}
        lock = threading.Lock()
        apply = weakform.StiffnessOperator.apply

        def timed(self, *args):
            t0 = time.thread_time()
            apply(self, *args)
            with lock:
                me = threading.get_ident()
                spent[me] = spent.get(me, 0.0) + time.thread_time() - t0

        monkeypatch.setattr(weakform.StiffnessOperator, "apply", timed)
        solver, result = run(params_of(), lanes, 2, sources=[explosion(150.0)])
        caller = spent.pop(threading.get_ident())
        helpers = sum(spent.values())
        assert helpers > 0.0
        assert result.timings.compute_cpu_s >= caller + helpers
        assert solver._lanes.helper_cpu_s >= helpers

    def test_traced_run_keeps_one_attenuation_span_per_block(self, lanes):
        lanes(2)
        params = params_of(nstep_override=3)
        result = run_global_simulation(
            params, sources=[explosion(150.0)], stations=default_stations(),
            trace=True,
        )
        solver, records = result.solver, result.tracer.records
        blocks = sum(
            view.operator.nblocks
            for _, before, after in solver._rounds
            for view in (*before, *after)
            if view.code in solver.attenuation
        )
        spans = [r for r in records if r.name == "kernel.attenuation"]
        assert len(spans) == blocks * solver.batch * 3
        assert {r.tid for r in spans} == {records[0].tid, 1}
        for i, r in enumerate(records):
            assert -1 <= r.parent < i
            if r.parent >= 0:
                assert r.depth == records[r.parent].depth + 1
        assert all(records[r.parent].name == "kernel.elastic" for r in spans)


# --------------------------------------------------------------- lifetime


class TestLifetime:
    def test_wall_limit_joins_every_lane(self, lanes):
        lanes(2)
        before = set(threading.enumerate())
        with pytest.raises(TimeoutError):
            run_global_simulation(
                params_of(nstep_override=2000), sources=[default_source()],
                stations=default_stations(), timeout_s=0.3,
            )
        assert not set(threading.enumerate()) - before
        assert not lane_threads() and HELPERS.taken == 0

    def test_error_on_a_lane_reraises_on_the_caller(self, lanes, monkeypatch):
        relax = AttenuationState.relax

        def failing(self, strain, rows, scratch):
            if threading.current_thread().name.startswith("lane-"):
                raise FloatingPointError("relax failed on a lane")
            return relax(self, strain, rows, scratch)

        monkeypatch.setattr(AttenuationState, "relax", failing)
        before = set(threading.enumerate())
        with pytest.raises(FloatingPointError, match="on a lane"):
            run(params_of(), lanes, 2, sources=[explosion(150.0)])
        assert not set(threading.enumerate()) - before
        assert not lane_threads() and HELPERS.taken == 0


# ----------------------------------------------------------------- budget


class TestBudget:
    def test_runs_share_k_minus_one_tokens(self, lanes):
        lanes(3)
        budget = HelperBudget()
        first, second = budget.take(5), budget.take(1)
        assert len(first) == 2 and second == []
        budget.give(first[:1])
        third = budget.take(4)
        assert third == first[:1] and budget.taken == 2
        budget.give(first[1:] + third)
        assert budget.taken == 0 and budget.made == 2

    def test_a_run_holds_its_tokens_only_while_it_runs(self, lanes):
        lanes(2)
        held = []
        solver = GlobalSolver(
            build_global_mesh(params_of()), params_of(nstep_override=2),
            sources=[explosion(150.0)],
        )
        solver.run(callbacks=[lambda step, s: held.append(HELPERS.taken)])
        assert held == [1, 1] and HELPERS.taken == 0

    def test_a_solver_with_an_exchanger_has_no_lanes(self, lanes):
        class Exchanger:
            merge_regions = True

            def assemble(self, arrays):
                pass

        lanes(4)
        made = HELPERS.made
        solver = GlobalSolver(
            build_global_mesh(params_of()), params_of(nstep_override=2),
            exchanger=Exchanger(),
        )
        seen = []
        solver.run(
            callbacks=[lambda step, s: seen.append((lane_threads(), HELPERS.taken))]
        )
        assert seen == [([], 0), ([], 0)] and HELPERS.made == made
