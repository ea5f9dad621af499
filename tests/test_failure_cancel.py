"""A failed rank stops its run: the one cancel path of every cluster run.

* ``TestFailureCancelsTheRun`` — when a rank's program raises, every peer
  is cancelled at its blocking point and :meth:`VirtualCluster.run`
  re-raises the failing rank's own exception at once, with no failure
  detector armed and long deadlines (before the cancel, a peer waiting
  in a receive sat out the whole deadline and the run reported the
  timeout instead of the cause).
* ``TestSixRankRuns`` — the same through ``run_distributed_simulation``
  and the run supervisor: a crash and a diverged rank surface as the
  failing rank's own cause, a supervised crash files exactly one death
  report and recovers bit-identically, and a stalled rank is filed
  ``unresponsive`` within the receive deadline while no rank that was
  only waiting on it is filed at all.
* ``TestFatalCauseThroughTheCampaign`` — a diverged rank of a supervised
  campaign job fails fast, classified ``fatal``, with the health
  snapshot in its record.
"""

import time

import numpy as np
import pytest

from repro.apps import default_source, default_stations
from repro.campaign import JobSpec, RetryPolicy, WorkerPool
from repro.chaos import FaultPlan, FaultSpec
from repro.chaos.faults import InjectedRankCrash
from repro.chaos.sentinel import NumericalHealthError
from repro.config.parameters import SimulationParameters
from repro.parallel import VirtualCluster
from repro.parallel.errors import RankDeathError, RankFailedError
from repro.parallel.launcher import prepare_world, run_distributed_simulation
from repro.resilience import FailureDetector, RecoveryPolicy, RunSupervisor


def tiny_params(**overrides):
    defaults = dict(
        nex_xi=4, nproc_xi=1, ner_crust_mantle=2, ner_outer_core=1,
        ner_inner_core=1, nstep_override=10,
    )
    defaults.update(overrides)
    return SimulationParameters(**defaults)


class TestFailureCancelsTheRun:
    @pytest.mark.parametrize(
        "recv_timeout_s,timeout", [(None, 2.0), (1.0, 30.0)],
        ids=["run-deadline", "recv-deadline"],
    )
    def test_peer_waiting_in_recv_gets_the_failing_rank_error(
        self, recv_timeout_s, timeout
    ):
        def program(comm):
            if comm.rank == 1:
                time.sleep(0.05)  # let rank 0 block first
                raise ValueError("rank 1 broke")
            return comm.recv(1, tag=3)  # never sent

        cluster = VirtualCluster(2, recv_timeout_s=recv_timeout_s)
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="rank 1 broke") as err:
            cluster.run(program, timeout=timeout)
        assert time.perf_counter() - t0 < 0.5
        assert err.value.failed_rank == 1

    def test_deadline_without_a_failure_is_still_a_timeout(self):
        cluster = VirtualCluster(2)
        with pytest.raises(TimeoutError, match="deadline"):
            cluster.run(lambda comm: comm.recv(1 - comm.rank, tag=3),
                        timeout=0.2)

    def test_waiting_rank_is_never_escalated(self):
        detector = FailureDetector(2, suspect_after_s=0.01)
        detector.waiting(1)
        time.sleep(0.03)
        assert detector.escalate_timeout(
            1, detected_by=0, deadline_s=0.03, op="recv(source=1, tag=3)"
        ) is None
        assert detector.status(1) == "alive"
        detector.beat(1)  # the receive ended
        time.sleep(0.03)
        assert detector.status(1) == "suspect"


class TestSixRankRuns:
    @pytest.mark.parametrize(
        "spec,overrides,cause",
        [
            (dict(kind="crash"), {}, InjectedRankCrash),
            (dict(kind="poison"), dict(health_check_every=1),
             NumericalHealthError),
        ],
        ids=["crash", "poison"],
    )
    def test_failing_rank_cause_surfaces_at_once(self, spec, overrides, cause):
        params = tiny_params(**overrides)
        world = prepare_world(
            params, sources=[default_source()], stations=default_stations()
        )
        plan = FaultPlan([FaultSpec(rank=2, step=2, **spec)])
        t0 = time.perf_counter()
        with pytest.raises(RankFailedError) as err:
            run_distributed_simulation(
                params, timeout_s=30, fault_plan=plan, world=world
            )
        assert time.perf_counter() - t0 < 1.0
        assert err.value.rank == 2
        assert isinstance(err.value.cause, cause)

    def test_supervised_crash_files_one_report_and_recovers(self):
        params = tiny_params()
        reference = run_distributed_simulation(
            params, sources=[default_source()], stations=default_stations(),
            timeout_s=120,
        )
        plan = FaultPlan([FaultSpec(kind="crash", rank=2, step=3)])
        supervisor = RunSupervisor(
            policy=RecoveryPolicy(suspect_after_s=1.0)
        )
        res = supervisor.run(
            params, sources=[default_source()], stations=default_stations(),
            recv_timeout_s=5.0, timeout_s=300.0, fault_plan=plan,
        )
        assert [(r.rank, r.kind) for r in res.reports] == [(2, "crash")]
        assert len(res.provenance()["death_reports"]) == 1
        assert res.n_recoveries == 1
        assert res.recoveries[0].resume_step == 2
        assert np.array_equal(reference.seismograms, res.result.seismograms)

    def test_stalled_rank_is_filed_unresponsive_and_nobody_else(self):
        params = tiny_params()
        world = prepare_world(
            params, sources=[default_source()], stations=default_stations()
        )
        # Rank 2 hangs in a send of its third step, long past every
        # deadline; its peers block on it, some of them on each other.
        plan = FaultPlan([FaultSpec(
            kind="stall", rank=2, op="send", after_matches=16, delay_s=60.0
        )])
        detector = FailureDetector(6, suspect_after_s=0.2)
        recv_timeout_s = 1.0
        t0 = time.perf_counter()
        with pytest.raises(RankDeathError) as err:
            run_distributed_simulation(
                params, timeout_s=60, recv_timeout_s=recv_timeout_s,
                fault_plan=plan, failure_detector=detector, world=world,
            )
        elapsed = time.perf_counter() - t0
        assert err.value.rank == 2
        assert [(r.rank, r.kind) for r in detector.reports] == [
            (2, "unresponsive")
        ]
        # Filed at the first expired receive; the cancel then ends the
        # stall, so the run does not wait out the 60 s.
        assert elapsed < recv_timeout_s + 2.0


class TestFatalCauseThroughTheCampaign:
    def test_rank_failure_with_a_fatal_cause_is_fatal(self):
        policy = RetryPolicy()
        diverged = NumericalHealthError("nan", snapshot=None)
        assert policy.classify(RankFailedError(2, diverged)) == "fatal"
        assert policy.classify(RankFailedError(2, RuntimeError())) == "transient"

    def test_diverged_rank_fails_the_job_fast_with_its_snapshot(self):
        job = JobSpec(
            name="diverged",
            params=tiny_params(health_check_every=1),
            sources=[default_source()],
            stations=default_stations(),
            supervise=True,
            fault_plan=FaultPlan(
                [FaultSpec(kind="poison", rank=2, step=2)]
            ),
            timeout_s=120,
        )
        result = WorkerPool(n_workers=1, sleep=lambda _s: None).run([job])[0]
        assert not result.succeeded
        assert result.attempts == 1
        assert result.failure_class == "fatal"
        assert result.health_snapshot is not None
        assert result.health_snapshot["rank"] == 2
