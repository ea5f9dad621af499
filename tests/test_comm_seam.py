"""The communicator seam: fault plan, comm sanitizer and failure detector
consulted by one ``VirtualComm`` in one fixed order.

Two groups:

* ``TestChaosKeepsSanitizerTracking`` — arming an (empty) fault plan must
  not change what the sanitizer reports.  Each program is run sanitized
  once without a plan and once with ``FaultPlan([])``; both runs must
  name the same violation kinds.
* ``TestAllThreeArmed`` — fault plan, sanitizer and detector together,
  pinning the order documented in :mod:`repro.parallel.comm`: chaos
  decides first, then the sanitizer records, then the detector beats,
  then the mailbox.
"""

import time

import numpy as np
import pytest

from repro.chaos import FaultPlan, FaultSpec
from repro.parallel import VirtualCluster
from repro.parallel.errors import RankTimeoutError
from repro.resilience import FailureDetector


def _leaked_isend(comm):
    if comm.rank == 0:
        comm.isend(1, np.ones(4), tag=99)  # never waited, never received


def _ambiguous_irecvs(comm):
    if comm.rank == 0:
        comm.send(1, np.ones(2), tag=5)
        comm.send(1, np.ones(2), tag=5)
    else:
        first = comm.irecv(0, tag=5)
        second = comm.irecv(0, tag=5)  # identical to `first`, both pending
        comm.waitall([first, second])


def _double_wait(comm):
    if comm.rank == 0:
        comm.send(1, np.ones(2), tag=9)
    else:
        req = comm.irecv(0, tag=9)
        req.wait()
        req.wait()


class TestChaosKeepsSanitizerTracking:
    @pytest.mark.parametrize(
        "program, kinds",
        [
            (_leaked_isend, {"leaked-request", "unmatched-send"}),
            (_ambiguous_irecvs, {"tag-collision"}),
            (_double_wait, {"double-wait"}),
        ],
        ids=["leaked-isend", "tag-collision", "double-wait"],
    )
    def test_empty_fault_plan_reports_the_same_kinds(self, program, kinds):
        plain = VirtualCluster(2, recv_timeout_s=5.0, sanitize=True)
        plain.run(program, timeout=30)
        armed = VirtualCluster(
            2, recv_timeout_s=5.0, sanitize=True, fault_plan=FaultPlan([])
        )
        armed.run(program, timeout=30)
        assert plain.sanitizer_report.kinds() == kinds
        assert armed.sanitizer_report.kinds() == kinds


def _all_three(plan, recv_timeout_s=5.0):
    detector = FailureDetector(2, suspect_after_s=10)
    cluster = VirtualCluster(
        2,
        recv_timeout_s=recv_timeout_s,
        fault_plan=plan,
        sanitize=True,
        failure_detector=detector,
    )
    return cluster, detector


class TestAllThreeArmed:
    def test_duplicate_is_one_unmatched_send(self):
        plan = FaultPlan([FaultSpec(kind="duplicate", rank=0, op="send")])
        cluster, _ = _all_three(plan)

        def program(comm):
            if comm.rank == 0:
                comm.send(1, np.arange(3.0), tag=3)
                return None
            return comm.recv(0, tag=3)

        results = cluster.run(program, timeout=30)
        np.testing.assert_array_equal(results[1], np.arange(3.0))
        kinds = [f.kind for f in cluster.sanitizer_report.findings]
        assert kinds == ["unmatched-send"]

    def test_drop_times_out_with_one_timeout_finding(self):
        plan = FaultPlan([FaultSpec(kind="drop", rank=0, op="send")])
        cluster, detector = _all_three(plan, recv_timeout_s=0.5)

        def program(comm):
            if comm.rank == 0:
                comm.send(1, np.arange(3.0), tag=3)
                return None
            return comm.recv(0, tag=3)

        with pytest.raises(RankTimeoutError):
            cluster.run(program, timeout=30)
        findings = cluster.sanitizer_report.findings
        assert [(f.kind, f.rank) for f in findings] == [("timeout", 1)]
        assert detector.report_of(0) is None  # a straggler, not a death

    def test_delay_spans_probe_slices_without_findings(self):
        plan = FaultPlan(
            [FaultSpec(kind="delay", rank=0, op="send", delay_s=0.3)]
        )
        cluster, detector = _all_three(plan)

        def program(comm):
            if comm.rank == 0:
                # Let rank 1 block first, so its whole wait covers the delay.
                time.sleep(0.05)
                comm.send(1, np.arange(3.0), tag=3)
                return None
            return comm.recv(0, tag=3)

        results = cluster.run(program, timeout=30)
        np.testing.assert_array_equal(results[1], np.arange(3.0))
        assert cluster.sanitizer_report.clean
        assert cluster.stats[1].messages_received == 1
        assert cluster.stats[1].comm_time_s >= 0.3
        assert detector.reports == []

    def test_crashed_peer_is_reported_well_inside_the_deadline(self):
        cluster, detector = _all_three(FaultPlan([]), recv_timeout_s=20.0)

        def program(comm):
            if comm.rank == 0:
                raise RuntimeError("boom")
            return comm.recv(0, tag=3)

        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match="boom"):
            cluster.run(program, timeout=60)
        assert time.perf_counter() - t0 < 5.0
        assert [(r.rank, r.kind) for r in detector.reports] == [(0, "crash")]
        assert cluster.sanitizer_report.clean
