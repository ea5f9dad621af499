"""A rank's own receive expiry is no rank's death.

When a receive expires while its sender's heartbeat is fresh (a lost
message or a straggler), the receiver raises
:class:`~repro.parallel.errors.RankTimeoutError`.  That is the "dead vs.
straggler" rule of docs/resilience.md: the failure detector files
nothing, ``VirtualCluster.run`` still re-raises the receiver's error, and
a supervised run recovers from it with a ``timeout`` event and no report.
"""

import numpy as np
import pytest

from repro.apps import default_source, default_stations
from repro.chaos import FaultPlan, FaultSpec
from repro.config.parameters import SimulationParameters
from repro.obs.metrics import MetricsRegistry
from repro.parallel import VirtualCluster
from repro.parallel.errors import RankTimeoutError
from repro.parallel.launcher import run_distributed_simulation
from repro.resilience import FailureDetector, RecoveryPolicy, RunSupervisor


def test_dropped_send_files_no_death():
    detector = FailureDetector(2, suspect_after_s=10)
    cluster = VirtualCluster(
        2,
        recv_timeout_s=0.3,
        fault_plan=FaultPlan([FaultSpec(kind="drop", rank=0, op="send")]),
        failure_detector=detector,
    )

    def program(comm):
        if comm.rank == 0:
            comm.send(1, np.arange(3.0), tag=3)
            return None
        return comm.recv(0, tag=3)

    with pytest.raises(RankTimeoutError) as info:
        cluster.run(program, timeout=30)
    assert info.value.failed_rank == 1
    assert detector.reports == []


def test_supervised_drop_recovers_as_a_timeout():
    params = SimulationParameters(
        nex_xi=4, nproc_xi=1, ner_crust_mantle=2, ner_outer_core=1,
        ner_inner_core=1, nstep_override=10,
    )
    kwargs = dict(sources=[default_source()], stations=default_stations())
    reference = run_distributed_simulation(params, **kwargs)
    metrics = MetricsRegistry()
    supervisor = RunSupervisor(
        policy=RecoveryPolicy(max_recoveries=2, suspect_after_s=1.0),
        metrics=metrics,
    )
    supervised = supervisor.run(
        params,
        recv_timeout_s=0.5,
        timeout_s=300.0,
        fault_plan=FaultPlan(
            [FaultSpec(kind="drop", rank=2, op="send", after_matches=20)]
        ),
        **kwargs,
    )
    assert supervised.reports == []
    [event] = supervised.recoveries
    assert event.kind == "timeout"
    assert metrics.counter("resilience.deaths").value == 0
    np.testing.assert_array_equal(
        supervised.result.seismograms, reference.seismograms
    )
