"""One wall limit per job attempt, enforced inside the run.

* A job that overruns its ``timeout_s`` stops itself — the serial run at
  a step boundary, the supervised one through the cluster's deadline —
  so once :meth:`WorkerPool.run` returns, no thread it started is alive.
* Two attempts of one job never overlap in time: a retry starts only
  after its predecessor has returned.
* ``RunSupervisor.run(timeout_s=T)`` is one deadline over all its
  epochs: it raises within T + one step + ``CANCEL_GRACE_S`` and
  recovers nothing, since an expired deadline is not a rank death.
"""

import threading
import time

import pytest

from repro.apps import default_source, default_stations
from repro.campaign import JobSpec, RetryPolicy, WorkerPool
from repro.campaign.workers import _default_runner
from repro.config.parameters import SimulationParameters
from repro.obs.metrics import MetricsRegistry
from repro.parallel import VirtualCluster
from repro.resilience import RecoveryPolicy, RunSupervisor

#: Steps of a run that takes seconds at NEX 4 (serial and 6 ranks); every
#: wall limit here is a fraction of that.
LONG_RUN_STEPS = 2000
#: A generous bound on one NEX 4 step (serial or one rank of six) on a
#: loaded 2-CPU host.
STEP_S = 0.25
LIMIT_S = 0.3


def long_params():
    return SimulationParameters(
        nex_xi=4, nproc_xi=1, ner_crust_mantle=2, ner_outer_core=1,
        ner_inner_core=1, nstep_override=LONG_RUN_STEPS,
    )


def long_job(**kw):
    return JobSpec(
        name="slow", params=long_params(), sources=[default_source()],
        stations=default_stations(), timeout_s=LIMIT_S, max_attempts=2, **kw,
    )


def pool(runner=None):
    return WorkerPool(
        n_workers=1,
        retry_policy=RetryPolicy(base_delay_s=0.0),
        runner=runner,
    )


@pytest.mark.parametrize("supervise", [False, True])
def test_timed_out_job_leaves_no_thread_alive(supervise):
    before = set(threading.enumerate())
    [result] = pool().run([long_job(supervise=supervise)])
    assert not result.succeeded
    assert result.attempts == 2
    assert "wall limit" in result.error
    assert result.failure_class == "transient"
    left = set(threading.enumerate()) - before
    assert not left, sorted(t.name for t in left)


def test_attempts_of_one_job_never_overlap():
    starts, ends = [], []

    def runner(*args):
        starts.append(time.monotonic())
        try:
            return _default_runner(*args)
        finally:
            ends.append(time.monotonic())

    [result] = pool(runner).run([long_job()])
    assert not result.succeeded and result.attempts == 2
    assert len(starts) == len(ends) == 2
    assert ends[0] <= starts[1]


def test_supervisor_deadline_covers_every_epoch():
    metrics = MetricsRegistry()
    supervisor = RunSupervisor(
        policy=RecoveryPolicy(max_recoveries=2), metrics=metrics
    )
    t0 = time.monotonic()
    with pytest.raises(TimeoutError):
        supervisor.run(
            long_params(), sources=[default_source()],
            stations=default_stations(), timeout_s=2 * LIMIT_S,
        )
    elapsed = time.monotonic() - t0
    assert elapsed < 2 * LIMIT_S + STEP_S + VirtualCluster.CANCEL_GRACE_S
    assert metrics.counter("resilience.epochs").value == 1
    assert metrics.counter("resilience.deaths").value == 0
    assert metrics.counter("resilience.recoveries").value == 0
