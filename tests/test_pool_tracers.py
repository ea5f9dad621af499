"""Each worker of a traced ``WorkerPool.run`` records into its own run's
tracer, also when two runs overlap (the service's two backend threads
share one pool).

``pool.tracers`` keeps meaning "the tracers of the last run", so a
concurrent run replaces it while an earlier one is still working.  The
pool below lets a worker thread read ``tracers`` only after both runs
have assigned theirs: the widest window in which a worker that looked
its tracer up on the pool would pick up the other run's.
"""

import threading

from repro.campaign import JobSpec, MeshCache, RetryPolicy, WorkerPool
from repro.config.parameters import SimulationParameters


class _LateReadPool(WorkerPool):
    def __init__(self, **kw):
        self.assigned: list[list] = []
        self._both_assigned = threading.Event()
        super().__init__(**kw)
        self.assigned.clear()  # the constructor's empty list

    @property
    def tracers(self):
        if threading.current_thread().name.startswith("campaign-worker-"):
            self._both_assigned.wait(timeout=5.0)
        return self._tracers

    @tracers.setter
    def tracers(self, value):
        self._tracers = value
        self.assigned.append(value)
        if len(self.assigned) >= 2:
            self._both_assigned.set()


def _runner(jobs, mesh, tracer, metrics, deadline):
    return [{"seismograms": None, "dt": 0.1} for _job in jobs]


def test_overlapping_traced_runs_keep_their_own_tracers():
    params = SimulationParameters(
        nex_xi=4, nproc_xi=1, ner_crust_mantle=2, ner_outer_core=1,
        ner_inner_core=1, nstep_override=4,
    )
    pool = _LateReadPool(
        n_workers=1,
        trace=True,
        runner=_runner,
        mesh_cache=MeshCache(builder=lambda _params: object()),
        retry_policy=RetryPolicy(max_attempts=1),
    )
    results = {}

    def run(name):
        results[name] = pool.run([JobSpec(name=name, params=params)])

    threads = [threading.Thread(target=run, args=(n,)) for n in ("a", "b")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30)
    assert not any(t.is_alive() for t in threads)
    assert all(r[0].succeeded for r in results.values())
    assert len(pool.assigned) == 2
    for tracers in pool.assigned:
        names = [r.name for tracer in tracers for r in tracer.records]
        assert names.count("campaign.job") == 1
    assert pool.tracers is pool.assigned[-1]
