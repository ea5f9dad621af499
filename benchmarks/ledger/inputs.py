"""Seeded input generation: the program only ever sees what is made here.

The seed draws source depths and moment tensors, station positions and the
service's request order.  The problem size is *not* drawn: it is one value
for all workloads (`Sizes`), so their numbers are comparable and a second
seed measures the same work on other inputs.  Imports nothing from `repro`;
everything returned is plain data the adapter turns into program objects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

R_EARTH_KM = 6371.0
N_STATIONS = 4
N_CAMPAIGN_EVENTS = 5  # four batched + one two-segment job

#: Par_file-style keys of the common problem size (2048 elements at NEX 8).
MESH_KEYS = {"NER_CRUST_MANTLE": 2, "NER_OUTER_CORE": 1, "NER_INNER_CORE": 1}


@dataclass(frozen=True)
class Sizes:
    nex: int
    serial_steps: int
    cluster_steps: int
    campaign_steps: int
    service_steps: int
    elastic_steps: int  # extra elastic-only steps behind solver.atten_cost_factor
    synthetic_runs: int  # store ballast the service boots over
    warm_requests: int
    hits_under_solve: int
    extra_boots: int  # additional service set-ups per repeat (setup_s samples)
    extra_mesh_builds: int  # additional cold mesh-cache set-ups per campaign run
    min_repeats: int
    max_repeats: int
    trace_pairs: int  # interleaved untraced/traced repeats of a traced run


# Steps and repeats are shrunk from the issue's values to fit the driver's
# time cap (one run measures for `run_seconds`); the workload list is not.
FULL = Sizes(
    nex=8, serial_steps=8, cluster_steps=8, campaign_steps=3,
    service_steps=3, elastic_steps=10, synthetic_runs=200,
    warm_requests=400, hits_under_solve=50, extra_boots=19, extra_mesh_builds=2,
    min_repeats=2, max_repeats=64, trace_pairs=2,
)
#: Self-test tier: never written to BENCHMARK.json.
SMOKE = Sizes(
    nex=4, serial_steps=4, cluster_steps=3, campaign_steps=3,
    service_steps=3, elastic_steps=3, synthetic_runs=20,
    warm_requests=60, hits_under_solve=10, extra_boots=1, extra_mesh_builds=0,
    min_repeats=1, max_repeats=1, trace_pairs=1,
)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def _unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _event(rng: np.random.Generator, direction: np.ndarray | None = None) -> dict:
    """One CMT-style event: position, symmetric moment tensor, half duration."""
    if direction is None:
        direction = _unit(rng)
    depth_km = rng.uniform(50.0, 600.0)
    m = rng.standard_normal((3, 3))
    moment = 1.0e20 * (m + m.T) / 2.0
    return {
        "position": ((R_EARTH_KM - depth_km) * direction).tolist(),
        "moment": moment.tolist(),
        "moment_scale": float(1.0e20 * rng.uniform(0.5, 2.0)),
        "half_duration_s": float(rng.uniform(8.0, 20.0)),
    }


def _stations(rng: np.random.Generator, epicentre: np.ndarray) -> list[dict]:
    """Surface stations; the first sits on the epicentre so that a record of
    a few steps is already non-zero (waves cross one element in many steps)."""
    points = [epicentre] + [_unit(rng) for _ in range(N_STATIONS - 1)]
    return [
        {"name": f"ST{i:02d}", "position": (R_EARTH_KM * p).tolist()}
        for i, p in enumerate(points)
    ]


def event_inputs(seed: int) -> dict:
    """The event shared by `serial_atten`, `cluster6_overlap` and (as job 0)
    `campaign_batch4`, plus the campaign's further events: an aftershock
    sequence under one epicentre (depths and mechanisms differ), so that the
    epicentral station records every one of them within a few steps."""
    rng = _rng(seed, 0)
    epicentre = _unit(rng)
    events = [_event(rng, epicentre) for _ in range(N_CAMPAIGN_EVENTS)]
    return {"events": events, "stations": _stations(rng, epicentre)}


def _wire_source(event: dict) -> dict:
    """The service's wire format carries an isotropic moment only."""
    return {
        "position": event["position"],
        "moment_scale": event["moment_scale"],
        "half_duration_s": event["half_duration_s"],
    }


def service_inputs(seed: int, sizes: Sizes) -> dict:
    """Request specs and the seeded warm-request order of `service_mix`.

    ``targets[0]`` is the cold request the service really solves; the others
    address the synthetic runs the harness pre-seeds the store with.  Each
    warm request is (kind, target, station rows): ``repeat`` and ``data``
    ask for the stored station set, ``permuted`` for a reordering of it,
    ``subset`` for two of its four stations.
    """
    base = event_inputs(seed)
    stations = base["stations"]
    rng = _rng(seed, 1)

    def spec(event: dict) -> dict:
        return {
            "source": _wire_source(event),
            "stations": stations,
            "n_steps": sizes.service_steps,
        }

    targets = [spec(base["events"][0])]
    targets += [spec(_event(rng)) for _ in range(sizes.synthetic_runs)]
    synthetic_data = [
        rng.standard_normal((N_STATIONS, sizes.service_steps, 3))
        for _ in range(sizes.synthetic_runs)
    ]
    fresh = spec(_event(rng))
    warm = []
    kinds = rng.choice(
        ["repeat", "permuted", "subset", "data"],
        size=sizes.warm_requests,
        p=[0.7, 0.1, 0.1, 0.1],
    )
    for kind in kinds:
        # Half of the traffic goes to the one really-computed run.
        target = 0 if rng.random() < 0.5 else int(rng.integers(1, len(targets)))
        if kind == "permuted":
            rows = rng.permutation(N_STATIONS).tolist()
            if rows == sorted(rows):  # the identity is a repeat, not a permutation
                rows = rows[1:] + rows[:1]
        elif kind == "subset":
            rows = sorted(rng.choice(N_STATIONS, size=2, replace=False).tolist())
        else:
            rows = list(range(N_STATIONS))
        warm.append({"kind": str(kind), "target": target, "rows": rows})
    return {
        "targets": targets,
        "synthetic_data": synthetic_data,
        "fresh": fresh,
        "warm": warm,
    }
