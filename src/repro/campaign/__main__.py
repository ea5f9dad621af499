"""``python -m repro.campaign`` — submit and inspect simulation campaigns.

Subcommands::

    run <spec.json>      execute a campaign spec, print the summary table
    report <store-dir>   render the manifest of a finished campaign
    example-spec         print a small runnable spec (pipe to a file)

A spec is JSON: Par_file-style parameter ``defaults``, plus a ``jobs``
list where each job may override parameters and add a source, stations,
step count, segment count, timeout, and (for drills) injected failures::

    {
      "defaults": {"NEX_XI": 4, "NER_CRUST_MANTLE": 2, "NSTEP_OVERRIDE": 8},
      "jobs": [
        {"name": "event-0", "n_segments": 2,
         "source": {"position": [0, 0, 6171], "moment_scale": 1e20,
                    "half_duration_s": 10.0, "time_shift": 3.0},
         "stations": [{"name": "POLE", "position": [0, 0, 6371]}]}
      ]
    }
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from ..config.parameters import SimulationParameters
from ..obs.metrics import MetricsRegistry
from ..solver.receivers import Station
from ..solver.sources import MomentTensorSource, gaussian_stf
from .mesh_cache import MeshCache
from .queue import JobSpec, RetryPolicy
from .store import ResultStore, render_campaign_table
from .workers import WorkerPool

EXAMPLE_SPEC = {
    "defaults": {
        "NEX_XI": 4,
        "NER_CRUST_MANTLE": 2,
        "NER_OUTER_CORE": 1,
        "NER_INNER_CORE": 1,
        "NSTEP_OVERRIDE": 8,
        "ATTENUATION": True,
    },
    "jobs": [
        {
            "name": f"event-{i}",
            "n_segments": 2 if i == 0 else 1,
            "inject_failures": 1 if i == 1 else 0,
            "source": {
                "position": [0.0, 0.0, 6171.0],
                "moment_scale": 1.0e20,
                "half_duration_s": 10.0,
                "time_shift": 3.0,
            },
            "stations": [{"name": "POLE", "position": [0.0, 0.0, 6371.0]}],
        }
        for i in range(3)
    ],
}


def _build_source(spec: dict) -> MomentTensorSource:
    return MomentTensorSource(
        position=tuple(float(v) for v in spec["position"]),
        moment=float(spec.get("moment_scale", 1.0e20)) * np.eye(3),
        stf=gaussian_stf(float(spec.get("half_duration_s", 10.0))),
        time_shift=float(spec.get("time_shift", 0.0)),
    )


def _build_jobs(spec: dict) -> list[JobSpec]:
    defaults = spec.get("defaults", {})
    jobs: list[JobSpec] = []
    for i, job in enumerate(spec.get("jobs", [])):
        sources = None
        if "source" in job:
            sources = [_build_source(job["source"])]
        stations = None
        if "stations" in job:
            stations = [
                Station(s["name"], tuple(float(v) for v in s["position"]))
                for s in job["stations"]
            ]
        jobs.append(
            JobSpec(
                name=job.get("name", f"job-{i}"),
                params=SimulationParameters.from_dict(
                    {**defaults, **job.get("params", {})}
                ),
                sources=sources,
                stations=stations,
                n_steps=job.get("n_steps"),
                n_segments=int(job.get("n_segments", 1)),
                timeout_s=job.get("timeout_s"),
                max_attempts=job.get("max_attempts"),
                inject_failures=int(job.get("inject_failures", 0)),
                metadata=dict(job.get("metadata", {})),
            )
        )
    return jobs


def _cmd_run(args: argparse.Namespace) -> int:
    with open(args.spec, encoding="utf-8") as fh:
        spec = json.load(fh)
    jobs = _build_jobs(spec)
    if not jobs:
        print("spec has no jobs", file=sys.stderr)
        return 2
    metrics = MetricsRegistry()
    store = ResultStore(args.store) if args.store else None
    cache = MeshCache(
        max_entries=args.cache_entries,
        spill_dir=args.spill_dir,
        metrics=metrics,
    )
    pool = WorkerPool(
        n_workers=args.workers,
        retry_policy=RetryPolicy(
            max_attempts=args.max_attempts, base_delay_s=args.base_delay_s
        ),
        mesh_cache=cache,
        store=store,
        metrics=metrics,
    )
    results = pool.run(jobs)
    print(
        render_campaign_table(
            [r.to_record() for r in results], cache_stats=cache.stats()
        )
    )
    if store is not None:
        print(f"manifest: {store.manifest_path}")
    return 0 if all(r.succeeded for r in results) else 1


def _cmd_report(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    records = store.load(status=args.status)
    if not records:
        print("store holds no job records", file=sys.stderr)
        return 2
    print(render_campaign_table(records))
    summary = store.summary()
    print(
        f"{summary['distinct_meshes']} distinct meshes across "
        f"{summary['jobs']} jobs ({summary['cache_hits']} cache hits), "
        f"{summary['total_wall_s']:.2f} s total wall"
    )
    return 0


def _cmd_example_spec(args: argparse.Namespace) -> int:
    text = json.dumps(EXAMPLE_SPEC, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Submit and inspect simulation campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a campaign spec")
    p_run.add_argument("spec", help="path to the campaign spec JSON")
    p_run.add_argument("--workers", type=int, default=2)
    p_run.add_argument("--store", default=None,
                       help="result-store directory (manifest + job JSON)")
    p_run.add_argument("--spill-dir", default=None,
                       help="mesh-cache disk spill directory")
    p_run.add_argument("--cache-entries", type=int, default=4)
    p_run.add_argument("--max-attempts", type=int, default=3)
    p_run.add_argument("--base-delay-s", type=float, default=0.05)
    p_run.set_defaults(func=_cmd_run)

    p_report = sub.add_parser("report", help="render a finished campaign")
    p_report.add_argument("store", help="result-store directory")
    p_report.add_argument("--status", default=None,
                          help="filter by job status")
    p_report.set_defaults(func=_cmd_report)

    p_spec = sub.add_parser("example-spec", help="print a runnable spec")
    p_spec.add_argument("--out", default=None)
    p_spec.set_defaults(func=_cmd_example_spec)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
