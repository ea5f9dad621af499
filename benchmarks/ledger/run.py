"""The step-cost ledger: one command for every metric of the benchmark.

    python3 benchmarks/ledger/run.py --seed 0 --out DIR
        the whole ledger: each of the four workloads in its own fresh
        interpreter, once untraced (end-to-end metrics) and once traced
        (per-layer metrics), outputs checked, everything printed by name
        with its unit and written to DIR/ledger.json + DIR/trace_*.jsonl.
    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1
        one measurement (what the driver and the command above run); the
        last line of stdout is the result as one JSON object.
    python3 benchmarks/ledger/run.py compare DIR_A DIR_B
        both ledgers side by side against the benchmark's own bounds.

`--smoke` shrinks everything for the self-tests; it never feeds BENCHMARK.json.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, before numpy loads: the virtual cluster brings its
# own parallelism, and a threaded BLAS would make every timing depend on it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN_SECONDS = 32  # == BENCHMARK.json run_seconds (a self-test keeps them equal)


def _fail(message: str) -> "NoReturn":  # noqa: F821
    print(f"ledger: {message}", file=sys.stderr)
    raise SystemExit(2)


def _pin_allocator() -> None:
    """One malloc arena, like the one BLAS thread: glibc otherwise gives each
    thread (rank, worker, executor) its own arena that keeps what it freed,
    and `peak_rss_mb` then reads 265 or 346 MiB for the same service session
    depending on which executor thread took the second solve."""
    m_arena_max = -8  # <malloc.h>
    try:
        ctypes.CDLL("libc.so.6").mallopt(m_arena_max, 1)
    except (OSError, AttributeError):
        pass  # not glibc: nothing to pin


def _load_program() -> None:
    """The benchmark measures the checkout it sits in, from source."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        _fail(f"no program to measure: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))


# ------------------------------------------------------------ one measurement


def measure(args: argparse.Namespace) -> int:
    _pin_allocator()
    _load_program()
    import numpy as np

    import probes
    from harness import Run, now
    from inputs import FULL, SMOKE
    from metrics import END_TO_END, NOISY_DRIFT, PER_LAYER
    from workloads import WORKLOAD_FUNCTIONS

    started = now()
    workdir = ROOT / ".ledger_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    run = Run(
        workload=args.workload, seed=args.seed, sizes=SMOKE if args.smoke else FULL,
        traced=bool(args.trace), seconds=args.seconds, workdir=workdir, started=started,
    )
    triad_gbps = probes.triad_gbps()
    run.calibrate()
    try:
        result = WORKLOAD_FUNCTIONS[args.workload](run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.calibrate()
    machine = {
        "machine.triad_gbps": triad_gbps,
        "machine.einsum_gflops": max(run.calibration),
        "machine.drift_frac": probes.drift(run.calibration),
    }
    metrics = result["metrics"]
    if run.traced:
        metrics.update(machine)
        units = {m.name: m.unit for m in PER_LAYER}
        # A layer this workload never enters reads 0 in the one-line result,
        # which has to carry a number; the detail file says null and why.
        nulls = {
            m.name: result["nulls"].get(m.name, f"not exercised by {args.workload}")
            for m in PER_LAYER if m.name not in metrics
        }
        line = {
            m.name: {"value": float(metrics.get(m.name, 0.0)), "unit": m.unit}
            for m in PER_LAYER
        }
        detail_metrics = {
            name: {"value": float(v), "unit": units[name]} for name, v in metrics.items()
        }
    else:
        metrics["peak_rss_mb"] = {
            "value": peak_rss_mb, "unit": "MiB",
            "estimator": "ru_maxrss of the workload's interpreter, one malloc arena",
        }
        nulls = {}
        line = {m.name: {"value": metrics[m.name]["value"], "unit": m.unit} for m in END_TO_END}
        detail_metrics = metrics
    for name, entry in line.items():
        if not np.isfinite(entry["value"]):
            run.check(f"{name} is finite", False, str(entry["value"]))
    noisy = machine["machine.drift_frac"] > NOISY_DRIFT
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "seconds": args.seconds, "wall_s": now() - started,
        "attempted": run.attempted, "failed": run.failed,
        "fail_frac": run.failed / run.attempted, "failures": run.failures,
        "noisy": noisy, "machine": machine, "metrics": detail_metrics, "nulls": nulls,
    }
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{args.workload}.trace{args.trace}.json").write_text(
            json.dumps(detail, indent=1, sort_keys=True)
        )
        if run.traced:
            run.rec.write_jsonl(out / f"trace_{args.workload}.jsonl")
    for failure in run.failures:
        print(f"ledger: FAILED {failure}", file=sys.stderr)
    if noisy:
        print(f"ledger: noisy host (machine.drift_frac "
              f"{machine['machine.drift_frac']:.2f} > {NOISY_DRIFT})", file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted,
        "failed": run.failed, "metrics": line,
    }))
    return 0 if run.failed == 0 else 1


# ----------------------------------------------------------- the whole ledger


def _git_rev() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def ledger(args: argparse.Namespace) -> int:
    _load_program()
    import numpy

    from metrics import END_TO_END, PER_LAYER, WORKLOADS

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    runs: dict[str, dict] = {}
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--out", str(out)]
            if args.smoke:
                cmd.append("--smoke")
            print(f"ledger: {workload} trace={trace} ...", file=sys.stderr, flush=True)
            # A fresh interpreter per measurement: peak_rss_mb is per workload.
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
            status = status or proc.returncode
            detail = out / f"{workload}.trace{trace}.json"
            if detail.is_file():
                runs.setdefault(workload, {})[str(trace)] = json.loads(detail.read_text())
    record = {
        "seed": args.seed, "smoke": args.smoke, "seconds": args.seconds,
        "git_rev": _git_rev(),
        "machine": {"platform": platform.platform(), "machine": platform.machine(),
                    "python": platform.python_version(), "numpy": numpy.__version__,
                    "cpus": os.cpu_count()},
        "runs": runs,
    }
    (out / "ledger.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    for workload, by_trace in runs.items():
        for trace, defs in (("0", END_TO_END), ("1", PER_LAYER)):
            d = by_trace.get(trace)
            if d is None:
                print(f"\n== {workload} (trace {trace}): no result")
                continue
            flags = " NOISY" if d["noisy"] else ""
            print(f"\n== {workload} ({'per-layer, traced' if trace == '1' else 'end-to-end, untraced'}) "
                  f"attempted={d['attempted']} failed={d['failed']} "
                  f"fail_frac={d['fail_frac']:.4g}{flags}")
            for m in defs:
                entry = d["metrics"].get(m.name)
                if entry is None:
                    print(f"  {m.name:36s} {'null':>14s} {m.unit:8s} ({d['nulls'][m.name]})")
                    continue
                extra = ""
                if "median" in entry:
                    extra = f"  median {entry['median']:.6g} n {entry['n']}"
                    if "tail" in entry:
                        extra += f" p{entry['tail_q']:.1f} {entry['tail']:.6g}"
                print(f"  {m.name:36s} {entry['value']:14.6g} {m.unit:8s}{extra}")
    return status


# -------------------------------------------------------------------- compare


def compare(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(HERE))
    from metrics import END_TO_END, PER_LAYER

    a, b = (json.loads((Path(d) / "ledger.json").read_text()) for d in (args.dir_a, args.dir_b))
    worse = 0
    print(f"{'workload':18s} {'metric':20s} {'A':>12s} {'B':>12s} {'B vs A':>9s} {'bound':>6s}")
    for workload in a["runs"]:
        ea = a["runs"][workload]["0"]["metrics"]
        eb = b["runs"].get(workload, {}).get("0", {}).get("metrics")
        if eb is None:
            print(f"{workload:18s} missing from B")
            worse += 1
            continue
        for m in END_TO_END:
            va, vb = ea[m.name]["value"], eb[m.name]["value"]
            # Positive = B is worse than A, whichever way the metric points.
            rel = (vb - va) / va if m.better == "lower" else (va - vb) / va
            flag = ""
            if rel > m.bound:
                flag = "  WORSE"
                worse += 1
            elif rel < -m.bound:
                flag = "  better"
            print(f"{workload:18s} {m.name:20s} {va:12.5g} {vb:12.5g} {rel:+9.1%} {m.bound:6.0%}{flag}")
        for side, runs in (("A", a), ("B", b)):
            d = runs["runs"][workload]["0"]
            if d["failed"]:
                print(f"{workload:18s} fail_frac {d['fail_frac']:.4g} in {side}  WORSE")
                worse += 1
    # Counts repeat exactly between two runs of one commit and one seed (with
    # another seed the request mix, and so the service's counters, differ).
    for workload in a["runs"] if a["seed"] == b["seed"] else ():
        la = a["runs"][workload].get("1", {}).get("metrics", {})
        lb = b["runs"].get(workload, {}).get("1", {}).get("metrics", {})
        for m in PER_LAYER:
            if m.exact and m.name in la and m.name in lb:
                if la[m.name]["value"] != lb[m.name]["value"]:
                    print(f"{workload:18s} {m.name:20s} count differs: "
                          f"{la[m.name]['value']} != {lb[m.name]['value']}  DIFFERENT")
                    worse += 1
    print(f"\n{worse} row(s) beyond their bound" if worse else "\nall rows within their bounds")
    return 1 if worse else 0


# ----------------------------------------------------------------------- main


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(HERE))
    if argv and argv[0] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("dir_a")
        p.add_argument("dir_b")
        return compare(p.parse_args(argv[1:]))
    from metrics import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="directory for ledger.json, detail files and traces")
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-tests")
    args = p.parse_args(argv)
    if args.workload:
        return measure(args)
    if not args.out:
        p.error("give --workload for one measurement or --out for the whole ledger")
    return ledger(args)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
