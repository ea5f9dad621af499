"""Self-tests of the step-cost ledger, on its `--smoke` tier.

Run with ``PYTHONPATH=src python -m pytest benchmarks/ledger/tests -q``; they
are not part of tier-1 (``testpaths = ["tests"]``).  The smoke tier (NEX 4, a
few steps) checks the harness, never the program's speed, and its numbers
are never written to BENCHMARK.json.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

LEDGER = Path(__file__).resolve().parents[1]
ROOT = LEDGER.parents[1]
sys.path.insert(0, str(LEDGER))

import inputs  # noqa: E402
import metrics  # noqa: E402
import run as ledger_run  # noqa: E402
from spans import Span, SpanRecorder, below, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "ledger" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> Path:
    """The whole ledger once, on the smoke tier."""
    out = tmp_path_factory.mktemp("ledger")
    proc = _run("--seed", "0", "--out", str(out), "--smoke", "--seconds", "5")
    assert proc.returncode == 0, proc.stderr
    return out


# ------------------------------------------------------------- definitions


def test_names_units_and_limits():
    names = [m.name for m in metrics.END_TO_END + metrics.PER_LAYER] + list(metrics.WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m.unit) for m in metrics.END_TO_END + metrics.PER_LAYER)
    assert 2 <= len(metrics.WORKLOADS) <= 8
    assert 1 <= len(metrics.END_TO_END) <= 16
    assert 1 <= len(metrics.PER_LAYER) <= 128
    assert all(0 < m.bound <= 0.25 for m in metrics.END_TO_END)
    assert all(len(why) <= 200 and "\n" not in why for why in metrics.WORKLOADS.values())
    setup = metrics.END_TO_END_BY_NAME["setup_s"]
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in metrics.END_TO_END)


def test_every_moves_target_exists():
    for m in metrics.PER_LAYER:
        for metric, workload in m.moves:
            assert metric in metrics.END_TO_END_BY_NAME, (m.name, metric)
            assert workload in metrics.WORKLOADS, (m.name, workload)


def test_benchmark_json_repeats_the_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/ledger"]
    assert spec["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert spec["run_seconds"] == ledger_run.RUN_SECONDS
    assert spec["workloads"] == [{"name": n, "why": w} for n, w in metrics.WORKLOADS.items()]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER
    ]


# ------------------------------------------------------------------ inputs


def _plain(obj):
    return json.dumps(obj, sort_keys=True, default=lambda a: a.tolist())


def test_same_seed_same_inputs_other_seed_other_inputs():
    assert _plain(inputs.event_inputs(3)) == _plain(inputs.event_inputs(3))
    assert _plain(inputs.event_inputs(3)) != _plain(inputs.event_inputs(4))
    a, b, c = (inputs.service_inputs(s, inputs.SMOKE) for s in (3, 3, 4))
    assert _plain(a) == _plain(b)
    assert _plain(a) != _plain(c)
    assert [w["kind"] for w in a["warm"]] != [w["kind"] for w in c["warm"]]
    # The size is not drawn: another seed is the same amount of work.
    assert len(a["warm"]) == len(c["warm"]) and len(a["targets"]) == len(c["targets"])


def test_warm_mix_shapes():
    warm = inputs.service_inputs(0, inputs.FULL)["warm"]
    share = {k: sum(w["kind"] == k for w in warm) / len(warm)
             for k in ("repeat", "permuted", "subset", "data")}
    assert abs(share["repeat"] - 0.7) < 0.05 and all(abs(share[k] - 0.1) < 0.04
                                                      for k in ("permuted", "subset", "data"))
    for w in warm:
        if w["kind"] == "permuted":
            assert sorted(w["rows"]) == [0, 1, 2, 3] and w["rows"] != [0, 1, 2, 3]
        if w["kind"] == "subset":
            assert len(w["rows"]) == 2


# ------------------------------------------------------------------- spans


def _span(i, start, end, parent=-1):
    return Span(id=i, name=f"s{i}", start=start, end=end, parent=parent, workload="w", repeat=0)


def test_self_time_subtracts_the_union_of_children():
    spans = [_span(0, 0.0, 10.0), _span(1, 1.0, 4.0, 0), _span(2, 3.0, 6.0, 0),
             _span(3, 3.5, 3.75, 2)]
    st = self_times(spans)
    assert st[0] == pytest.approx(5.0)  # children cover [1, 6]
    assert st[2] == pytest.approx(2.75)
    assert [sp.id for sp in below(spans, {0})] == [1, 2, 3]
    assert [sp.id for sp in below(spans, {2})] == [3]


def test_recorder_is_silent_when_off_and_nests_when_on():
    off = SpanRecorder("w", enabled=False)
    with off.span("a") as sid:
        assert sid == -1
    assert off.spans == []
    on = SpanRecorder("w", enabled=True)
    with on.span("a", repeat=2) as outer:
        with on.span("b", repeat=2) as inner:
            pass
    by_id = {sp.id: sp for sp in on.spans}
    assert by_id[inner].parent == outer and by_id[outer].parent == -1
    assert by_id[inner].repeat == 2 and by_id[inner].end >= by_id[inner].start


# ------------------------------------------------------- the smoke ledger


def test_ledger_has_every_workload_green(smoke):
    ledger = json.loads((smoke / "ledger.json").read_text())
    assert ledger["smoke"] is True
    assert set(ledger["runs"]) == set(metrics.WORKLOADS)
    for workload, by_trace in ledger["runs"].items():
        for trace in ("0", "1"):
            d = by_trace[trace]
            assert d["failed"] == 0 and d["fail_frac"] == 0, (workload, d["failures"])
            assert d["attempted"] >= 1
        e2e = by_trace["0"]["metrics"]
        assert set(e2e) == set(metrics.END_TO_END_BY_NAME)
        assert all(np.isfinite(e["value"]) and e["value"] > 0 for e in e2e.values())
        assert e2e["setup_s"]["n"] >= 1 and "median" in e2e["time_to_solution_s"]


def test_closure_overhead_and_machine_metrics_are_reported(smoke):
    ledger = json.loads((smoke / "ledger.json").read_text())
    for workload, by_trace in ledger["runs"].items():
        layers = by_trace["1"]["metrics"]
        for name in ("solver.unattributed_frac", "kernels.force_share",
                     "obs.trace_overhead_frac", "machine.triad_gbps",
                     "machine.einsum_gflops", "machine.drift_frac"):
            assert name in layers, (workload, name)
        assert 0.0 <= layers["solver.unattributed_frac"]["value"] <= 0.15, workload
        assert isinstance(by_trace["1"]["noisy"], bool)
    serial = ledger["runs"]["serial_atten"]["1"]["metrics"]
    assert serial["solver.atten_cost_factor"]["value"] > 1.0
    assert serial["kernels.force_share"]["value"] > 0.7  # the paper's section 4.3


def test_every_layer_metric_is_measured_somewhere_and_nulls_say_why(smoke):
    ledger = json.loads((smoke / "ledger.json").read_text())
    measured = set()
    for by_trace in ledger["runs"].values():
        d = by_trace["1"]
        measured |= set(d["metrics"])
        assert set(d["metrics"]) | set(d["nulls"]) == set(metrics.PER_LAYER_BY_NAME)
        assert not set(d["metrics"]) & set(d["nulls"])
        assert all(reason for reason in d["nulls"].values())
    assert measured == set(metrics.PER_LAYER_BY_NAME)


def test_exact_counts(smoke):
    runs = json.loads((smoke / "ledger.json").read_text())["runs"]
    cluster = runs["cluster6_overlap"]["1"]["metrics"]
    assert cluster["parallel.messages_per_step"]["value"] > 0
    assert float(cluster["parallel.messages_per_step"]["value"]).is_integer()
    campaign = runs["campaign_batch4"]["1"]["metrics"]
    assert campaign["campaign.batches"]["value"] == 1
    assert campaign["campaign.batch_events"]["value"] == 4
    assert campaign["campaign.mesh_cache_misses"]["value"] == 1
    service = runs["service_mix"]["1"]["metrics"]
    assert service["service.solver_runs"]["value"] == 2
    assert service["service.coalesced"]["value"] == 1


@pytest.mark.parametrize("workload", list(metrics.WORKLOADS))
def test_trace_parents_resolve_and_self_times_are_non_negative(smoke, workload):
    spans = [Span(**json.loads(line))
             for line in (smoke / f"trace_{workload}.jsonl").read_text().splitlines()]
    ids = {sp.id for sp in spans}
    assert len(ids) == len(spans)
    assert all(sp.parent == -1 or sp.parent in ids for sp in spans)
    assert all(sp.workload == workload and sp.end >= sp.start for sp in spans)
    assert {"harness", "program"} == {sp.source for sp in spans}
    # Program spans were adopted by the harness span that caused them.
    harness = {sp.id for sp in spans if sp.source == "harness"}
    roots = [sp for sp in spans if sp.source == "program" and sp.parent in harness]
    assert roots
    assert min(self_times(spans).values()) > -1e-6


def test_one_measurement_prints_the_contract_line():
    for trace, defs in ((0, metrics.END_TO_END), (1, metrics.PER_LAYER)):
        proc = _run("--workload", "serial_atten", "--seed", "1", "--seconds", "3",
                    "--trace", str(trace), "--smoke")
        assert proc.returncode == 0, proc.stderr
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == [m.name for m in defs]
        assert all(set(e) == {"value", "unit"} for e in line["metrics"].values())
    assert not (ROOT / ".ledger_work").exists()


def test_compare_accepts_a_ledger_against_itself_and_flags_a_regression(smoke, tmp_path):
    same = _run("compare", str(smoke), str(smoke))
    assert same.returncode == 0, same.stdout
    assert "all rows within their bounds" in same.stdout
    slow = json.loads((smoke / "ledger.json").read_text())
    slow["runs"]["service_mix"]["0"]["metrics"]["op_p50_ms"]["value"] *= 1.5
    slow["runs"]["campaign_batch4"]["1"]["metrics"]["campaign.batches"]["value"] += 1
    (tmp_path / "ledger.json").write_text(json.dumps(slow))
    worse = _run("compare", str(smoke), str(tmp_path))
    assert worse.returncode == 1
    assert "WORSE" in worse.stdout and "DIFFERENT" in worse.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory with only BENCHMARK.json and the benchmark's own files."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(LEDGER, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "serial_atten", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
