"""Static analyzer tests: each rule fires, pragmas and baseline suppress.

Fixture files are written under tmp directories *named like the scope
directories* (``parallel/``, ``kernels/``, ...) because rules match on
directory parts, not on repository position.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.__main__ import main as cli_main
from repro.analysis.static import Baseline, Finding, REGISTRY, check_paths

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_on(tmp_path, relpath, source, rules=None, baseline=None):
    """Write one fixture file and run (selected) rules over it."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))
    return check_paths([target], baseline=baseline, rule_ids=rules)


def rules_of(report):
    return sorted({f.rule for f in report.findings})


# ------------------------------------------------------------------ registry


class TestRegistry:
    def test_all_rules_registered(self):
        assert set(REGISTRY) == {
            "R1", "R2", "R3", "R4", "R5", "R6", "R7", "R9"
        }

    def test_every_rule_documented(self):
        for rule in REGISTRY.values():
            assert rule.title and len(rule.rationale) > 40

    def test_scope_excludes_basename(self):
        # A file merely *named* parallel.py is not in R1's scope.
        rule = REGISTRY["R1"]
        assert rule.applies_to("src/repro/parallel/comm.py")
        assert not rule.applies_to("src/repro/obs/parallel.py")


# ------------------------------------------------------------------ R1


class TestLeakedRequestRule:
    def test_discarded_isend_fires(self, tmp_path):
        report = run_on(tmp_path, "parallel/mod.py", """
            def f(comm):
                comm.isend(1, b"x", tag=0)
        """, rules=["R1"])
        assert rules_of(report) == ["R1"]
        assert "discarded" in report.findings[0].message

    def test_never_waited_request_fires(self, tmp_path):
        report = run_on(tmp_path, "solver/mod.py", """
            def f(comm):
                req = comm.irecv(0, tag=0)
                return 1
        """, rules=["R1"])
        assert rules_of(report) == ["R1"]
        assert "never" in report.findings[0].message

    def test_wait_on_one_branch_only_fires(self, tmp_path):
        report = run_on(tmp_path, "parallel/mod.py", """
            def f(comm, flag):
                req = comm.irecv(0, tag=0)
                if flag:
                    req.wait()
        """, rules=["R1"])
        assert rules_of(report) == ["R1"]
        assert "control-flow" in report.findings[0].message

    def test_wait_on_both_branches_clean(self, tmp_path):
        report = run_on(tmp_path, "parallel/mod.py", """
            def f(comm, flag):
                req = comm.irecv(0, tag=0)
                if flag:
                    req.wait()
                else:
                    req.wait()
        """, rules=["R1"])
        assert report.clean

    def test_straight_line_wait_clean(self, tmp_path):
        report = run_on(tmp_path, "parallel/mod.py", """
            def f(comm):
                req = comm.irecv(0, tag=0)
                data = req.wait()
                return data
        """, rules=["R1"])
        assert report.clean

    def test_raise_covers_path(self, tmp_path):
        report = run_on(tmp_path, "parallel/mod.py", """
            def f(comm, flag):
                req = comm.irecv(0, tag=0)
                if flag:
                    raise ValueError("bail")
                else:
                    req.wait()
        """, rules=["R1"])
        assert report.clean

    def test_wait_inside_loop_not_guaranteed(self, tmp_path):
        report = run_on(tmp_path, "parallel/mod.py", """
            def f(comm, items):
                req = comm.irecv(0, tag=0)
                for _ in items:
                    req.wait()
        """, rules=["R1"])
        assert rules_of(report) == ["R1"]

    def test_escaped_request_assumed_managed(self, tmp_path):
        report = run_on(tmp_path, "parallel/mod.py", """
            def f(comm, pending):
                pending.append(comm.isend(1, b"x", tag=0))
                req = comm.irecv(0, tag=0)
                comm.waitall([req])
        """, rules=["R1"])
        assert report.clean


# ------------------------------------------------------------------ R2


class TestMagicTagRule:
    def test_literal_tag_fires(self, tmp_path):
        report = run_on(tmp_path, "parallel/mod.py", """
            def f(comm, region):
                comm.send(1, b"x", tag=1000 + region)
        """, rules=["R2"])
        assert rules_of(report) == ["R2"]
        assert "1000" in report.findings[0].message

    def test_positional_tag_literal_fires(self, tmp_path):
        report = run_on(tmp_path, "solver/mod.py", """
            def f(comm):
                comm.recv(0, 2000)
        """, rules=["R2"])
        assert rules_of(report) == ["R2"]

    def test_named_constant_clean(self, tmp_path):
        report = run_on(tmp_path, "parallel/mod.py", """
            from repro.parallel.tags import ASSEMBLE_REGION, region_tag

            def f(comm, region):
                comm.send(1, b"x", tag=region_tag(ASSEMBLE_REGION, region))
        """, rules=["R2"])
        assert report.clean

    def test_registry_collision_fires(self, tmp_path):
        report = run_on(tmp_path, "parallel/tags.py", """
            TAG_BLOCK = 1000
            CHANNEL_A = 1000
            CHANNEL_B = 1500
        """, rules=["R2"])
        assert rules_of(report) == ["R2"]
        assert "closer than TAG_BLOCK" in report.findings[0].message

    def test_real_registry_is_collision_free(self):
        report = check_paths(
            [REPO_ROOT / "src/repro/parallel/tags.py"], rule_ids=["R2"]
        )
        assert report.clean


# ------------------------------------------------------------------ R3


class TestHotLoopAllocRule:
    def test_alloc_in_hot_function_fires(self, tmp_path):
        report = run_on(tmp_path, "kernels/mod.py", """
            import numpy as np

            def step(u):  # repro: hot-loop
                buf = np.zeros(u.shape)
                return buf
        """, rules=["R3"])
        assert rules_of(report) == ["R3"]
        assert "allocates" in report.findings[0].message

    def test_unmarked_kernel_entry_point_fires(self, tmp_path):
        report = run_on(tmp_path, "kernels/mod.py", """
            def compute_forces_custom(u):
                return u
        """, rules=["R3"])
        assert rules_of(report) == ["R3"]
        assert "hot-loop" in report.findings[0].message

    def test_dtypeless_empty_fires_anywhere_in_scope(self, tmp_path):
        report = run_on(tmp_path, "kernels/mod.py", """
            import numpy as np

            def setup(n):
                return np.empty((n, 3))
        """, rules=["R3"])
        assert rules_of(report) == ["R3"]
        assert "dtype" in report.findings[0].message

    def test_dtyped_empty_outside_hot_function_clean(self, tmp_path):
        report = run_on(tmp_path, "kernels/mod.py", """
            import numpy as np

            def setup(n):
                return np.empty((n, 3), dtype=np.float64)
        """, rules=["R3"])
        assert report.clean

    def test_contraction_without_out_fires(self, tmp_path):
        report = run_on(tmp_path, "kernels/mod.py", """
            import numpy as np

            def step(h, u, inv):  # repro: hot-loop
                t = np.stack([np.matmul(h, u), np.einsum("il,lj->ij", h, u)])
                return np.add(np.multiply(t, inv), u)
        """, rules=["R3"])
        messages = sorted(f.message.split("(")[0] for f in report.findings)
        assert messages == [
            "np.add", "np.einsum", "np.matmul", "np.multiply", "np.stack"
        ]

    def test_contraction_into_work_array_clean(self, tmp_path):
        report = run_on(tmp_path, "kernels/mod.py", """
            import numpy as np

            def step(h, u, inv, t, g):  # repro: hot-loop
                np.matmul(h, u, out=t)
                np.einsum("il,lj->ij", h, u, out=g)
                np.multiply(t, inv, out=t)
                np.subtract(t, g, out=t)
                return np.add(t, u, out=t)
        """, rules=["R3"])
        assert report.clean

    def test_list_append_accumulation_fires(self, tmp_path):
        report = run_on(tmp_path, "solver/solver.py", """
            import numpy as np

            def march(chunks):  # repro: hot-loop
                parts = []
                for c in chunks:
                    parts.append(c * 2)
                return np.concatenate(parts)
        """, rules=["R3"])
        messages = [f.message for f in report.findings]
        assert any("list-append" in m for m in messages)

    def test_out_of_scope_file_ignored(self, tmp_path):
        report = run_on(tmp_path, "campaign/mod.py", """
            import numpy as np

            def anything():  # repro: hot-loop
                return np.zeros(3)
        """, rules=["R3"])
        assert report.clean and report.files_checked == 0


# ------------------------------------------------------------------ R4


class TestDeterminismRule:
    def test_global_np_random_fires(self, tmp_path):
        report = run_on(tmp_path, "mesh/mod.py", """
            import numpy as np

            def jitter(n):
                return np.random.rand(n)
        """, rules=["R4"])
        assert rules_of(report) == ["R4"]

    def test_unseeded_default_rng_fires(self, tmp_path):
        report = run_on(tmp_path, "model/mod.py", """
            import numpy as np

            def build():
                return np.random.default_rng()
        """, rules=["R4"])
        assert rules_of(report) == ["R4"]

    def test_seeded_default_rng_clean(self, tmp_path):
        report = run_on(tmp_path, "model/mod.py", """
            import numpy as np

            def build(seed):
                return np.random.default_rng(seed)
        """, rules=["R4"])
        assert report.clean

    def test_wall_clock_fires(self, tmp_path):
        report = run_on(tmp_path, "solver/mod.py", """
            import time

            def stamp():
                return time.time()
        """, rules=["R4"])
        assert rules_of(report) == ["R4"]

    def test_perf_counter_clean(self, tmp_path):
        report = run_on(tmp_path, "solver/mod.py", """
            import time

            def span():
                return time.perf_counter()
        """, rules=["R4"])
        assert report.clean

    def test_stdlib_random_fires(self, tmp_path):
        report = run_on(tmp_path, "kernels/mod.py", """
            import random

            def pick(xs):
                return random.choice(xs)
        """, rules=["R4"])
        assert rules_of(report) == ["R4"]


# ------------------------------------------------------------------ R5


class TestBroadExceptRule:
    def test_bare_except_fires(self, tmp_path):
        report = run_on(tmp_path, "campaign/mod.py", """
            def f():
                try:
                    work()
                except:
                    pass
        """, rules=["R5"])
        assert rules_of(report) == ["R5"]
        assert "bare" in report.findings[0].message

    def test_swallowed_exception_fires(self, tmp_path):
        report = run_on(tmp_path, "chaos/mod.py", """
            def f():
                try:
                    work()
                except Exception as exc:
                    log(exc)
        """, rules=["R5"])
        assert rules_of(report) == ["R5"]

    def test_reraise_clean(self, tmp_path):
        report = run_on(tmp_path, "parallel/mod.py", """
            def f():
                try:
                    work()
                except Exception as exc:
                    raise RuntimeError("wrapped") from exc
        """, rules=["R5"])
        assert report.clean

    def test_typed_except_clean(self, tmp_path):
        report = run_on(tmp_path, "parallel/mod.py", """
            def f():
                try:
                    work()
                except (ValueError, KeyError):
                    pass
        """, rules=["R5"])
        assert report.clean

    def test_tuple_containing_broad_fires(self, tmp_path):
        report = run_on(tmp_path, "campaign/mod.py", """
            def f():
                try:
                    work()
                except (ValueError, Exception):
                    pass
        """, rules=["R5"])
        assert rules_of(report) == ["R5"]


# ------------------------------------------------------ pragmas and baseline


class TestSuppression:
    def test_inline_pragma_suppresses(self, tmp_path):
        report = run_on(tmp_path, "campaign/mod.py", """
            def f():
                try:
                    work()
                except Exception as exc:  # repro: disable=R5 - recorded later
                    note(exc)
        """, rules=["R5"])
        assert report.clean and report.suppressed == 1

    def test_standalone_pragma_governs_next_line(self, tmp_path):
        report = run_on(tmp_path, "campaign/mod.py", """
            def f():
                try:
                    work()
                # repro: disable=R5 - handled out of band
                except Exception as exc:
                    note(exc)
        """, rules=["R5"])
        assert report.clean and report.suppressed == 1

    def test_pragma_only_disables_named_rules(self, tmp_path):
        report = run_on(tmp_path, "parallel/mod.py", """
            def f(comm):
                comm.isend(1, b"x", tag=7)  # repro: disable=R2
        """, rules=["R1", "R2"])
        # R2 (the literal tag) is suppressed, R1 (discarded request) fires.
        assert rules_of(report) == ["R1"] and report.suppressed == 1

    def test_baseline_suppresses_and_requires_justification(self, tmp_path):
        source = """
            def f():
                try:
                    work()
                except Exception:
                    pass
        """
        dirty = run_on(tmp_path, "campaign/mod.py", source, rules=["R5"])
        assert len(dirty.findings) == 1
        key = dirty.findings[0].key
        baseline = Baseline({key: "deliberate: fixture"})
        clean = run_on(
            tmp_path, "campaign/mod.py", source, rules=["R5"],
            baseline=baseline,
        )
        assert clean.clean and clean.baselined == 1
        bad = tmp_path / "bad-baseline.json"
        bad.write_text(json.dumps({"entries": [{"key": key}]}))
        with pytest.raises(ValueError, match="justification"):
            Baseline.load(bad)

    def test_finding_key_is_line_free(self):
        a = Finding(rule="R5", path="x/repro/campaign/workers.py", line=10,
                    scope="WorkerPool._execute", message="m")
        b = Finding(rule="R5", path="y/z/repro/campaign/workers.py", line=99,
                    scope="WorkerPool._execute", message="other")
        assert a.key == b.key == "R5:repro/campaign/workers.py:WorkerPool._execute"


# ------------------------------------------------------------------ CLI


class TestCLI:
    def test_check_exit_codes_and_json(self, tmp_path, capsys):
        target = tmp_path / "parallel" / "mod.py"
        target.parent.mkdir(parents=True)
        target.write_text("def f(comm):\n    comm.isend(1, b'x', tag=5)\n")
        rc = cli_main(["check", str(tmp_path), "--format", "json",
                       "--no-baseline"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert not payload["clean"]
        assert {f["rule"] for f in payload["findings"]} == {"R1", "R2"}

    def test_check_writes_report_file(self, tmp_path, capsys):
        target = tmp_path / "parallel" / "mod.py"
        target.parent.mkdir(parents=True)
        target.write_text("x = 1\n")
        out = tmp_path / "report.json"
        rc = cli_main(["check", str(target), "--no-baseline",
                       "--report", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["clean"]

    def test_unknown_rule_is_usage_error(self, tmp_path, capsys):
        rc = cli_main(["check", str(tmp_path), "--rules", "R99"])
        assert rc == 2

    def test_rules_and_explain(self, capsys):
        assert cli_main(["rules"]) == 0
        listing = capsys.readouterr().out
        assert all(rid in listing for rid in REGISTRY)
        assert cli_main(["explain", "R1"]) == 0
        assert "leaked" in capsys.readouterr().out
        assert cli_main(["explain", "R99"]) == 2


# ------------------------------------------------------------- self check


class TestSelfCheck:
    def test_repo_src_is_clean(self):
        """The committed source passes its own analyzer with the
        committed baseline — the same gate CI enforces."""
        baseline = Baseline.load(REPO_ROOT / Baseline.FILENAME)
        report = check_paths([REPO_ROOT / "src"], baseline=baseline)
        assert report.clean, "\n".join(str(f) for f in report.findings)
        # The baseline is a short, reviewed list — not a dumping ground.
        assert report.baselined <= 5

    def test_baseline_discovery_from_src(self):
        found = Baseline.discover(REPO_ROOT / "src" / "repro")
        assert found is not None and len(found.entries) >= 1
