"""Whole-program analyzer tests: call graph, taint, R6/R7/R9, SARIF, --diff.

Fixture files live in tmp directories *named like the scope directories*
(``parallel/``, ``service/``, ...) because rules match on directory
parts.  Multi-file fixtures exercise the cross-module call graph: the
finding must land even when the offending fact (a collective, a
blocking primitive, a request constructor) sits one or two calls away.
"""

import json
import shutil
import subprocess
import textwrap
from pathlib import Path

import pytest

from repro.analysis.__main__ import main as cli_main
from repro.analysis.static import (
    Baseline,
    FileContext,
    Project,
    check_paths,
    to_sarif,
    validate_sarif,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def write_tree(tmp_path, files):
    """Write {relpath: source} fixtures; returns the tree root."""
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    return tmp_path


def run_tree(tmp_path, files, rules=None, baseline=None):
    root = write_tree(tmp_path, files)
    return check_paths([root], baseline=baseline, rule_ids=rules)


def rules_of(report):
    return sorted({f.rule for f in report.findings})


def build_project(tmp_path, files):
    root = write_tree(tmp_path, files)
    contexts = [
        FileContext(p, p.read_text()) for p in sorted(root.rglob("*.py"))
    ]
    project = Project(contexts)
    for ctx in contexts:
        ctx.project = project
    return project


def info_named(project, name):
    matches = [i for q, i in project.functions.items()
               if q.rsplit(".", 1)[-1] == name or i.name == name]
    assert matches, f"no function {name!r} in {sorted(project.functions)}"
    return matches[0]


# ------------------------------------------------------------- call graph


class TestCallGraph:
    def test_cross_module_name_resolution(self, tmp_path):
        project = build_project(tmp_path, {
            "pkg/util.py": """
                def helper():
                    return 1
            """,
            "pkg/driver.py": """
                from pkg.util import helper

                def drive():
                    return helper()
            """,
        })
        drive = info_named(project, "drive")
        resolved = [q for _, targets, _ in drive.calls for q in targets]
        assert any(q.endswith("util.helper") for q in resolved)

    def test_self_method_and_attr_type_resolution(self, tmp_path):
        project = build_project(tmp_path, {
            "pkg/store.py": """
                class Store:
                    def load(self):
                        return 1
            """,
            "pkg/front.py": """
                from pkg.store import Store

                class Front:
                    def __init__(self):
                        self.store = Store()

                    def read(self):
                        return self.store.load()
            """,
        })
        read = info_named(project, "read")
        resolved = [q for _, targets, _ in read.calls for q in targets]
        assert any(q.endswith("Store.load") for q in resolved)

    def test_blocking_reason_propagates_through_sync_chain(self, tmp_path):
        project = build_project(tmp_path, {
            "pkg/disk.py": """
                import numpy as np

                def read_payload(path):
                    return np.load(path)

                def warm(path):
                    return read_payload(path)
            """,
        })
        assert info_named(project, "read_payload").blocking_reason
        warm = info_named(project, "warm")
        assert warm.blocking_reason and "read_payload" in warm.blocking_reason

    def test_async_callee_does_not_propagate_blocking(self, tmp_path):
        project = build_project(tmp_path, {
            "pkg/aio.py": """
                import numpy as np

                async def fetch(path):
                    return np.load(path)

                async def outer(path):
                    return await fetch(path)
            """,
        })
        # fetch itself blocks (R9's business) but awaiting it yields the
        # loop, so the *caller* is not marked blocking.
        assert info_named(project, "outer").blocking_reason is None

    def test_returns_request_tracks_helpers(self, tmp_path):
        project = build_project(tmp_path, {
            "pkg/comm.py": """
                def direct(comm, buf, dest):
                    return comm.isend(buf, dest)

                def named(comm, buf, dest):
                    req = comm.isend(buf, dest)
                    return req

                def unrelated(comm):
                    return comm.rank
            """,
        })
        assert info_named(project, "direct").returns_request
        assert info_named(project, "named").returns_request
        assert not info_named(project, "unrelated").returns_request


# -------------------------------------------------------------- rank taint


class TestRankTaint:
    def test_assignment_chain_taints(self, tmp_path):
        project = build_project(tmp_path, {
            "pkg/ranks.py": """
                def plan(comm):
                    me = comm.rank
                    lead = me == 0
                    return lead
            """,
        })
        plan = info_named(project, "plan")
        assert {"me", "lead"} <= plan.local_taint
        assert plan.returns_rank

    def test_taint_flows_through_returns_and_arguments(self, tmp_path):
        project = build_project(tmp_path, {
            "pkg/flow.py": """
                def who(comm):
                    return comm.rank

                def route(work, owner):
                    return work[owner]

                def drive(comm, work):
                    return route(work, who(comm))
            """,
        })
        assert info_named(project, "who").returns_rank
        assert "owner" in info_named(project, "route").tainted_params

    def test_plain_values_stay_clean(self, tmp_path):
        project = build_project(tmp_path, {
            "pkg/clean.py": """
                def plan(n):
                    step = n * 2
                    return step
            """,
        })
        plan = info_named(project, "plan")
        assert plan.local_taint == set()
        assert not plan.returns_rank


# ---------------------------------------------------- R1 interprocedural


class TestLeakedRequestInterproc:
    def test_returned_request_is_escaped_not_leaked(self, tmp_path):
        report = run_tree(tmp_path, {
            "parallel/halo.py": """
                def post(comm, buf, dest):
                    return comm.isend(buf, dest)
            """,
        }, rules=["R1"])
        assert report.clean

    def test_discarded_helper_result_fires(self, tmp_path):
        report = run_tree(tmp_path, {
            "parallel/halo.py": """
                def post(comm, buf, dest):
                    return comm.isend(buf, dest)

                def drive(comm, buf):
                    post(comm, buf, 1)
            """,
        }, rules=["R1"])
        assert rules_of(report) == ["R1"]

    def test_self_stash_with_class_wait_is_clean(self, tmp_path):
        report = run_tree(tmp_path, {
            "parallel/halo.py": """
                class Exchanger:
                    def post(self, comm, buf, dest):
                        self.req = comm.isend(buf, dest)

                    def finish(self):
                        self.req.wait()
            """,
        }, rules=["R1"])
        assert report.clean

    def test_self_stash_never_waited_fires(self, tmp_path):
        report = run_tree(tmp_path, {
            "parallel/halo.py": """
                class Exchanger:
                    def post(self, comm, buf, dest):
                        self.req = comm.isend(buf, dest)
            """,
        }, rules=["R1"])
        assert rules_of(report) == ["R1"]


# ---------------------------------------------------------------------- R6


class TestSPMDDivergenceRule:
    def test_direct_rank_guarded_collective_fires(self, tmp_path):
        report = run_tree(tmp_path, {
            "parallel/sync.py": """
                def drive(comm):
                    if comm.rank == 0:
                        comm.barrier()
            """,
        }, rules=["R6"])
        assert rules_of(report) == ["R6"]

    def test_collective_via_helper_fires(self, tmp_path):
        report = run_tree(tmp_path, {
            "parallel/sync.py": """
                def _settle(comm):
                    comm.allreduce(1)

                def drive(comm):
                    me = comm.rank
                    if me % 2:
                        _settle(comm)
            """,
        }, rules=["R6"])
        assert rules_of(report) == ["R6"]
        assert "_settle" in report.findings[0].message

    def test_taint_through_call_argument_fires(self, tmp_path):
        report = run_tree(tmp_path, {
            "parallel/sync.py": """
                def route(comm, lead):
                    if lead:
                        comm.gather(1)

                def drive(comm):
                    route(comm, comm.rank == 0)
            """,
        }, rules=["R6"])
        assert rules_of(report) == ["R6"]

    def test_rank_guarded_halo_completion_fires(self, tmp_path):
        report = run_tree(tmp_path, {
            "solver/step.py": """
                def step(comm, exchanger, arrays):
                    pending = exchanger.post(arrays)
                    if comm.rank == 0:
                        exchanger.complete(pending, arrays)
            """,
        }, rules=["R6"])
        assert rules_of(report) == ["R6"]
        assert ".complete()" in report.findings[0].message

    def test_unconditional_halo_completion_clean(self, tmp_path):
        # A single request's wait() is per-rank and stays out of the set.
        report = run_tree(tmp_path, {
            "solver/step.py": """
                def step(comm, exchanger, arrays, req):
                    pending = exchanger.post(arrays)
                    if comm.rank == 0:
                        req.wait()
                    exchanger.complete(pending, arrays)
            """,
        }, rules=["R6"])
        assert report.clean

    def test_unconditional_collective_clean(self, tmp_path):
        report = run_tree(tmp_path, {
            "parallel/sync.py": """
                def drive(comm, step):
                    if step % 10 == 0:
                        comm.barrier()
                    comm.allreduce(1)
            """,
        }, rules=["R6"])
        assert report.clean

    def test_rank_guarded_local_work_clean(self, tmp_path):
        # Rank-dependent *work* is fine; only rank-dependent
        # communication schedules diverge.
        report = run_tree(tmp_path, {
            "parallel/sync.py": """
                def drive(comm, data):
                    if comm.rank == 0:
                        print(data.sum())
                    comm.barrier()
            """,
        }, rules=["R6"])
        assert report.clean

    def test_pragma_suppresses(self, tmp_path):
        report = run_tree(tmp_path, {
            "parallel/sync.py": """
                def drive(comm):
                    if comm.rank == 0:
                        comm.barrier()  # repro: disable=R6 - single-rank test harness
            """,
        }, rules=["R6"])
        assert report.clean and report.suppressed == 1


# ---------------------------------------------------------------------- R7

FIELDS_FIXTURE = """
    import numpy as np

    class WaveField:
        displ: np.ndarray
        veloc: np.ndarray
"""

CHECKPOINT_FIXTURE = """
    def save_checkpoint(solver, arrays):
        arrays["displ"] = solver.displ
        arrays["veloc"] = solver.veloc

    def load_checkpoint(solver, f):
        solver.displ[:] = f["displ"]
        solver.veloc[:] = f["veloc"]
"""

REMAP_FIXTURE = """
    STATE_ARRAYS = ("displ", "veloc")

    def remap(state):
        return {name: state[name] for name in STATE_ARRAYS}
"""


class TestStateLifecycleRule:
    def test_complete_lifecycle_clean(self, tmp_path):
        report = run_tree(tmp_path, {
            "solver/fields.py": FIELDS_FIXTURE,
            "solver/checkpoint.py": CHECKPOINT_FIXTURE,
            "resilience/remap.py": REMAP_FIXTURE,
        }, rules=["R7"])
        assert report.clean

    def test_array_missing_from_load_fires(self, tmp_path):
        report = run_tree(tmp_path, {
            "solver/fields.py": FIELDS_FIXTURE.replace(
                "veloc: np.ndarray", "veloc: np.ndarray\n        accel: np.ndarray"
            ),
            "solver/checkpoint.py": CHECKPOINT_FIXTURE.replace(
                'arrays["veloc"] = solver.veloc',
                'arrays["veloc"] = solver.veloc\n'
                '        arrays["accel"] = solver.accel',
            ),
            "resilience/remap.py": REMAP_FIXTURE.replace(
                '("displ", "veloc")', '("displ", "veloc", "accel")'
            ),
        }, rules=["R7"])
        assert [f.scope for f in report.findings] == ["accel:load"]

    def test_array_missing_everywhere_fires_per_surface(self, tmp_path):
        report = run_tree(tmp_path, {
            "solver/fields.py": FIELDS_FIXTURE.replace(
                "veloc: np.ndarray", "veloc: np.ndarray\n        accel: np.ndarray"
            ),
            "solver/checkpoint.py": CHECKPOINT_FIXTURE,
            "resilience/remap.py": REMAP_FIXTURE,
        }, rules=["R7"])
        assert sorted(f.scope for f in report.findings) == [
            "accel:load", "accel:remap", "accel:save",
        ]

    def test_attenuation_memory_is_registered(self, tmp_path):
        report = run_tree(tmp_path, {
            "solver/fields.py": FIELDS_FIXTURE,
            "solver/attenuation.py": """
                class AttenuationState:
                    def update(self, dt):
                        self.zeta *= 0.5
            """,
            "solver/checkpoint.py": CHECKPOINT_FIXTURE,
            "resilience/remap.py": REMAP_FIXTURE,
        }, rules=["R7"])
        assert sorted(f.scope for f in report.findings) == [
            "zeta:load", "zeta:remap", "zeta:save",
        ]

    def test_self_check_against_real_sources(self, tmp_path):
        """Mutating a copy of the real fields.py must trip R7 — proof
        the registry derivation tracks the actual source of truth."""
        root = tmp_path / "copy"
        for rel in (
            "src/repro/solver/fields.py",
            "src/repro/solver/checkpoint.py",
            "src/repro/solver/attenuation.py",
            "src/repro/solver/receivers.py",
            "src/repro/resilience/remap.py",
        ):
            dst = root / Path(rel).relative_to("src/repro")
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(REPO_ROOT / rel, dst)
        fields = root / "solver" / "fields.py"
        clean = check_paths([root], rule_ids=["R7"])
        assert clean.clean, "\n".join(str(f) for f in clean.findings)
        source = fields.read_text()
        marker = "displ: np.ndarray"
        assert marker in source
        fields.write_text(source.replace(
            marker, "displ: np.ndarray\n    brand_new_state: np.ndarray", 1
        ))
        mutated = check_paths([root], rule_ids=["R7"])
        scopes = {f.scope for f in mutated.findings}
        assert {
            "brand_new_state:save",
            "brand_new_state:load",
            "brand_new_state:remap",
        } <= scopes


# ---------------------------------------------------------------------- R9


class TestAsyncHygieneRule:
    def test_direct_blocking_call_fires(self, tmp_path):
        report = run_tree(tmp_path, {
            "service/handlers.py": """
                import time

                async def handle(request):
                    time.sleep(0.1)
                    return request
            """,
        }, rules=["R9"])
        assert rules_of(report) == ["R9"]

    def test_transitive_blocking_through_sync_helper_fires(self, tmp_path):
        report = run_tree(tmp_path, {
            "service/store.py": """
                import numpy as np

                class Store:
                    def load(self, path):
                        return np.load(path)
            """,
            "service/front.py": """
                from service.store import Store

                class Front:
                    def __init__(self):
                        self.store = Store()

                    async def answer(self, path):
                        return self.store.load(path)
            """,
        }, rules=["R9"])
        assert rules_of(report) == ["R9"]
        assert "Store.load" in report.findings[0].message

    def test_to_thread_routing_clean(self, tmp_path):
        report = run_tree(tmp_path, {
            "service/store.py": """
                import numpy as np

                class Store:
                    def load(self, path):
                        return np.load(path)
            """,
            "service/front.py": """
                import asyncio

                from service.store import Store

                class Front:
                    def __init__(self):
                        self.store = Store()

                    async def answer(self, path):
                        return await asyncio.to_thread(self.store.load, path)
            """,
        }, rules=["R9"])
        assert report.clean

    def test_sync_function_not_flagged(self, tmp_path):
        report = run_tree(tmp_path, {
            "service/tools.py": """
                import time

                def warm_up():
                    time.sleep(0.1)
            """,
        }, rules=["R9"])
        assert report.clean

    def test_pragma_suppresses(self, tmp_path):
        report = run_tree(tmp_path, {
            "service/handlers.py": """
                import time

                async def handle(request):
                    time.sleep(0.1)  # repro: disable=R9 - startup only, loop not serving yet
                    return request
            """,
        }, rules=["R9"])
        assert report.clean and report.suppressed == 1


# ------------------------------------------------------ multi-line pragma


class TestMultiLinePragma:
    def test_pragma_on_continuation_line_suppresses(self, tmp_path):
        # The finding anchors at the statement head (line of `req =`);
        # the pragma trails the closing paren two lines down.
        report = run_tree(tmp_path, {
            "parallel/halo.py": """
                def post(comm, buf):
                    comm.isend(
                        buf,
                        1,
                    )  # repro: disable=R1 - fire-and-forget diagnostic send
            """,
        }, rules=["R1"])
        assert report.clean and report.suppressed == 1

    def test_pragma_on_head_line_still_works(self, tmp_path):
        report = run_tree(tmp_path, {
            "parallel/halo.py": """
                def post(comm, buf):
                    comm.isend(  # repro: disable=R1 - fire-and-forget diagnostic
                        buf,
                        1,
                    )
            """,
        }, rules=["R1"])
        assert report.clean and report.suppressed == 1


# -------------------------------------------------------------------- SARIF


class TestSarif:
    def test_round_trip_and_validation(self, tmp_path):
        report = run_tree(tmp_path, {
            "parallel/sync.py": """
                def drive(comm):
                    if comm.rank == 0:
                        comm.barrier()
            """,
        }, rules=["R6"])
        doc = json.loads(json.dumps(to_sarif(report)))
        assert validate_sarif(doc) == []
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro.analysis"
        declared = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"R1", "R6", "R9"} <= declared
        (result,) = run["results"]
        assert result["ruleId"] == "R6"
        loc = result["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"].endswith("parallel/sync.py")
        assert loc["region"]["startLine"] >= 1

    def test_validator_rejects_structural_damage(self, tmp_path):
        report = run_tree(tmp_path, {
            "parallel/sync.py": """
                def drive(comm):
                    if comm.rank == 0:
                        comm.barrier()
            """,
        }, rules=["R6"])
        doc = to_sarif(report)
        doc["version"] = "2.0.0"
        del doc["runs"][0]["results"][0]["message"]
        problems = validate_sarif(doc)
        assert any("version" in p for p in problems)
        assert any("message.text" in p for p in problems)

    def test_cli_writes_sarif_file(self, tmp_path, capsys):
        target = tmp_path / "parallel" / "sync.py"
        target.parent.mkdir(parents=True)
        target.write_text(textwrap.dedent("""
            def drive(comm):
                if comm.rank == 0:
                    comm.barrier()
        """))
        sarif_file = tmp_path / "out.sarif"
        code = cli_main([
            "check", str(tmp_path), "--no-baseline",
            "--sarif", str(sarif_file),
        ])
        capsys.readouterr()
        assert code == 1
        doc = json.loads(sarif_file.read_text())
        assert validate_sarif(doc) == []
        assert doc["runs"][0]["results"]


# --------------------------------------------------------------------- diff


class TestDiffMode:
    def _git(self, cwd, *argv):
        subprocess.run(
            ["git", *argv], cwd=cwd, check=True, capture_output=True,
        )

    def test_diff_reports_only_changed_files(self, tmp_path, capsys):
        write_tree(tmp_path, {
            "parallel/old.py": """
                def drive(comm):
                    if comm.rank == 0:
                        comm.barrier()
            """,
            "parallel/untouched.py": """
                def settle(comm):
                    comm.allreduce(1)
            """,
        })
        self._git(tmp_path, "init", "-q")
        self._git(tmp_path, "-c", "user.email=t@t", "-c", "user.name=t",
                  "add", ".")
        self._git(tmp_path, "-c", "user.email=t@t", "-c", "user.name=t",
                  "commit", "-qm", "seed")
        # New (staged) file with a fresh finding; the committed finding
        # in old.py must NOT be reported in diff mode.
        write_tree(tmp_path, {
            "parallel/new.py": """
                def fresh(comm):
                    if comm.rank == 1:
                        comm.gather(1)
            """,
        })
        self._git(tmp_path, "add", "parallel/new.py")
        code = cli_main([
            "check", str(tmp_path), "--no-baseline", "--rules", "R6",
            "--diff", "HEAD", "--format", "json",
        ])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert [f["path"] for f in out["findings"]] == [
            str(tmp_path / "parallel" / "new.py")
        ]

    def test_diff_falls_back_outside_git(self, tmp_path, capsys):
        write_tree(tmp_path, {
            "parallel/sync.py": """
                def drive(comm):
                    if comm.rank == 0:
                        comm.barrier()
            """,
        })
        code = cli_main([
            "check", str(tmp_path), "--no-baseline", "--rules", "R6",
            "--diff", "deadbeef", "--format", "json",
        ])
        captured = capsys.readouterr()
        assert code == 1  # fell back to a full (finding-bearing) run
        assert "checking everything" in captured.err


# ----------------------------------------------------- repo-level evidence


class TestRepoEvidence:
    def test_new_rules_clean_on_real_sources_with_baseline(self):
        """The same gate CI enforces, restricted to the new rules: the
        shipped sources carry zero unsuppressed R6/R7/R9 findings."""
        baseline = Baseline.load(REPO_ROOT / Baseline.FILENAME)
        report = check_paths(
            [REPO_ROOT / "src"], baseline=baseline,
            rule_ids=["R6", "R7", "R9"],
        )
        assert report.clean, "\n".join(str(f) for f in report.findings)
