"""ANALYSIS-RT — Full-repo static analyzer wall-time guard.

The analyzer is a blocking CI gate and a pre-commit habit, so its
whole-program pass (every rule, the call graph and the taint fixpoint
over all of ``src/``) must stay interactive: under 10 s, the ceiling
``docs/analysis.md`` promises.

Timing is best-of-3 after one warm-up run (imports, bytecode, page
cache), the cleanest estimate of the pass's own cost.
"""

import time
from pathlib import Path

from repro.analysis.static import check_paths

SRC = Path(__file__).resolve().parent.parent / "src"
CEILING_S = 10.0
REPEATS = 3


def test_full_repo_analysis_under_10s(record):
    check_paths([SRC])  # warm-up
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        report = check_paths([SRC])
        best = min(best, time.perf_counter() - t0)

    record(
        full_repo_s=round(best, 3),
        files_checked=report.files_checked,
        ceiling_s=CEILING_S,
    )
    assert best < CEILING_S, (
        f"the full-repo analyzer pass took {best:.2f} s over "
        f"{report.files_checked} files; the ceiling is {CEILING_S:.0f} s"
    )
