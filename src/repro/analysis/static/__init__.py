"""Domain-specific static analyzer (stdlib-``ast``, dependency-free).

Public surface re-exported from :mod:`.core`, :mod:`.rules` and
:mod:`.sarif`; the CLI lives in :mod:`repro.analysis.__main__`
(``python -m repro.analysis check src``).  See ``docs/analysis.md`` for
the rule catalog (R1–R6 and R9; R7 and R8 are retired), the
pragma/baseline workflow and the SARIF/CI integration.
"""

from .core import (
    REGISTRY,
    Baseline,
    FileContext,
    Finding,
    FunctionInfo,
    Project,
    Report,
    Rule,
    check_paths,
    normalize_path,
    register,
)
from . import rules as _rules  # noqa: F401  (populates REGISTRY on import)
from .sarif import to_sarif, validate_sarif

__all__ = [
    "Baseline",
    "FileContext",
    "Finding",
    "FunctionInfo",
    "Project",
    "REGISTRY",
    "Report",
    "Rule",
    "check_paths",
    "normalize_path",
    "register",
    "to_sarif",
    "validate_sarif",
]
