"""The CPUs this process may use.

Two consumers share the count, and neither configures it:

* the virtual cluster grants that many **run slots**
  (:mod:`repro.parallel.comm`): at most one rank thread per CPU runs
  program code;
* a solver without a halo exchanger splits its force kernel across the
  caller and up to ``k - 1`` helper threads, drawn from one budget for
  the whole process (:data:`repro.solver.lanes.HELPERS`).

This module imports nothing from the package, so both the solver and
the parallel layer (which imports the solver) can depend on it.
"""

from __future__ import annotations

import os

__all__ = ["run_slot_count"]


def run_slot_count() -> int:
    """The CPUs this process may use (derived on every call, never set)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
