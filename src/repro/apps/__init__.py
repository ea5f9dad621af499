"""Application drivers: mesher, solver, and the merged single application."""

from .merged_app import (
    GlobalSimulationResult,
    SegmentInfo,
    run_global_simulation,
    run_legacy_two_program,
)
from .meshfem import mesh_globe_to_databases
from .specfem import default_source, default_stations

__all__ = [
    "GlobalSimulationResult",
    "SegmentInfo",
    "run_global_simulation",
    "run_legacy_two_program",
    "mesh_globe_to_databases",
    "default_source",
    "default_stations",
]
