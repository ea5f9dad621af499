"""The solver: time marching, assembly, coupling, sources, receivers."""

from .absorbing import StaceyBoundary, build_stacey_boundary
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .movie import SurfaceMovieRecorder
from .assembly import (
    assemble_mass_matrix,
    assemble_scalar_mass_matrix,
    gather,
    scatter_add,
)
from .attenuation import AttenuationState, build_attenuation
from .body_terms import coriolis_local_force, gravity_local_force
from .coupling import CouplingOperator, build_coupling_operator
from .fields import FluidField, SolidField
from .newmark import corrector, corrector_scalar, predictor, predictor_scalar
from .oceans import OceanLoad, build_ocean_load
from .prepared import PreparedMesh
from .receivers import LocatedReceiver, ReceiverSet, Station, locate_receivers
from .solver import GlobalSolver, SolverResult, SolverTimings
from .sources import (
    MomentTensorSource,
    PointForceSource,
    gaussian_stf,
    moment_tensor_source_array,
    point_force_source_array,
    ricker_stf,
    step_stf,
)

__all__ = [
    "StaceyBoundary",
    "build_stacey_boundary",
    "CheckpointError",
    "load_checkpoint",
    "save_checkpoint",
    "SurfaceMovieRecorder",
    "assemble_mass_matrix",
    "assemble_scalar_mass_matrix",
    "gather",
    "scatter_add",
    "AttenuationState",
    "build_attenuation",
    "coriolis_local_force",
    "gravity_local_force",
    "CouplingOperator",
    "build_coupling_operator",
    "FluidField",
    "SolidField",
    "corrector",
    "corrector_scalar",
    "predictor",
    "predictor_scalar",
    "OceanLoad",
    "build_ocean_load",
    "PreparedMesh",
    "LocatedReceiver",
    "ReceiverSet",
    "Station",
    "locate_receivers",
    "GlobalSolver",
    "SolverResult",
    "SolverTimings",
    "MomentTensorSource",
    "PointForceSource",
    "gaussian_stf",
    "moment_tensor_source_array",
    "point_force_source_array",
    "ricker_stf",
    "step_stf",
]
