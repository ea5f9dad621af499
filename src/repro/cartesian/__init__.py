"""Cartesian validation problems: box meshes (mesh bundles that
:class:`~repro.solver.GlobalSolver` runs) and analytic waves."""

from .box import BoxMesh, build_box_mesh
from .waves import (
    PlaneWave,
    acoustic_standing_mode,
    plane_p_wave,
    plane_s_wave,
)

__all__ = [
    "BoxMesh",
    "build_box_mesh",
    "PlaneWave",
    "acoustic_standing_mode",
    "plane_p_wave",
    "plane_s_wave",
]
