"""Regional single-chunk meshes: one cubed-sphere chunk truncated at depth.

A :class:`RegionalMesh` is a mesh bundle, so it runs on
:class:`~repro.solver.GlobalSolver` like the globe does; the Stacey
absorbing boundary on its ``absorbing_faces`` is a term of that solver's
time step (:mod:`repro.solver.absorbing`).
"""

from .mesh import RegionalMesh, build_regional_mesh

__all__ = ["RegionalMesh", "build_regional_mesh"]
