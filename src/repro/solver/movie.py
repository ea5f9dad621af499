"""Surface movie output — snapshots of the wavefield at the free surface.

SPECFEM3D_GLOBE's movie mode writes the surface wavefield every N steps
for visualisation (the famous global wave-propagation animations).  The
:class:`SurfaceMovieRecorder` hooks into the solver's per-step callback,
buffers the surface displacement, and writes a ParaView-ready VTK series.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..config import constants
from ..mesh.interfaces import external_faces, face_values, faces_at_radius

__all__ = ["SurfaceMovieRecorder"]


class SurfaceMovieRecorder:
    """Record the free-surface displacement every ``every`` steps.

    Usage::

        movie = SurfaceMovieRecorder(solver, every=10)
        solver.run(callbacks=[movie.on_step])
        movie.write_vtk_series("movie/")
    """

    def __init__(self, solver, every: int = 10):
        from ..model.prem import RegionCode

        if every < 1:
            raise ValueError(f"'every' must be >= 1, got {every}")
        self.every = int(every)
        self.region_code = RegionCode.CRUST_MANTLE
        st = solver.regions[self.region_code]
        self._mesh = st.mesh
        faces = faces_at_radius(
            st.mesh.xyz,
            external_faces(st.ibool),
            constants.R_EARTH_KM,
            rel_tolerance=solver._surface_tolerance(),
            radial_faces_only=solver._deformed_surfaces(),
        )
        if not len(faces):
            raise ValueError("mesh has no free-surface faces to record")
        self.faces = faces
        self.point_ids = np.unique(face_values(st.ibool, faces))
        self.frames: list[np.ndarray] = []
        self.frame_steps: list[int] = []
        self._solver = solver

    def on_step(self, step: int, solver) -> None:
        """Per-step callback for :meth:`GlobalSolver.run`."""
        if step % self.every == 0:
            displ = solver.solid[self.region_code].displ[0]  # event 0
            self.frames.append(displ[self.point_ids].copy())
            self.frame_steps.append(step)

    @property
    def n_frames(self) -> int:
        return len(self.frames)

    def write_vtk_series(self, directory: str | Path) -> list[Path]:
        """Write one surface VTK file per recorded frame."""
        from ..io.vtk import write_vtk_surface

        if not self.frames:
            raise ValueError("no frames recorded")
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        written: list[Path] = []
        nglob = self._mesh.nglob
        for frame_index, (step, values) in enumerate(
            zip(self.frame_steps, self.frames)
        ):
            field = np.zeros((nglob, 3))
            field[self.point_ids] = values
            magnitude = np.zeros(nglob)
            magnitude[self.point_ids] = np.linalg.norm(values, axis=1)
            path = write_vtk_surface(
                self._mesh,
                self.faces,
                directory / f"surface_{frame_index:04d}.vtk",
                point_data={
                    "displacement": field,
                    "magnitude": magnitude,
                },
            )
            written.append(path)
        return written
