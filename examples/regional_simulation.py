#!/usr/bin/env python
"""Regional single-chunk simulation with absorbing boundaries.

SPECFEM3D_GLOBE's second operating mode (paper Section 3): one cubed-
sphere chunk truncated at depth, with the paper's Figure-1 "artificial
absorbing boundary" (Stacey paraxial conditions) on the sides and bottom.
A shallow crustal earthquake is recorded by a small local network; the
same run with rigid boundaries shows the spurious reflected energy the
absorbing conditions remove.  The regional mesh runs on the same
``GlobalSolver`` as the globe: the Stacey boundary comes with the mesh's
absorbing faces, so the rigid run is the mesh without them.

Run:  python examples/regional_simulation.py
"""

import dataclasses

import numpy as np

from repro.config import constants
from repro.config.parameters import SimulationParameters
from repro.regional import build_regional_mesh
from repro.solver import GlobalSolver, MomentTensorSource, Station, gaussian_stf


def main() -> None:
    params = SimulationParameters(
        nex_xi=8, nproc_xi=1, ner_crust_mantle=3, nstep_override=1800,
    )
    regional = build_regional_mesh(params, chunk=0, depth_km=600.0)
    print(f"regional mesh: {regional.nspec} elements, one chunk, "
          f"0-{regional.depth_km:.0f} km depth")
    print(f"  free-surface faces: {len(regional.free_surface_faces)}, "
          f"absorbing faces: {len(regional.absorbing_faces)}")

    # Source near the truncation depth so downgoing waves hit the
    # absorbing bottom well within the record.
    source = MomentTensorSource(
        position=(0.0, 0.0, constants.R_EARTH_KM - 450.0),
        moment=5e18 * np.eye(3),
        stf=gaussian_stf(4.0),
        time_shift=8.0,
    )
    r = constants.R_EARTH_KM
    stations = [
        Station("NEAR", (0.0, 0.0, r)),
        Station("FAR", (r * np.sin(0.3), 0.0, r * np.cos(0.3))),
    ]

    rigid = dataclasses.replace(
        regional, absorbing_faces=regional.absorbing_faces[:0]
    )
    results = {}
    for label, mesh in (("absorbing", regional), ("rigid", rigid)):
        solver = GlobalSolver(mesh, params, sources=[source], stations=stations)
        results[label] = solver.run(track_energy=True)
        e = results[label].energy_history
        print(f"{label:>10}: dt={solver.dt:.3f}s, "
              f"late/peak energy = {e[-len(e) // 4:].mean() / e.max():.3f}")

    for st in ("NEAR", "FAR"):
        a = results["absorbing"].receivers.seismogram(st)
        b = results["rigid"].receivers.seismogram(st)
        window = slice(a.shape[0] // 2, None)
        rms_a = np.sqrt(np.mean(a[window] ** 2))
        rms_b = np.sqrt(np.mean(b[window] ** 2))
        print(f"  {st}: late-window RMS rigid/absorbing = {rms_b / rms_a:.2f}x")

    print("\nThe absorbing run's total energy drains as waves exit through")
    print("the bottom boundary (late/peak well below the rigid run's);")
    print("longer records widen the seismogram-level coda difference too.")


if __name__ == "__main__":
    main()
