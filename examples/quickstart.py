#!/usr/bin/env python
"""Quickstart: one global earthquake simulation in ~a minute.

Meshes a coarse cubed-sphere Earth (all three regions: solid crust/mantle,
fluid outer core, solid inner core with the inflated central cube), places
an explosive source under the north pole, runs the coupled spectral-element
solver, and prints a summary of the three-station seismograms.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import SimulationParameters, run_global_simulation
from repro.analysis import waveform_summary
from repro.apps import default_source, default_stations


def main() -> None:
    params = SimulationParameters(
        nex_xi=8,            # 8 elements per chunk edge (coarse demo mesh)
        nproc_xi=1,          # 6 slices (one per cubed-sphere chunk)
        ner_crust_mantle=3,
        ner_outer_core=2,
        ner_inner_core=1,
        nstep_override=150,  # a short record to keep the demo quick
    )
    print(f"mesh resolution NEX_XI={params.nex_xi} "
          f"(~{params.shortest_period_s:.0f} s shortest period), "
          f"{params.nproc_total} slices")

    result = run_global_simulation(
        params,
        sources=[default_source(depth_km=100.0)],
        stations=default_stations(),
        track_energy=True,
    )

    print(f"mesher: {result.mesher_wall_s:.1f} s wall   "
          f"solver: {result.solver_wall_s:.1f} s wall   "
          f"dt = {result.dt:.2f} s   steps = {result.solver_result.n_steps}")
    print(f"mesh: {result.mesh.nspec_total} elements, "
          f"{result.mesh.nglob_total} global points "
          f"({result.mesh.cube_elements} in the central cube)")

    for station in ("POLE", "D45", "D90"):
        trace = result.seismogram(station)
        vertical = trace[:, 2]
        s = waveform_summary(vertical, result.dt)
        arrival = f"{s['arrival_s']:.0f} s" if s["arrival_s"] else "n/a"
        print(f"  {station:>5}: peak {s['peak']:.3e} m, "
              f"first arrival ~{arrival}")

    energy = result.solver_result.energy_history
    print(f"kinetic energy: peak {energy.max():.3e} J, "
          f"final/peak = {energy[-1] / energy.max():.2f}")

    # Outputs: SPECFEM-style .semd seismograms + a ParaView-ready snapshot
    # of the final surface wavefield.
    from pathlib import Path

    from repro.config import constants
    from repro.io import write_ascii_seismograms, write_vtk_surface
    from repro.mesh import external_faces, faces_at_radius
    from repro.model.prem import RegionCode

    out = Path("quickstart_output")
    files = write_ascii_seismograms(result.solver_result.receivers, out)
    cm = result.mesh.regions[RegionCode.CRUST_MANTLE]
    surface = faces_at_radius(
        cm.xyz, external_faces(cm.ibool), constants.R_EARTH_KM
    )
    # Final displacement magnitude at every global point of the crust/mantle.
    displ = np.linalg.norm(
        result.solver.solid[RegionCode.CRUST_MANTLE].displ[0], axis=1
    )
    vtk = write_vtk_surface(cm, surface, out / "surface.vtk",
                            point_data={"displacement_m": displ})
    print(f"wrote {len(files)} .semd files and {vtk} to {out}/")


if __name__ == "__main__":
    main()
