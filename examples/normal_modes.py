#!/usr/bin/env python
"""Free oscillations: the SEM globe vs analytic normal modes.

SPECFEM3D_GLOBE's accuracy pedigree (paper Section 3) comes from
benchmarks against semi-analytical normal-mode seismograms.  This example
performs the homogeneous-sphere version of that benchmark live: it loads
the full cubed-sphere mesh (central cube and all) with a homogeneous
solid, kicks it with the analytic _0T_2 toroidal eigenmode, and measures
the oscillation period of the free-running solver against the analytic
eigenfrequency.

Run:  python examples/normal_modes.py     (takes a minute or two)
"""

import numpy as np

from repro.analysis import (
    make_homogeneous,
    measure_period_zero_crossings,
    toroidal_eigenfrequencies,
    toroidal_mode_displacement,
)
from repro.config import constants
from repro.config.parameters import SimulationParameters
from repro.mesh import build_global_mesh
from repro.solver import GlobalSolver


def main() -> None:
    vs, vp, rho = 4000.0, 6928.0, 4500.0
    omegas = toroidal_eigenfrequencies(2, vs, constants.R_EARTH_M, n_modes=3)
    print("analytic toroidal spectrum of the homogeneous sphere "
          f"(vs = {vs / 1000:.1f} km/s):")
    for n, w in enumerate(omegas):
        print(f"  _{n}T_2: period {2 * np.pi / w:7.1f} s")

    params = SimulationParameters(
        nex_xi=4, nproc_xi=1, ner_crust_mantle=2, ner_outer_core=1,
        ner_inner_core=1, uniform_radial_layers=True,
    )
    mesh = build_global_mesh(params)
    make_homogeneous(mesh, rho=rho, vp=vp, vs=vs)
    solver = GlobalSolver(mesh, params)
    print(f"\nSEM sphere: {mesh.nspec_total} elements, dt = {solver.dt:.2f} s"
          f" (entirely solid: fluid region overridden)")

    omega0 = omegas[0]
    solver.set_initial_displacement(
        lambda coords: 1e-3 * toroidal_mode_displacement(coords, 2, omega0, vs)
    )
    cm = solver.regions[0]
    coords = np.empty((cm.nglob, 3))
    coords[cm.ibool.ravel()] = cm.mesh.xyz.reshape(-1, 3)
    target = constants.R_EARTH_KM / np.sqrt(2) * np.array([1.0, 0.0, 1.0])
    probe = int(np.argmin(np.linalg.norm(coords - target, axis=1)))

    period_analytic = 2 * np.pi / omega0
    n_steps = int(np.ceil(1.3 * period_analytic / solver.dt))
    print(f"marching {n_steps} steps (~1.3 analytic periods)...")
    trace = np.empty(n_steps)
    for step in range(n_steps):
        solver._one_step(step * solver.dt)
        trace[step] = solver.solid[0].displ[0, probe, 1]

    period_sem = measure_period_zero_crossings(trace, solver.dt)
    err = 100 * abs(period_sem - period_analytic) / period_analytic
    print(f"\n_0T_2 period: analytic {period_analytic:.1f} s, "
          f"SEM {period_sem:.1f} s  ({err:.2f}% error on a NEX=4 mesh)")


if __name__ == "__main__":
    main()
