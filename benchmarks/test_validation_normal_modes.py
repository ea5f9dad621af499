"""V-MODES — The globe solver vs analytic normal modes (paper Section 3).

The analogue of SPECFEM's benchmark "against semi-analytical normal-mode
synthetic seismograms": the full 3-D cubed-sphere solver (central cube
included), loaded with a homogeneous solid sphere and initialised with the
analytic _0T_2 toroidal eigenmode, must oscillate at the analytic
eigenfrequency.
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


def test_0T2_period(benchmark, record):
    vs, vp, rho = 4000.0, 6928.0, 4500.0
    omega = toroidal_eigenfrequencies(2, vs, constants.R_EARTH_M, 1)[0]
    period_analytic = 2 * np.pi / omega

    def run():
        params = SimulationParameters(
            nex_xi=4, nproc_xi=1, ner_crust_mantle=3, ner_outer_core=2,
            ner_inner_core=1, uniform_radial_layers=True,
        )
        mesh = build_global_mesh(params)
        make_homogeneous(mesh, rho=rho, vp=vp, vs=vs)
        solver = GlobalSolver(mesh, params)
        solver.set_initial_condition(
            lambda coords: 1e-3 * toroidal_mode_displacement(coords, 2, omega, vs)
        )
        cm = solver.regions[0]
        coords = np.empty((cm.nglob, 3))
        coords[cm.ibool.ravel()] = cm.mesh.xyz.reshape(-1, 3)
        target = constants.R_EARTH_KM / np.sqrt(2) * np.array([1.0, 0.0, 1.0])
        probe = int(np.argmin(np.linalg.norm(coords - target, axis=1)))
        n_steps = int(np.ceil(1.6 * period_analytic / solver.dt))
        trace = np.empty(n_steps)
        for step in range(n_steps):
            solver._one_step(step * solver.dt)
            trace[step] = solver.solid[0].displ[0, probe, 1]
        return measure_period_zero_crossings(trace, solver.dt)

    period_sem = benchmark.pedantic(run, rounds=1, iterations=1)
    error = abs(period_sem - period_analytic) / period_analytic
    assert error < 0.05
    record(
        analytic_period_s=round(period_analytic, 1),
        sem_period_s=round(period_sem, 1),
        relative_error_pct=round(100 * error, 2),
        paper="benchmarked against semi-analytical normal-mode synthetic "
              "seismograms (Section 3)",
    )
