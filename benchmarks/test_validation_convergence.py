"""V-SEM — Solver validation against analytic solutions (paper Section 3).

SPECFEM3D_GLOBE is "extensively benchmarked against semi-analytical
normal-mode synthetic seismograms"; the equivalent anchor here is the
Cartesian validation suite: plane-wave propagation error, spectral
convergence under refinement, and discrete energy conservation.

The boxes run on :class:`~repro.solver.GlobalSolver`, the loop every
production run takes.
"""

import numpy as np

from repro.cartesian import build_box_mesh, plane_s_wave
from repro.config.parameters import SimulationParameters
from repro.model.prem import RegionCode
from repro.solver import GlobalSolver


def _start(mesh, wave, courant: float, t_end: float) -> GlobalSolver:
    params = SimulationParameters(courant=courant, record_length_s=t_end)
    solver = GlobalSolver(mesh, params)
    solver.set_initial_condition(
        lambda x: wave.displacement(x, 0.0),
        lambda x: wave.velocity(x, 0.0),
    )
    return solver


def _propagation_error(n_elem: int, courant: float = 0.1) -> float:
    lengths = (1.0, 0.25, 0.25)
    mesh = build_box_mesh(
        (n_elem, 1, 1), lengths=lengths, periodic=True,
        rho=1.0, vp=np.sqrt(3.0), vs=1.0,
    )
    wave = plane_s_wave(lengths, vs=1.0)
    solver = _start(mesh, wave, courant, 0.25)
    solver.run()
    exact = wave.displacement(
        mesh.mesh.global_coordinates(), solver.n_steps * solver.dt
    )
    displ = solver.solid[RegionCode.CRUST_MANTLE].displ[0]
    return float(np.linalg.norm(displ - exact) / np.linalg.norm(exact))


def test_validation_convergence(benchmark, record):
    resolutions = [2, 3, 4]

    def sweep():
        return [(_propagation_error(n)) for n in resolutions]

    errors = benchmark.pedantic(sweep, rounds=1, iterations=1)

    # Monotone, fast (spectral) error decay under refinement.
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < errors[0] / 10.0
    assert errors[2] < 5e-4  # accurate at only 4 elements per wavelength

    record(
        elements_per_wavelength=resolutions,
        relative_l2_errors=[f"{e:.2e}" for e in errors],
        paper="the package has been extensively benchmarked against "
              "semi-analytical synthetic seismograms (Section 3)",
    )


def test_validation_energy_conservation(benchmark, record):
    lengths = (1.0, 0.5, 0.5)
    mesh = build_box_mesh((4, 2, 2), lengths=lengths, periodic=True,
                          vp=np.sqrt(3.0))
    wave = plane_s_wave(lengths, vs=1.0)

    def run():
        solver = _start(mesh, wave, 0.3, 1.0)
        e0 = solver.total_energy()
        solver.run()
        return e0, solver.total_energy()

    e0, e1 = benchmark.pedantic(run, rounds=1, iterations=1)
    drift = abs(e1 - e0) / e0
    assert drift < 1e-6
    record(
        initial_energy=e0,
        final_energy=e1,
        relative_drift=f"{drift:.2e}",
    )
