"""Wavefield state containers for the solid and fluid regions.

Array contract
--------------
Every field array carries a **leading event axis**: one time loop
advances B independent sources on the same mesh (the campaign-throughput
analogue of the paper's 4-wide SSE/Altivec batching), and a single-event
run is simply ``B = 1``:

====================  ==================
array                 shape
====================  ==================
``SolidField.displ``  ``(B, nglob, 3)``
``SolidField.veloc``  ``(B, nglob, 3)``
``SolidField.accel``  ``(B, nglob, 3)``
``FluidField.chi``    ``(B, nglob)``
====================  ==================

(``chi_dot`` / ``chi_ddot`` mirror ``chi``.)  All arrays are float64,
C-contiguous, and allocated exactly once here by ``zeros`` — the solver
and the halo exchange mutate them in place and never reallocate (rule
R3).  Only :class:`~repro.solver.solver.GlobalSolver` and the two
serialisers of its state (``checkpoint.py``, ``resilience/remap.py``)
know the event axis exists: the solver's phase functions hand every
component a ``displ[b]``-style *view* in the single-event layout
``(nglob[, 3])``, which is what makes bit-identity of event ``b`` with a
dedicated run hold by construction (see docs/batching.md).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SolidField", "FluidField"]


@dataclass
class SolidField:
    """Displacement / velocity / acceleration on a solid region's globals."""

    displ: np.ndarray
    veloc: np.ndarray
    accel: np.ndarray

    @classmethod
    def zeros(cls, nglob: int, batch: int = 1) -> "SolidField":
        shape = (batch, nglob, 3)
        return cls(
            displ=np.zeros(shape),
            veloc=np.zeros(shape),
            accel=np.zeros(shape),
        )

    @property
    def nglob(self) -> int:
        return self.displ.shape[-2]

    def kinetic_energy(self, mass: np.ndarray) -> float:
        """0.5 * v^T M v with the diagonal mass matrix (summed over events)."""
        return 0.5 * float(np.sum(mass[:, None] * self.veloc**2))


@dataclass
class FluidField:
    """Potential chi and its time derivatives on the fluid region's globals.

    The physical fluid displacement is ``(1/rho) grad(chi)`` and the
    pressure perturbation is ``-chi_ddot`` (Chaljub & Valette formulation).
    """

    chi: np.ndarray
    chi_dot: np.ndarray
    chi_ddot: np.ndarray

    @classmethod
    def zeros(cls, nglob: int, batch: int = 1) -> "FluidField":
        shape = (batch, nglob)
        return cls(
            chi=np.zeros(shape),
            chi_dot=np.zeros(shape),
            chi_ddot=np.zeros(shape),
        )

    @property
    def nglob(self) -> int:
        return self.chi.shape[-1]
