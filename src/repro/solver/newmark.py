"""Explicit second-order (Newmark) time marching.

Section 2.4 of the paper: with the diagonal mass matrix, the global system
``M U'' + K U = F`` is marched with the classical explicit second-order
finite-difference (central-difference / Newmark gamma=1/2, beta=0) scheme,
conditionally stable under the Courant limit.  The scheme is split into a
*predictor* (advance displacement with the old acceleration, half-advance
velocity) and a *corrector* (finish the velocity with the new
acceleration) so that force evaluation happens exactly once per step.

Every update here is an elementwise in-place ufunc call with ``out=``,
so it is shape-agnostic: the solver applies it to whole ``(B, nglob[,
3])`` field arrays (:mod:`repro.solver.fields`), which performs, for each
event, exactly the scalar operations of advancing that event alone.
Callers own the arrays; the accumulators are never reallocated.
"""

from __future__ import annotations

import numpy as np

__all__ = ["predictor", "corrector", "predictor_scalar", "corrector_scalar"]


def predictor(displ: np.ndarray, veloc: np.ndarray, accel: np.ndarray, dt: float) -> None:
    """In-place predictor: v += dt/2 a ; u += dt v ; a = 0.

    The half-stepped velocity carries ``u += dt v + dt^2/2 a`` in one
    product, and the acceleration array — zeroed at the end anyway — is
    the scratch, so nothing is allocated.
    """
    np.multiply(accel, 0.5 * dt, out=accel)
    np.add(veloc, accel, out=veloc)
    np.multiply(veloc, dt, out=accel)
    np.add(displ, accel, out=displ)
    accel.fill(0.0)


def corrector(
    veloc: np.ndarray, accel: np.ndarray, dt: float, work: np.ndarray | None = None
) -> None:
    """In-place corrector with the newly computed acceleration; ``work``
    (shaped like ``accel``, clobbered) spares the temporary."""
    np.add(veloc, np.multiply(accel, 0.5 * dt, out=work), out=veloc)


# The scalar (fluid potential) variants are identical numerically; separate
# names keep call sites self-documenting.
predictor_scalar = predictor
corrector_scalar = corrector
