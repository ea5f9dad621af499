"""The weak-form stiffness routine every region shares: ``-B^T C B``.

:meth:`StiffnessOperator.apply` serves the elastic solid (three
components) and the acoustic fluid (one); per block of elements

    load -> d/dxi (hprime, 3 axes) -> physical gradient -> *stress law*
         -> flux on the reference axes -> hprime^T (3 axes) -> -sum

in **component-leading** layout, SPECFEM's own (``xix .. gammaz`` as
separate unit-stride arrays): an operand with tensor indices ``[a, b]``
is stored ``(a, b, element, point)``, so each per-point 3x3 contraction
is five broadcast ``np.multiply``/``np.add(out=)`` calls over contiguous
vectors and each ``hprime`` contraction one batched ``np.matmul(out=)``.
Every intermediate lives in the :class:`Workspace` the caller hands
:meth:`StiffnessOperator.apply` with the blocks to run, so lanes that
run disjoint blocks of one subset at once never share a work vector.

:data:`BLOCK` keeps the work vectors in L2 (2 MiB per core here).  Best
whole step in ms of the NEX 8 globe (2048 elements, one BLAS thread),
attenuated / elastic: 16 -> 50.1 / 33.5, 32 -> 44.9 / 28.3, 48 -> 41.3 /
28.0, 64 -> 42.7 / 26.7, 96 -> 45.4 / 29.4, 128 -> 46.2 / 30.9, 256 ->
46.3 / 30.5, unblocked 49.7 / 32.7.

Bit-identity within a build (subset rows == full-region rows, any block,
any event): everything pointwise is an elementwise ufunc, and every
``hprime`` product has the same per-item shape — ``(n,n)@(n,n^2)``,
``(n,n)@(n,n)`` per plane, ``(n^2,n)@(n,n)`` — whatever the number of
items (BLAS results depend on the item's shape, not on how many items a
call batches).  No reduction runs over the element axis.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from ..gll.lagrange import GLLBasis

if TYPE_CHECKING:
    from .geometry import ElementGeometry

__all__ = [
    "BLOCK",
    "Workspace",
    "StiffnessOperator",
    "carve",
    "reference_derivatives",
]

#: Elements per block (measurement in the module docstring).
BLOCK = 64


def _contract_batched(axis, m, mt, src, dst, n):  # repro: hot-loop
    """Apply the (n, n) matrix ``m`` (``mt`` its contiguous transpose)
    along local axis ``axis`` of every n^3-point item of ``src (...,
    element, n^3)`` into ``dst``: all items at once, one batched matmul —
    the vector-unit analog of the paper's kernels."""
    lead = src.shape[:-1]
    if axis == 0:
        np.matmul(m, src.reshape(*lead, n, n * n), out=dst.reshape(*lead, n, n * n))
    elif axis == 1:
        np.matmul(m, src.reshape(*lead, n, n, n), out=dst.reshape(*lead, n, n, n))
    else:
        np.matmul(src.reshape(*lead, n * n, n), mt, out=dst.reshape(*lead, n * n, n))


def reference_derivatives(field: np.ndarray, basis: GLLBasis) -> np.ndarray:
    """``d field_c / d xi_l`` of a local ``(nspec, n, n, n, ncomp)`` field,
    as ``(3[l], ncomp, nspec, n^3)`` — allocating, for set-up (the
    Jacobian) and off-loop readers."""
    nspec, n, nc = field.shape[0], field.shape[1], field.shape[-1]
    h = np.ascontiguousarray(basis.hprime)
    ht = np.ascontiguousarray(h.T)
    x = np.ascontiguousarray(np.moveaxis(field.reshape(nspec, n**3, nc), -1, 0))
    t = np.empty((3, *x.shape), dtype=np.float64)
    for axis in range(3):
        _contract_batched(axis, h, ht, x, t[axis], n)
    return t


class Workspace:
    """Every work vector of one element block, allocated once.

    One per lane (:mod:`repro.solver.lanes`): a lane runs its blocks of
    every region, subset and event one after another in its own
    workspace, and ``lane`` is the index of the lane using it (0: the
    calling thread; a helper's is set by the run that takes it).  ``a``,
    ``b``, ``c`` hold nine block vectors each and are reused as their
    contents die; ``memory`` is the scratch the relax hook hands
    :meth:`repro.solver.attenuation.AttenuationState.relax`.  Pages of a
    buffer nobody uses (``memory`` without attenuation) are never
    touched, so they cost no resident memory.
    """

    def __init__(self, ngll: int, lane: int = 0):
        self.lane = lane
        vector = BLOCK * ngll**3
        self.a = np.empty(9 * vector, dtype=np.float64)
        self.b = np.empty(9 * vector, dtype=np.float64)
        self.c = np.empty(9 * vector, dtype=np.float64)
        self.memory = np.empty((3, 6 * vector), dtype=np.float64)


def carve(flat: np.ndarray, *shape: int) -> np.ndarray:
    """A contiguous ``shape`` view of the head of a flat buffer (so a
    short tail block is as unit-stride as a full one)."""
    return flat[: math.prod(shape)].reshape(shape)


class StiffnessOperator:
    """``field -> -B^T C B field`` on one element subset.

    Built once at set-up from the subset's geometry; subclasses supply
    the number of field components and the stress law ``C``
    (:meth:`_stress`).  Inputs and outputs are the local (gathered)
    fields in their natural ``(nspec, n, n, n[, 3])`` shape.  The
    operator holds no work space: each :meth:`apply` is handed one.
    """

    ncomp = 1
    #: How the cut-plane products run (:func:`_contract_batched`'s
    #: signature).  The A-SSE bench patches it with its losing arms.
    _contract = staticmethod(_contract_batched)

    def __init__(self, geom: ElementGeometry, basis: GLLBasis):
        self.dxi_dx = geom.dxi_dx
        self.nspec, self.npts = geom.dxi_dx.shape[2:]
        #: Element blocks of the subset, the unit :meth:`apply` runs.
        self.nblocks = -(-self.nspec // BLOCK)
        self.ngll = basis.ngll
        self.h = np.ascontiguousarray(basis.hprime)
        self.ht = np.ascontiguousarray(basis.hprime.T)

    def _stress(self, grad, stress, lo, hi, relax, ws) -> None:
        """Fill ``stress[c, d]`` — times the volume measure ``jweight`` —
        from ``grad[c, d] = d field_c / d x_d`` for elements ``lo:hi``
        (both ``(ncomp, 3, hi - lo, npts)``; ``grad`` may be destroyed).
        ``relax`` is the caller's memory-variable hook, if the law has one;
        ``ws`` the workspace of the call (its ``c`` is free)."""
        raise NotImplementedError

    def apply(self, field, out, relax, ws, first=0, last=None) -> None:  # repro: hot-loop
        """Write the rows of ``-K field`` of element blocks ``first:last``
        (default: to the end) into ``out`` (C-contiguous, shaped like
        ``field``), in work space ``ws``.  Calls on disjoint blocks, each
        with its own workspace, may run at once: they read ``field`` and
        write disjoint rows of ``out``.  Workspace use: ``a`` and ``b``
        alternate between the stages, ``c`` is the scratch of the two 3x3
        contractions and is free while :meth:`_stress` runs."""
        nc, npts, n = self.ncomp, self.npts, self.ngll
        contract, h, ht = self._contract, self.h, self.ht
        if out.shape != field.shape or not out.flags.c_contiguous:
            # reshape would copy, and the caller's array never be written
            raise ValueError("out must be C-contiguous and shaped like field")
        field = np.moveaxis(field.reshape(self.nspec, npts, nc), -1, 0)
        out = np.moveaxis(out.reshape(self.nspec, npts, nc), -1, 0)
        stop = self.nspec if last is None else min(self.nspec, last * BLOCK)
        for lo in range(first * BLOCK, stop, BLOCK):
            hi = min(lo + BLOCK, self.nspec)
            nb = hi - lo
            inv = self.dxi_dx[:, :, lo:hi]
            x = carve(ws.c, nc, nb, npts)
            np.copyto(x, field[:, lo:hi])
            t = carve(ws.a, 3, nc, nb, npts)
            for axis in range(3):
                contract(axis, h, ht, x, t[axis], n)
            # grad[c, d] = sum_l t[l, c] * dxi_l/dx_d
            grad = carve(ws.b, nc, 3, nb, npts)
            tmp = carve(ws.c, nc, 3, nb, npts)
            np.multiply(t[0][:, None], inv[0][None, :], out=grad)
            np.multiply(t[1][:, None], inv[1][None, :], out=tmp)
            np.add(grad, tmp, out=grad)
            np.multiply(t[2][:, None], inv[2][None, :], out=tmp)
            np.add(grad, tmp, out=grad)
            stress = carve(ws.a, nc, 3, nb, npts)
            self._stress(grad, stress, lo, hi, relax, ws)
            # flux[l, c] = sum_d stress[c, d] * dxi_l/dx_d
            flux = carve(ws.b, 3, nc, nb, npts)
            tmp = carve(ws.c, 3, nc, nb, npts)
            np.multiply(stress[:, 0][None, :], inv[:, 0][:, None], out=flux)
            np.multiply(stress[:, 1][None, :], inv[:, 1][:, None], out=tmp)
            np.add(flux, tmp, out=flux)
            np.multiply(stress[:, 2][None, :], inv[:, 2][:, None], out=tmp)
            np.add(flux, tmp, out=flux)
            # The -B^T step: the stress carries jweight, so plain hprime^T
            # is hprime_wgll with the two transverse weights folded in.
            div = carve(ws.a, 3, nc, nb, npts)
            for axis in range(3):
                contract(axis, ht, h, flux[axis], div[axis], n)
            np.add(div[0], div[1], out=div[0])
            np.add(div[0], div[2], out=div[0])
            np.negative(div[0], out=out[:, lo:hi])
