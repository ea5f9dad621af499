"""Compute kernels: elastic/acoustic internal forces, padding, flop counts.

Array contract
--------------
Every kernel is **single-event**: elastic ``u`` is ``(nspec, n, n, n,
3)``, acoustic ``chi`` is ``(nspec, n, n, n)``, and outputs mirror the
input.  All arrays are float64; geometry (:class:`ElementGeometry`) and
material arrays belong to the mesh.  A multi-event run shares one mesh
across B events, but the kernels never see the event axis: the loop
over events lives in :class:`repro.solver.solver.GlobalSolver`, which
calls each operator on a ``displ[b]``-style view, so event ``b`` runs the
very code (and the one-block-wide work vectors) of a dedicated run —
bit-identity by construction, enforced by ``tests/test_batching.py``.

Inside a kernel every operand is **component-leading** and elements are
processed ``BLOCK`` at a time (:mod:`repro.kernels.weakform`): the
inverse Jacobian ``ElementGeometry.dxi_dx`` is ``(3, 3, nspec, n^3)``;
strain, stress and memory variables are their six independent components.

Callers own every allocation.  The time loop uses the operators
(:class:`.elastic.ElasticOperator`, :class:`.acoustic.AcousticOperator`):
built once at set-up, they write into the caller's output and the
:class:`.weakform.Workspace` of the lane that runs the blocks, and
allocate nothing.  The ``compute_forces_*`` functions are their
stateless forms (a fresh operator, workspace and result per call) for
off-loop readers.  Static rule R3 polices the hot
paths (``# repro: hot-loop`` functions: no ``np.zeros``/``empty``/
``stack``, no ``einsum``/``matmul``/``multiply``/``add``/``subtract``
without ``out=``).
"""

from .acoustic import compute_forces_acoustic
from .anisotropic import (
    TIModuli,
    compute_forces_elastic_ti,
    radial_frames,
    stress_ti,
)
from .elastic import compute_forces_elastic, displacement_gradient
from .flops import (
    acoustic_kernel_flops,
    attenuation_update_flops,
    elastic_kernel_flops,
    newmark_update_flops,
    timestep_flops,
)
from .geometry import ElementGeometry, compute_geometry
from .padding import pad_elements, padding_overhead, unpad_elements

__all__ = [
    "compute_forces_acoustic",
    "TIModuli",
    "compute_forces_elastic_ti",
    "radial_frames",
    "stress_ti",
    "compute_forces_elastic",
    "displacement_gradient",
    "acoustic_kernel_flops",
    "attenuation_update_flops",
    "elastic_kernel_flops",
    "newmark_update_flops",
    "timestep_flops",
    "ElementGeometry",
    "compute_geometry",
    "pad_elements",
    "padding_overhead",
    "unpad_elements",
]
