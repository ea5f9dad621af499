"""Compute kernels: elastic/acoustic internal forces, padding, flop counts.

Array contract
--------------
Every kernel is **single-event**: elastic ``u`` is ``(nspec, n, n, n,
3)``, acoustic ``chi`` is ``(nspec, n, n, n)``, and outputs mirror the
input.  All arrays are float64; geometry (:class:`ElementGeometry`) and
material arrays belong to the mesh.  A multi-event run shares one mesh
across B events, but the kernels never see the event axis: the loop
over events lives in :class:`repro.solver.solver.GlobalSolver`, which
calls each kernel on a ``displ[b]``-style view, so event ``b`` runs the
very code (and the one-event-wide temporaries) of a dedicated run —
bit-identity by construction, enforced by ``tests/test_batching.py``.
(A fused einsum with a free ``b`` subscript gives the same bits but
B-wide temporaries; it was measured slower once the working set left
cache — docs/batching.md has the numbers.)

Callers own every allocation: kernels return freshly computed arrays
but never resize or retain caller buffers, and the hot paths are
policed by static rule R3 (no per-call ``np.zeros``/``np.empty`` growth
in ``# repro: hot-loop`` functions).
"""

from .acoustic import compute_forces_acoustic, fluid_displacement
from .anisotropic import (
    TIModuli,
    compute_forces_elastic_ti,
    radial_frames,
    stress_ti,
)
from .elastic import (
    KERNEL_VARIANTS,
    compute_forces_elastic,
    compute_strain,
    displacement_gradient,
    stress_from_strain,
)
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
    "fluid_displacement",
    "TIModuli",
    "compute_forces_elastic_ti",
    "radial_frames",
    "stress_ti",
    "KERNEL_VARIANTS",
    "compute_forces_elastic",
    "compute_strain",
    "displacement_gradient",
    "stress_from_strain",
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
