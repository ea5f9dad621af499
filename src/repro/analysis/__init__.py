"""Analysis layer: seismogram analysis, static invariants, comm sanitizer.

Three sub-areas share this package:

* seismogram analysis (:mod:`.comparison`, :mod:`.normal_modes`) —
  misfits, spectra, mode measurements, re-exported here;
* the static analyzer (:mod:`.static`) — the dependency-free rule pack
  enforcing the codebase's SPMD and numerical invariants, driven by
  ``python -m repro.analysis check`` (:mod:`.__main__`);
* the runtime comm sanitizer (:mod:`.sanitizer`) — message/request
  lifecycle checking behind ``VirtualCluster(sanitize=True)``.

The sanitizer names are re-exported; the static framework is imported
explicitly (``from repro.analysis.static import check_paths``) to keep
``import repro.analysis`` light for the common seismogram path.
"""

from .comparison import (
    arrival_time,
    relative_l2_misfit,
    time_shift_crosscorrelation,
    waveform_summary,
)
from .normal_modes import (
    make_homogeneous,
    measure_period_zero_crossings,
    toroidal_characteristic,
    toroidal_eigenfrequencies,
    toroidal_mode_displacement,
)
from .sanitizer import (
    CommSanitizer,
    CommSanitizerError,
    SanitizerFinding,
    SanitizerReport,
)

__all__ = [
    "CommSanitizer",
    "CommSanitizerError",
    "SanitizerFinding",
    "SanitizerReport",
    "arrival_time",
    "relative_l2_misfit",
    "time_shift_crosscorrelation",
    "waveform_summary",
    "make_homogeneous",
    "measure_period_zero_crossings",
    "toroidal_characteristic",
    "toroidal_eigenfrequencies",
    "toroidal_mode_displacement",
]
