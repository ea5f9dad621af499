"""Simulation parameter handling (the analogue of SPECFEM's ``Par_file``).

:class:`SimulationParameters` collects every user-facing knob of the mesher
and solver — mesh resolution ``NEX_XI``, process-grid size ``NPROC_XI``,
physics switches (attenuation, rotation, gravity, oceans), kernel variant,
I/O mode — and validates the SPECFEM composition rules between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Mapping

from . import constants


class ConfigError(ValueError):
    """Base class for configuration errors (bad values or combinations).

    Catching this covers every misconfiguration the config layer can
    raise; the campaign retry policy classifies it as permanent — a bad
    Par_file does not get better on retry.
    """


class ParameterError(ConfigError):
    """Raised when a parameter combination violates a composition rule."""


#: Kernel implementation choices (see :mod:`repro.kernels`).
KERNEL_VARIANTS = ("baseline", "vectorized", "blas")

#: Mesher -> solver handoff modes (see :mod:`repro.io`).
IO_MODES = ("files", "merged")

#: Station-location algorithms (see :mod:`repro.solver.receivers`).
STATION_LOCATION_MODES = ("interpolated", "closest_point")


@dataclass(frozen=True)
class SimulationParameters:
    """Validated parameters for one mesher+solver run.

    Mirrors SPECFEM3D_GLOBE's ``Par_file``: ``nex_xi`` is the number of
    spectral elements along each side of each of the six cubed-sphere
    chunks at the surface, and ``nproc_xi`` the number of MPI slices along
    each side, for a total of ``6 * nproc_xi**2`` processes.
    """

    nex_xi: int = 16
    nproc_xi: int = 1

    # Radial discretisation: number of element layers per region.
    ner_crust_mantle: int = 4
    ner_outer_core: int = 2
    ner_inner_core: int = 1

    # Physics switches.
    attenuation: bool = False
    rotation: bool = False
    gravity: bool = False
    oceans: bool = False
    ellipticity: bool = False
    topography: bool = False
    transverse_isotropy: bool = False
    use_3d_model: bool = False

    # Numerics / engineering switches.
    #: Skip the PREM-discontinuity snapping of radial layers (used with
    #: homogeneous material models, e.g. normal-mode validation, where thin
    #: crustal layers would only shrink the stable time step).
    uniform_radial_layers: bool = False
    kernel_variant: str = "vectorized"
    use_cuthill_mckee: bool = True
    single_pass_mesher: bool = True
    station_location: str = "closest_point"
    io_mode: str = "merged"
    use_padding: bool = True
    #: Overlap halo communication with interior-element computation in
    #: distributed runs (non-blocking exchange; bit-identical to the
    #: blocking reference path, which remains the default).
    overlap_comm: bool = False

    # Time marching.
    record_length_s: float = 200.0
    courant: float = constants.COURANT_SUGGESTED
    nstep_override: int | None = None

    # Robustness.
    #: Run the numerical health sentinel every N steps (``None`` = off).
    #: See :mod:`repro.chaos.sentinel`.
    health_check_every: int | None = None

    # Reproducibility.
    seed: int = 12345

    def __post_init__(self) -> None:
        if self.nex_xi < 2:
            raise ParameterError(f"NEX_XI must be >= 2, got {self.nex_xi}")
        if self.nproc_xi < 1:
            raise ParameterError(f"NPROC_XI must be >= 1, got {self.nproc_xi}")
        if self.nex_xi % (2 * self.nproc_xi) != 0:
            # SPECFEM rule: NEX_XI must be a multiple of 2*NPROC_XI so each
            # slice holds an even, equal number of surface elements.
            raise ParameterError(
                f"NEX_XI ({self.nex_xi}) must be a multiple of 2*NPROC_XI "
                f"({2 * self.nproc_xi})"
            )
        if self.kernel_variant not in KERNEL_VARIANTS:
            raise ParameterError(
                f"kernel_variant must be one of {KERNEL_VARIANTS}, "
                f"got {self.kernel_variant!r}"
            )
        if self.io_mode not in IO_MODES:
            raise ParameterError(
                f"io_mode must be one of {IO_MODES}, got {self.io_mode!r}"
            )
        if self.station_location not in STATION_LOCATION_MODES:
            raise ParameterError(
                f"station_location must be one of {STATION_LOCATION_MODES}, "
                f"got {self.station_location!r}"
            )
        for name in ("ner_crust_mantle", "ner_outer_core", "ner_inner_core"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be >= 1")
        if not (0.0 < self.courant <= 1.0):
            raise ParameterError(f"courant must be in (0, 1], got {self.courant}")
        if self.record_length_s <= 0.0:
            raise ParameterError("record_length_s must be positive")
        if self.nstep_override is not None and self.nstep_override < 1:
            raise ParameterError(
                f"nstep_override must be >= 1, got {self.nstep_override}"
            )
        if self.health_check_every is not None and self.health_check_every < 1:
            raise ParameterError(
                f"health_check_every must be >= 1, "
                f"got {self.health_check_every}"
            )

    # -- Derived quantities ---------------------------------------------------

    @property
    def nproc_total(self) -> int:
        """Total process count: 6 chunks x NPROC_XI^2 slices."""
        return constants.NCHUNKS * self.nproc_xi**2

    @property
    def nex_per_slice(self) -> int:
        """Surface elements along one side of one slice."""
        return self.nex_xi // self.nproc_xi

    @property
    def shortest_period_s(self) -> float:
        """Shortest resolved period via the paper's Figure-5 relation."""
        return constants.shortest_period_for_nex(self.nex_xi)

    @property
    def ner_total(self) -> int:
        """Total radial element layers across all regions."""
        return self.ner_crust_mantle + self.ner_outer_core + self.ner_inner_core

    def step_count(self, dt: float) -> int:
        """Time steps of a run at ``dt``: ``nstep_override`` when set, else
        enough to cover ``record_length_s``."""
        if self.nstep_override is not None:
            return int(self.nstep_override)
        return max(1, int(math.ceil(self.record_length_s / dt)))

    def with_updates(self, **changes: Any) -> "SimulationParameters":
        """Return a copy with the given fields replaced (re-validated)."""
        return replace(self, **changes)

    # -- Par_file-style round trip -------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Serialise to a plain dict (Par_file analogue)."""
        return {
            "NEX_XI": self.nex_xi,
            "NPROC_XI": self.nproc_xi,
            "NER_CRUST_MANTLE": self.ner_crust_mantle,
            "NER_OUTER_CORE": self.ner_outer_core,
            "NER_INNER_CORE": self.ner_inner_core,
            "ATTENUATION": self.attenuation,
            "ROTATION": self.rotation,
            "GRAVITY": self.gravity,
            "OCEANS": self.oceans,
            "ELLIPTICITY": self.ellipticity,
            "TOPOGRAPHY": self.topography,
            "TRANSVERSE_ISOTROPY": self.transverse_isotropy,
            "USE_3D_MODEL": self.use_3d_model,
            "UNIFORM_RADIAL_LAYERS": self.uniform_radial_layers,
            "KERNEL_VARIANT": self.kernel_variant,
            "USE_CUTHILL_MCKEE": self.use_cuthill_mckee,
            "SINGLE_PASS_MESHER": self.single_pass_mesher,
            "STATION_LOCATION": self.station_location,
            "IO_MODE": self.io_mode,
            "USE_PADDING": self.use_padding,
            "OVERLAP_COMM": self.overlap_comm,
            "RECORD_LENGTH_S": self.record_length_s,
            "COURANT": self.courant,
            "NSTEP_OVERRIDE": self.nstep_override,
            "HEALTH_CHECK_EVERY": self.health_check_every,
            "SEED": self.seed,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "SimulationParameters":
        """Rebuild from :meth:`to_dict` output (unknown keys rejected)."""
        mapping = {
            "NEX_XI": "nex_xi",
            "NPROC_XI": "nproc_xi",
            "NER_CRUST_MANTLE": "ner_crust_mantle",
            "NER_OUTER_CORE": "ner_outer_core",
            "NER_INNER_CORE": "ner_inner_core",
            "ATTENUATION": "attenuation",
            "ROTATION": "rotation",
            "GRAVITY": "gravity",
            "OCEANS": "oceans",
            "ELLIPTICITY": "ellipticity",
            "TOPOGRAPHY": "topography",
            "TRANSVERSE_ISOTROPY": "transverse_isotropy",
            "USE_3D_MODEL": "use_3d_model",
            "UNIFORM_RADIAL_LAYERS": "uniform_radial_layers",
            "KERNEL_VARIANT": "kernel_variant",
            "USE_CUTHILL_MCKEE": "use_cuthill_mckee",
            "SINGLE_PASS_MESHER": "single_pass_mesher",
            "STATION_LOCATION": "station_location",
            "IO_MODE": "io_mode",
            "USE_PADDING": "use_padding",
            "OVERLAP_COMM": "overlap_comm",
            "RECORD_LENGTH_S": "record_length_s",
            "COURANT": "courant",
            "NSTEP_OVERRIDE": "nstep_override",
            "HEALTH_CHECK_EVERY": "health_check_every",
            "SEED": "seed",
        }
        kwargs: dict[str, Any] = {}
        for key, value in d.items():
            if key not in mapping:
                raise ParameterError(f"unknown Par_file key: {key!r}")
            kwargs[mapping[key]] = value
        return cls(**kwargs)


def params_for_period(
    period_s: float, nproc_xi: int = 1, **overrides: Any
) -> SimulationParameters:
    """Build parameters resolving a target shortest period.

    Rounds NEX_XI up to the nearest multiple of ``2*nproc_xi`` so the
    composition rule holds; the achieved period is therefore <= ``period_s``.
    """
    nex = constants.nex_for_shortest_period(period_s)
    step = 2 * nproc_xi
    nex = int(math.ceil(nex / step)) * step
    return SimulationParameters(nex_xi=nex, nproc_xi=nproc_xi, **overrides)
