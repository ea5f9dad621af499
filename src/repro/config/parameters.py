"""Simulation parameter handling (the analogue of SPECFEM's ``Par_file``).

:class:`SimulationParameters` collects every user-facing knob of the mesher
and solver and validates the SPECFEM composition rules between them.  Its
fields are the one parameter table: each declares a key once — its
Par_file name (the field name upper-cased), its type (the annotation,
checked at construction) and its key class (:data:`MESH`,
:data:`PHYSICS` or :data:`OBSERVE`, in ``field(metadata=...)``).  The
Par_file dict and text and every content key derive from the table
(:meth:`~SimulationParameters.key_payload`, :func:`content_digest`).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields, replace
from typing import Any, Mapping, NamedTuple, get_args, get_type_hints

from . import constants


class ConfigError(ValueError):
    """Base class for configuration errors (bad values or combinations).

    Catching this covers every misconfiguration the config layer can
    raise; the campaign retry policy classifies it as permanent — a bad
    Par_file does not get better on retry.
    """


class ParameterError(ConfigError):
    """Raised when a parameter combination violates a composition rule."""


#: Key classes: what flipping a key forks.
MESH = "mesh"  # the mesh, and so everything computed on it
PHYSICS = "physics"  # the wavefield's bits, not the mesh
OBSERVE = "observe"  # nothing computed
KEY_CLASSES = (MESH, PHYSICS, OBSERVE)

class RetiredKey(NamedTuple):
    """A Par_file key no code reads any more."""

    key_class: str  # the payloads that still hash it
    value: Any  # the one value every stored digest was made with
    same_bits: tuple  # the old values that computed ``value``'s bits


#: Retired Par_file keys.  :meth:`SimulationParameters.from_dict` drops
#: one at any of its ``same_bits`` values (old stores, spills and
#: Par_files stay valid) and rejects any other value, which computed
#: different bits; ``key_payload`` hashes each at its ``value`` in the
#: payloads of its class (no digest moved).  The last three are the
#: paper's losing ablation arms, which only their benchmarks now run.
RETIRED_KEYS: Mapping[str, RetiredKey] = {
    "USE_CUTHILL_MCKEE": RetiredKey(PHYSICS, True, (True, False)),
    "IO_MODE": RetiredKey(PHYSICS, "merged", ("files", "merged")),
    "USE_PADDING": RetiredKey(PHYSICS, True, (True, False)),
    "KERNEL_VARIANT": RetiredKey(
        PHYSICS, "vectorized", ("baseline", "vectorized", "blas")
    ),
    "SINGLE_PASS_MESHER": RetiredKey(OBSERVE, True, (True, False)),
    "STATION_LOCATION": RetiredKey(PHYSICS, "closest_point", ("closest_point",)),
}


def _key(default: Any, key_class: str) -> Any:
    """One table entry: a field default and its key class."""
    return field(default=default, metadata={"key_class": key_class})


def content_digest(payload: Any) -> str:
    """Content address of a JSON-able payload: the sha256 of its canonical
    JSON (sorted keys, no whitespace), first 16 hex digits."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class SimulationParameters:
    """Validated parameters for one mesher+solver run.

    Mirrors SPECFEM3D_GLOBE's ``Par_file``: ``nex_xi`` is the number of
    spectral elements along each side of each of the six cubed-sphere
    chunks at the surface, and ``nproc_xi`` the number of MPI slices along
    each side, for a total of ``6 * nproc_xi**2`` processes.
    """

    nex_xi: int = _key(16, MESH)
    nproc_xi: int = _key(1, MESH)

    # Radial discretisation: number of element layers per region.
    ner_crust_mantle: int = _key(4, MESH)
    ner_outer_core: int = _key(2, MESH)
    ner_inner_core: int = _key(1, MESH)

    # Physics switches.
    attenuation: bool = _key(False, PHYSICS)
    rotation: bool = _key(False, PHYSICS)
    gravity: bool = _key(False, PHYSICS)
    oceans: bool = _key(False, PHYSICS)
    ellipticity: bool = _key(False, MESH)
    topography: bool = _key(False, MESH)
    transverse_isotropy: bool = _key(False, MESH)
    use_3d_model: bool = _key(False, MESH)

    # Numerics / engineering switches.
    #: Skip the PREM-discontinuity snapping of radial layers (used with
    #: homogeneous material models, e.g. normal-mode validation, where thin
    #: crustal layers would only shrink the stable time step).
    uniform_radial_layers: bool = _key(False, MESH)
    #: Overlap halo communication with interior-element computation in
    #: distributed runs (non-blocking exchange; bit-identical to the
    #: blocking reference path, which remains the default).
    overlap_comm: bool = _key(False, OBSERVE)

    # Time marching.
    record_length_s: float = _key(200.0, PHYSICS)
    courant: float = _key(constants.COURANT_SUGGESTED, PHYSICS)
    nstep_override: int | None = _key(None, PHYSICS)

    # Robustness.
    #: Run the numerical health sentinel every N steps (``None`` = off).
    #: See :mod:`repro.chaos.sentinel`.
    health_check_every: int | None = _key(None, OBSERVE)

    # Reproducibility: seeds the synthetic 3-D model and topography.
    seed: int = _key(12345, MESH)

    def __post_init__(self) -> None:
        # A bool field takes only a bool, an int field an int but not a
        # bool, a float field an int or a float (stored as a float), and
        # a ``| None`` field also None.
        for name, key, _, base, accepts in _TABLE:
            value = getattr(self, name)
            if not isinstance(value, accepts) or (
                isinstance(value, bool) and base is not bool
            ):
                expected = " or None" if type(None) in accepts else ""
                raise ParameterError(
                    f"{key} must be {base.__name__}{expected}, got {value!r}"
                )
            if base is float and type(value) is int:
                object.__setattr__(self, name, float(value))
        if self.nex_xi < 2:
            raise ParameterError(f"NEX_XI must be >= 2, got {self.nex_xi}")
        for name in ("nproc_xi", "ner_crust_mantle", "ner_outer_core",
                     "ner_inner_core", "nstep_override", "health_check_every"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ParameterError(f"{name.upper()} must be >= 1, got {value}")
        if self.nex_xi % (2 * self.nproc_xi) != 0:
            # SPECFEM rule: NEX_XI must be a multiple of 2*NPROC_XI so each
            # slice holds an even, equal number of surface elements.
            raise ParameterError(
                f"NEX_XI ({self.nex_xi}) must be a multiple of 2*NPROC_XI "
                f"({2 * self.nproc_xi})"
            )
        if not (0.0 < self.courant <= 1.0):
            raise ParameterError(f"courant must be in (0, 1], got {self.courant}")
        if self.record_length_s <= 0.0:
            raise ParameterError("record_length_s must be positive")

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
        return {key: getattr(self, name) for name, key, *_ in _TABLE}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "SimulationParameters":
        """Rebuild from :meth:`to_dict` output (unknown keys rejected,
        :data:`RETIRED_KEYS` dropped at their ``same_bits`` values)."""
        kwargs: dict[str, Any] = {}
        for key, value in d.items():
            if key in PAR_TYPES:
                kwargs[key.lower()] = value
            elif key not in RETIRED_KEYS:
                raise ParameterError(f"unknown Par_file key: {key!r}")
            elif not any(type(value) is type(v) and value == v
                         for v in RETIRED_KEYS[key].same_bits):
                raise ParameterError(
                    f"{key} is retired and loads only as one of "
                    f"{RETIRED_KEYS[key].same_bits}, got {value!r}"
                )
        return cls(**kwargs)

    def key_payload(self, *classes: str) -> dict[str, Any]:
        """The Par_file dict of the keys in ``classes``: what a content key
        over those classes hashes, with the :data:`RETIRED_KEYS` of those
        classes at their fixed values."""
        payload = {key: getattr(self, key.lower()) for key in par_keys(*classes)}
        payload.update(
            (key, retired.value) for key, retired in RETIRED_KEYS.items()
            if retired.key_class in classes
        )
        return payload


def _accepted_types(hint: Any) -> tuple[type, tuple[type, ...]]:
    """``(base type, accepted types)`` of one field annotation."""
    args = get_args(hint)  # ``T | None``
    base = next(a for a in args if a is not type(None)) if args else hint
    accepts = {float: (int, float)}.get(base, (base,))
    return base, accepts + ((type(None),) if args else ())


#: ``(field name, Par_file key, key class, base type, accepted types)`` of
#: every field, in declaration order.
_HINTS = get_type_hints(SimulationParameters)
_TABLE = tuple(
    (f.name, f.name.upper(), f.metadata["key_class"], *_accepted_types(_HINTS[f.name]))
    for f in fields(SimulationParameters)
)
#: Par_file key -> ``(base type, takes None)``.
PAR_TYPES = {key: (base, type(None) in ok) for _, key, _, base, ok in _TABLE}


def par_keys(*classes: str) -> tuple[str, ...]:
    """Par_file keys of the given key classes, in declaration order."""
    return tuple(key for _, key, key_class, *_ in _TABLE if key_class in classes)


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
