"""Request normalization and canonical content keys for the service.

A simulation request — parameters, one source, a set of receiving
stations, a step count — must map to a *stable* content address before
the cache can amortise anything.  The derivation mirrors
:func:`repro.campaign.mesh_cache.mesh_cache_key`: hash the canonical
JSON of the physics-relevant subset, and nothing else.

Two keys are derived per request:

* :func:`physics_key` — everything that determines the *wavefield*
  (parameters, source, step count) but not where it is recorded.  Two
  requests with the same physics key can in principle be answered from
  one stored run by slicing its receiver rows
  (:mod:`repro.service.slicing`).
* :func:`request_key` — the physics key plus the canonicalized station
  set: the full content address of one stored seismogram bundle.

Station canonicalization is **order-insensitive**: stations are sorted
by (name, position) before hashing, so a client that permutes its
station list still hits the same cache entry (the regression test in
``tests/test_service.py`` proves it).  Responses are always mapped back
to the order the client asked for.

Both keys hash the parameter table's *mesh* and *physics* classes
(:meth:`~repro.config.parameters.SimulationParameters.key_payload`),
never its *observe* class: engineering switches proven bit-identical to
their reference path — ``SINGLE_PASS_MESHER`` (the A-MESH2X ablation),
``OVERLAP_COMM`` (the overlap bit-identity gate) — and the purely
observational ``HEALTH_CHECK_EVERY``.  Flipping them must not fork the
cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..config.parameters import (
    MESH,
    OBSERVE,
    PHYSICS,
    ParameterError,
    SimulationParameters,
    content_digest,
    par_keys,
)
from ..solver.receivers import Station

__all__ = [
    "SERVICE_EXCLUDED_FIELDS",
    "SimulationRequest",
    "RequestKeys",
    "canonical_stations",
    "station_fingerprint",
    "physics_key",
    "request_key",
    "derive_keys",
]

#: Par_file keys that do NOT change the computed seismograms bit-wise
#: (the table's *observe* class), excluded from both keys.
SERVICE_EXCLUDED_FIELDS = par_keys(OBSERVE)


def _canon_floats(value: Any) -> Any:
    """Normalise numbers for hashing (ints that are whole floats, lists)."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [_canon_floats(v) for v in value]
    return value


def _canon_source(source: Mapping[str, Any] | None) -> dict[str, Any] | None:
    """Canonical wire form of one source spec (the campaign CLI format)."""
    if source is None:
        return None
    position = source.get("position")
    if position is None or len(position) != 3:
        raise ParameterError(
            "source spec needs a 3-component 'position', got "
            f"{position!r}"
        )
    return {
        "position": [float(v) for v in position],
        "moment_scale": float(source.get("moment_scale", 1.0e20)),
        "half_duration_s": float(source.get("half_duration_s", 10.0)),
        "time_shift": float(source.get("time_shift", 0.0)),
    }


@dataclass(frozen=True)
class SimulationRequest:
    """One normalized service request.

    ``source`` is the JSON wire spec (position / moment_scale /
    half_duration_s / time_shift — the same shape the campaign CLI
    takes), not a built :class:`~repro.solver.sources
    .MomentTensorSource`: requests must be hashable and serializable,
    so the source object is constructed only when a solve is actually
    needed.  ``job_options`` passes straight through to the backend
    :class:`~repro.campaign.queue.JobSpec` (timeouts, segment counts,
    drill fault injection) and is deliberately *not* part of any key —
    how a job is executed never forks the cache.
    """

    params: SimulationParameters
    stations: tuple[Station, ...]
    source: dict[str, Any] | None = None
    n_steps: int | None = None
    job_options: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.stations:
            raise ParameterError("request needs at least one station")
        object.__setattr__(self, "source", _canon_source(self.source))
        names = [s.name for s in self.stations]
        if len(set(names)) != len(names):
            raise ParameterError(
                f"duplicate station names in request: {sorted(names)}"
            )

    @classmethod
    def from_spec(
        cls,
        spec: Mapping[str, Any],
        defaults: Mapping[str, Any] | None = None,
    ) -> "SimulationRequest":
        """Build a request from the JSON wire format.

        ``spec`` carries Par_file-style overrides under ``params``, one
        ``source`` spec, a ``stations`` list of ``{name, position}``,
        and optional ``n_steps`` / ``job_options``; ``defaults``
        (Par_file keys) underlie the per-request ``params``.
        """
        params = SimulationParameters.from_dict(
            {**(defaults or {}), **spec.get("params", {})}
        )
        stations = tuple(
            Station(
                name=str(s["name"]),
                position=tuple(float(v) for v in s["position"]),
            )
            for s in spec.get("stations", [])
        )
        n_steps = spec.get("n_steps")
        return cls(
            params=params,
            stations=stations,
            source=spec.get("source"),
            n_steps=None if n_steps is None else int(n_steps),
            job_options=dict(spec.get("job_options", {})),
        )

    def to_spec(self) -> dict[str, Any]:
        """The JSON wire form (inverse of :meth:`from_spec`)."""
        spec: dict[str, Any] = {
            "params": self.params.to_dict(),
            "stations": [
                {"name": s.name, "position": list(s.position)}
                for s in self.stations
            ],
        }
        if self.source is not None:
            spec["source"] = dict(self.source)
        if self.n_steps is not None:
            spec["n_steps"] = self.n_steps
        if self.job_options:
            spec["job_options"] = dict(self.job_options)
        return spec


def canonical_stations(stations: tuple[Station, ...]) -> tuple[Station, ...]:
    """Stations in canonical (order-insensitive) order.

    Sorted by (name, position): any permutation of the same station set
    canonicalizes identically, which is what makes the request key
    order-insensitive.
    """
    return tuple(
        sorted(stations, key=lambda s: (s.name, tuple(s.position)))
    )


def _station_rows(canonical: tuple[Station, ...]) -> list[list[Any]]:
    return [[s.name, _canon_floats(list(s.position))] for s in canonical]


def station_fingerprint(stations: tuple[Station, ...]) -> str:
    """Order-insensitive content hash of a station set."""
    return content_digest(_station_rows(canonical_stations(stations)))


def _physics_payload(request: SimulationRequest) -> dict[str, Any]:
    subset = request.params.key_payload(MESH, PHYSICS)
    return {
        "params": {name: _canon_floats(v) for name, v in subset.items()},
        "source": request.source,
        "n_steps": request.n_steps,
    }


def physics_key(request: SimulationRequest) -> str:
    """Content hash of everything that determines the wavefield."""
    return content_digest(_physics_payload(request))


def request_key(request: SimulationRequest) -> str:
    """Full content address: physics key + canonical station set."""
    return derive_keys(request).key


@dataclass(frozen=True)
class RequestKeys:
    """The derived identity of one request, computed once per handle."""

    key: str
    physics: str
    stations: tuple[Station, ...]  # canonical order


def derive_keys(request: SimulationRequest) -> RequestKeys:
    """Normalize a request into its canonical keys and station order.

    The physics payload is built once and hashed twice: alone for the
    physics key, with the canonical station rows for the request key.
    """
    payload = _physics_payload(request)
    stations = canonical_stations(request.stations)
    return RequestKeys(
        key=content_digest({**payload, "stations": _station_rows(stations)}),
        physics=content_digest(payload),
        stations=stations,
    )
