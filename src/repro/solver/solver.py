"""The solver (SPECFEM's ``specfem3D``): coupled global wave propagation.

Orchestrates one simulation over a mesh bundle (the merged serial globe
mesh, or one slice of the distributed run — the same class serves both,
with cross-rank assembly injected through the ``exchanger`` the
virtual-MPI launcher provides):

* three regions (two solid, one fluid) marched with the explicit Newmark
  scheme of Section 2.4;
* internal forces from the vectorized :mod:`repro.kernels` operator of
  Section 4.3;
* displacement-based non-iterative solid-fluid coupling at CMB and ICB;
* optional attenuation (memory variables), rotation (Coriolis),
  self-gravitation (Cowling), and ocean load;
* moment-tensor sources and closest-grid-point receivers (Section 4.4);
* on a truncated (regional) bundle, the Stacey absorbing boundary of
  Figure 1 as one more term of the solid force;
* B events on one mesh (docs/batching.md): the persistent arrays carry a
  leading event axis — a ``sources=`` run is ``B = 1`` — and the event
  loop lives here, in the phase functions, and nowhere else: every
  component they call is single-event and runs on a ``displ[b]`` view;
* without an exchanger, the force kernel on every CPU the process may
  use: each subset's element blocks split across the run's lanes
  (:mod:`repro.solver.lanes`), bit-identical to one lane;
* one force schedule (:meth:`GlobalSolver._forces`): for each exchange
  round, the elements that feed the halo, the post, the remaining
  elements, the wait.  Per-region ``element_splits`` say which elements
  can wait (the *interior* ones, computed while the messages are in
  flight); without them nothing remains after the post, which is the
  blocking schedule.  The two are bit-identical; only the time blocked
  in ``halo.wait`` changes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import partial
from typing import Iterator, Mapping

import numpy as np

from ..config import constants
from ..config.parameters import SimulationParameters
from ..gll.lagrange import GLLBasis, shape_functions
from ..kernels.acoustic import AcousticOperator
from ..kernels.elastic import ElasticOperator
from ..kernels.flops import (
    acoustic_kernel_flops,
    attenuation_update_flops,
    elastic_kernel_flops,
    newmark_update_flops,
)
from ..kernels.weakform import Workspace, carve
from ..mesh.element import RegionMesh
from ..model.prem import PREM, RegionCode
from ..obs.metrics import record_step_metrics
from ..obs.tracer import maybe_tracer
from . import newmark
from .assembly import gather, scatter_add
from .absorbing import StaceyBoundary, build_stacey_boundary
from .attenuation import AttenuationState, build_attenuation
from .body_terms import coriolis_local_force, gravity_local_force
from .coupling import CouplingOperator
from .fields import FluidField, SolidField, StateArray
from .lanes import Lanes
from .oceans import OceanLoad
from .prepared import (
    LENGTH_SCALE,
    PreparedMesh,
    PreparedRegion,
    deformed_surfaces,
    surface_tolerance,
)
from .receivers import PointLocator, ReceiverSet, Station
from .sources import MomentTensorSource, PointForceSource, moment_tensor_source_array

__all__ = ["GlobalSolver", "SolverResult", "SolverTimings"]

#: Steps between the kinetic-energy samples of a ``track_energy`` run.
ENERGY_EVERY = 10


@dataclass
class SolverTimings:
    """Wall-clock split of one run (the IPM-style summary).

    ``compute_cpu_s`` uses the per-thread CPU clock: under thread
    oversubscription (many virtual ranks on few cores) it measures actual
    work done, where the wall clock would count scheduler wait.  It is
    the calling thread's CPU plus what the run's helper lanes spent on
    their shares of the force kernel.
    """

    compute_s: float = 0.0
    compute_cpu_s: float = 0.0
    total_s: float = 0.0
    steps: int = 0


@dataclass
class SolverResult:
    """Outputs of one run.

    ``receivers`` is what :attr:`GlobalSolver.receiver_set` presents: one
    :class:`ReceiverSet` for a ``sources=`` run, the list of per-event
    sets for an ``event_sources=`` run — whose ``seismograms`` are their
    (B, nrec, n_steps, 3) stack.
    """

    receivers: ReceiverSet | list[ReceiverSet] | None
    timings: SolverTimings
    dt: float
    n_steps: int
    energy_history: np.ndarray | None = None

    @property
    def seismograms(self) -> np.ndarray | None:
        if self.receivers is None:
            return None
        if isinstance(self.receivers, list):
            return np.stack([rs.data for rs in self.receivers])
        return self.receivers.data


@dataclass
class _EventAttenuation:
    """Attenuation memory of all B events on one solid region.

    ``zeta`` (B, n_sls, nspec, 6, n, n, n) is the one array checkpoint
    and remap serialise; ``events[b]`` is the single-event
    :class:`AttenuationState` on the view ``zeta[b]`` (memory never
    crosses the halo, so it is a list, not an axis the component sees).
    All events share one set of coefficient arrays.
    """

    zeta: np.ndarray
    events: list[AttenuationState]


class _RegionState:
    """Per-region solver view: the mesh, its numbering and its prepared
    (shared, read-only) geometry — nothing per solver."""

    def __init__(self, mesh: RegionMesh, prepared: PreparedRegion):
        self.mesh = mesh
        self.geom = prepared.geom
        self.ti_frames = prepared.ti_frames
        self.ibool = mesh.ibool
        self.nglob = mesh.nglob


class _RegionSubset:
    """A contiguous run ``start:stop`` of one region's elements, as the
    force kernels see it.

    The whole region, or one side of a boundary-first split (boundary
    elements ``0:nb``, interior ``nb:nspec``).  Numbering, geometry and
    materials are views of the region's arrays; the force operator (its
    materials folded with the volume measure once) is built at solver
    build, so the time loop pays no per-step slicing of static data.  The
    operator applied per subset produces exactly the rows the
    full-region operator would, because every step of it is elementwise
    over the element axis.

    On a split region both sides write their local forces straight into
    the region's ``stash`` (``(B, nspec, ...)``, full element order), and
    the side computed after the post (``rescatter``) scatters the whole
    stash — the summation order of the unsplit region.
    """

    def __init__(
        self,
        solver: "GlobalSolver",
        code: int,
        start: int,
        stop: int,
        stash: np.ndarray | None = None,
        rescatter: bool = False,
    ):
        st = solver.regions[code]
        self.code = code
        self.start = start
        self.stash = stash
        self.rescatter = rescatter
        idx = slice(start, stop)
        mesh = st.mesh
        self.ibool = st.ibool[idx]
        self.geom = st.geom.subset(idx)
        self.rho = mesh.rho[idx]
        g = solver.gravity_g.get(code)
        self.gravity_g = None if g is None else g[idx]
        self.xyz_m = None if g is None else mesh.xyz[idx] * LENGTH_SCALE
        # Per-phase flop estimates (the PSiNS-analog counters attached to
        # kernel spans), computed once so the hot loop only reads them.
        nspec = stop - start
        self.gll_points_count = float(nspec * constants.NGLLX**3)
        basis = solver.basis
        if code == solver.fluid_code:
            self.operator = AcousticOperator(self.geom, 1.0 / self.rho, basis)
            self.flops = float(acoustic_kernel_flops(nspec))
        else:
            self.flops = float(elastic_kernel_flops(nspec))
            mu = mesh.mu[idx]
            lam = mesh.kappa[idx] - (2.0 / 3.0) * mu
            if mesh.ti_moduli is None:
                self.operator = ElasticOperator(self.geom, lam, mu, basis)
            else:
                from ..kernels.anisotropic import TIElasticOperator

                m = mesh.ti_moduli
                self.operator = TIElasticOperator(
                    self.geom, lam, mu,
                    type(m)(A=m.A[idx], C=m.C[idx], L=m.L[idx], N=m.N[idx], F=m.F[idx]),
                    st.ti_frames[idx], basis,
                )

    def rows(self, lo: int, hi: int) -> slice:
        """Region elements of this subset's elements ``lo:hi`` — the
        attenuation selector: the subsets of a region partition it."""
        return slice(self.start + lo, self.start + hi)


class GlobalSolver:
    """Set up and run one coupled global simulation.

    Parameters
    ----------
    mesh_bundle : object with ``regions: dict[int, RegionMesh]`` (a
        :class:`repro.mesh.GlobalMesh`, :class:`repro.mesh.SliceMesh` or
        :class:`repro.regional.RegionalMesh`) and optionally
        ``absorbing_faces``, the (N, 2) ``(ispec, face_id)`` rows of the
        crust/mantle's truncation surfaces: non-empty, every step adds
        their Stacey traction (:mod:`repro.solver.absorbing`) to the
        solid force; absent or empty, the boundary is free or rigid.
    params : simulation parameters (resolution, physics switches...).
    sources, stations : source and receiver definitions (positions in km).
    exchanger : optional halo exchanger (duck-typed
        :class:`repro.parallel.halo.HaloExchanger`: ``assemble``,
        ``post``/``complete``, ``merge_regions``) summing the other
        ranks' contributions into point-leading ``{region: (nglob, ...)
        array}`` dicts *in place*; None for serial runs.  Also applied
        once at setup, to a copy of the prepared mass matrices.
    element_splits : dict ``region -> ElementSplit`` classifying each
        region's elements as halo-touching or interior, **boundary-first**
        (boundary elements ``0:nb``, interior ``nb:nspec``, as
        :func:`repro.mesh.partition.boundary_first` orders a slice;
        anything else is a :class:`ValueError`).  Given, the time loop
        exchanges without blocking — boundary elements, post, interior
        elements, wait; None is the blocking schedule, where nothing
        remains after the post.  Regions missing from the dict are
        treated as all-interior.
    event_sources : list of per-event source lists: ``B =
        len(event_sources)`` events share this mesh and one halo message
        per neighbour per step.  Mutually exclusive with ``sources``,
        which is the ``B = 1`` case ``event_sources=[sources]`` presented
        in single-event shapes (see :attr:`receiver_set`).

    Only this class (and the serialisers of its state, ``checkpoint.py``
    and ``resilience/remap.py``) knows there is more than one event: the
    persistent arrays carry a leading event axis
    (:mod:`repro.solver.fields`), and the phase functions loop over
    events, handing every component — kernels, attenuation, coupling,
    receivers — the single-event view ``displ[b]``.  Event ``b`` therefore
    runs the code of a dedicated run on a view, and is bit-identical to
    it (tests/test_batching.py).
    """

    def __init__(
        self,
        mesh_bundle,
        params: SimulationParameters,
        sources: list[MomentTensorSource | PointForceSource] | None = None,
        stations: list[Station] | None = None,
        exchanger=None,
        element_splits: dict | None = None,
        dt_override: float | None = None,
        tracer=None,
        metrics=None,
        stream=None,
        event_sources: list[list] | None = None,
    ):
        self.params = params
        if event_sources is not None:
            if sources:
                raise ValueError(
                    "pass either sources or event_sources, not both"
                )
            if len(event_sources) < 1:
                raise ValueError("event_sources must hold at least one event")
        #: True for a ``sources=`` run: presented in single-event shapes.
        self._single_event = event_sources is None
        if event_sources is None:
            event_sources = [sources or []]
        #: Number of events sharing this mesh (the leading axis of every
        #: persistent array).
        self.batch = len(event_sources)
        #: Observability hooks: a no-op tracer unless one is injected, and
        #: an optional :class:`~repro.obs.metrics.MetricsRegistry` the step
        #: observers publish to (:meth:`publishing`).
        self.tracer = maybe_tracer(tracer)
        self.metrics = metrics
        #: Optional :class:`~repro.obs.stream.StreamingTelemetry`: one
        #: ring-buffer sample per time step, flushed as JSONL so long
        #: runs are watchable live.  The solver only *reads* state into
        #: the stream, so streamed and unstreamed runs are bit-identical.
        self.stream = stream
        #: Numerical health sentinel (:mod:`repro.chaos.sentinel`), made
        #: when ``params.health_check_every`` is set and labelled with the
        #: exchanger's rank, so every entry point — serial apps, segmented
        #: campaigns, distributed runs — gets the same divergence
        #: detection from one knob.
        self.health_sentinel = None
        if params.health_check_every is not None:
            from ..chaos.sentinel import HealthSentinel

            self.health_sentinel = HealthSentinel(
                check_every=params.health_check_every,
                rank=0 if exchanger is None else exchanger.comm.rank,
            )
        #: The current run's last step and replay gate (:meth:`run`).
        self.last_step = -1
        self.metrics_from_step = 0
        self.basis = GLLBasis(constants.NGLLX)
        self.exchanger = exchanger
        #: The mesh-determined artefacts (geometry, mass, couplings, the
        #: Courant bound): the cache-served mesh's shared instance, else a
        #: private one that dies with this solver.
        deformed = self._deformed_surfaces()
        prepared = getattr(mesh_bundle, "prepared", None)
        if prepared is None or not prepared.serves(mesh_bundle, deformed):
            prepared = PreparedMesh(mesh_bundle.regions, deformed)
        self.prepared = prepared
        self.regions = {
            code: _RegionState(mesh, prepared.regions[code])
            for code, mesh in mesh_bundle.regions.items()
        }
        # Fluid/solid split by the meshes' own flags (region code by
        # default; overridable for non-PREM material models, e.g. the
        # homogeneous solid sphere used in normal-mode validation).
        self.solid_codes = [
            c for c, st in self.regions.items() if not st.mesh.is_fluid
        ]
        fluid_codes = [c for c, st in self.regions.items() if st.mesh.is_fluid]
        if len(fluid_codes) > 1:
            raise ValueError("at most one fluid region is supported")
        self.fluid_code = fluid_codes[0] if fluid_codes else None

        self._newmark_flops = float(
            self.batch
            * sum(
                newmark_update_flops(st.nglob, 1 if st.mesh.is_fluid else 3)
                for st in self.regions.values()
            )
        )

        # -- Mass matrices (assembled across ranks, one region per round,
        # into a copy: the prepared mass is this bundle's alone) ----------
        order = self.solid_codes + (
            [] if self.fluid_code is None else [self.fluid_code]
        )
        self.mass: dict[int, np.ndarray] = {
            code: prepared.regions[code].mass for code in order
        }
        if exchanger is not None:
            for code in order:
                self.mass[code] = self.mass[code].copy()
                exchanger.assemble({code: self.mass[code]})
        #: Reciprocal mass (SPECFEM's ``rmass``), shaped to broadcast over
        #: a region's (B, nglob[, 3]) force: the step multiplies, never divides.
        self._rmass = {
            code: (1.0 / mass)[:, None] if code in self.solid_codes else 1.0 / mass
            for code, mass in self.mass.items()
        }

        # -- Time step ------------------------------------------------------
        # Distributed runs pass the already-agreed global minimum dt so the
        # attenuation coefficients (which depend on dt) are consistent.
        if dt_override is not None:
            if dt_override <= 0:
                raise ValueError(f"dt_override must be positive, got {dt_override}")
            self.dt = float(dt_override)
        else:
            # ``estimate_time_step``'s arithmetic, on the prepared bound.
            self.dt = params.courant * prepared.dt_bound
        self.n_steps = params.step_count(self.dt)

        #: ``(solid_code, operator)`` per solid-fluid interface.
        self.couplings: tuple[tuple[int, CouplingOperator], ...] = prepared.couplings

        # -- Physics extras ----------------------------------------------------
        self.attenuation: dict[int, _EventAttenuation] = {}
        if params.attenuation:
            f_centre = 1.0 / max(params.record_length_s / 10.0, 4 * self.dt)
            for code in self.solid_codes:
                st = self.regions[code]
                state = build_attenuation(
                    st.mesh.q_mu, self.dt, f_centre / 3.0, f_centre * 3.0
                )
                zeta = np.zeros((self.batch, *state.zeta.shape))
                self.attenuation[code] = _EventAttenuation(
                    zeta,
                    [replace(state, zeta=zeta[b]) for b in range(self.batch)],
                )
        self.omega_vector = (
            np.array([0.0, 0.0, constants.EARTH_OMEGA]) if params.rotation else None
        )
        self.gravity_g: Mapping[int, np.ndarray] = (
            prepared.gravity if params.gravity else {}
        )
        self.ocean_load: OceanLoad | None = (
            prepared.ocean_load if params.oceans else None
        )
        faces = getattr(mesh_bundle, "absorbing_faces", ())
        self.stacey: StaceyBoundary | None = (
            build_stacey_boundary(
                self.regions[RegionCode.CRUST_MANTLE].mesh, faces, self.basis
            )
            if len(faces)
            else None
        )

        # -- Sources and receivers ----------------------------------------------
        # One point locator (a KD-tree over a region's GLL points) per
        # region, shared by every source of every event and the stations.
        locators: dict[int, PointLocator] = {}

        def locator(code: int) -> PointLocator:
            if code not in locators:
                st = self.regions[code]
                locators[code] = PointLocator(st.mesh.xyz, st.ibool)
            return locators[code]

        #: (event, region, element, source_array, source) per located source.
        self.source_terms: list[tuple[int, int, int, np.ndarray, object]] = [
            (b, *self._locate_source(source, locator))
            for b, event in enumerate(event_sources)
            for source in event
        ]
        self._located: list = [
            locator(RegionCode.CRUST_MANTLE).locate(station, "closest_point")
            for station in stations or []
        ]
        # No tree lives on into the run.
        locators.clear()
        self.reset_receivers(self.n_steps)

        # -- Fields ------------------------------------------------------------
        self.solid: dict[int, SolidField] = {
            code: SolidField.zeros(self.regions[code].nglob, batch=self.batch)
            for code in self.solid_codes
        }
        self.fluid: FluidField | None = (
            FluidField.zeros(self.regions[self.fluid_code].nglob, batch=self.batch)
            if self.fluid_code is not None
            else None
        )
        self.timings = SolverTimings()

        # -- Element views, per-step buffers, exchange rounds -------------------
        # Everything the force schedule reads is built once here, so no
        # time step allocates or re-derives it (rule R3).  Every row of the
        # force buffers is overwritten each step (a scatter with ``out=``;
        # the subsets of a region cover all its elements), so stale contents
        # can never leak into a step.
        #: Whether the time loop's rounds are posted and completed later or
        #: assembled at once.  The two forms use different tags, so every
        #: rank must choose alike: by what all ranks were given, never by
        #: what this rank's elements happen to leave over after a post.
        self._overlap = element_splits is not None
        #: The kernels' lanes, each with its block work vectors for all
        #: regions, subsets and events (they run one after another): the
        #: caller's, plus helpers on spare CPUs unless an exchanger is
        #: present — the ranks already fill the CPUs.
        self._lanes = Lanes(
            Workspace(constants.NGLLX), self.tracer, helpers=exchanger is None
        )
        # One event's gathered field and local force on the largest region.
        local = max(
            st.ibool.size * (1 if st.mesh.is_fluid else 3)
            for st in self.regions.values()
        )
        self._gathered = np.empty(local, dtype=np.float64)
        self._local = np.empty(local, dtype=np.float64)
        #: Assembled force per region, (B, nglob[, 3]).
        self._force: dict[int, np.ndarray] = {}
        #: Split regions only: local forces in full element order (the
        #: subsets' stash), for the re-scatter that reproduces the unsplit
        #: summation order.
        self._scratch_local: dict[int, np.ndarray] = {}
        # Per region, the element subset computed before its round's post
        # (what feeds the halo) and the one computed after (what cannot).
        before: dict[int, _RegionSubset] = {}
        after: dict[int, _RegionSubset] = {}
        for code, st in self.regions.items():
            ncomp = (3,) if code in self.solid_codes else ()
            self._force[code] = np.empty(
                (self.batch, st.nglob, *ncomp), dtype=np.float64
            )
            nspec = st.ibool.shape[0]
            split = element_splits.get(code) if self._overlap else None
            nb = 0 if split is None else _boundary_count(split, nspec, code)
            # A degenerate side is skipped, not run empty: the other is the
            # whole region, scattered once — before the post unless no
            # element of it touches the halo.
            if self._overlap and not nb:
                after[code] = _RegionSubset(self, code, 0, nspec)
            elif split is None or nb == nspec:
                before[code] = _RegionSubset(self, code, 0, nspec)
            else:
                stash = np.empty(
                    (self.batch, *st.ibool.shape, *ncomp), dtype=np.float64
                )
                self._scratch_local[code] = stash
                before[code] = _RegionSubset(self, code, 0, nb, stash)
                after[code] = _RegionSubset(
                    self, code, nb, nspec, stash, rescatter=True
                )
        # The fluid goes first (the solids' coupling term needs its fresh
        # ``chi_ddot``), then the solids — in ONE round, one message per
        # neighbour, unless the exchanger says not to merge.
        rounds = [tuple(self.solid_codes)]
        if exchanger is not None and not exchanger.merge_regions:
            rounds = [(code,) for code in self.solid_codes]
        if self.fluid_code is not None:
            rounds.insert(0, (self.fluid_code,))
        #: The step's exchange rounds: point-leading (nglob, B[, 3]) views
        #: of the force buffers — what the event-opaque halo exchanger
        #: indexes as ``array[ids]`` — and the subsets before / after its post.
        self._rounds = [
            (
                {code: np.moveaxis(self._force[code], 0, 1) for code in codes},
                [before[code] for code in codes if code in before],
                [after[code] for code in codes if code in after],
            )
            for codes in rounds
        ]
        self._touch_step_buffers()

    # ------------------------------------------------------------------ setup

    def _touch_step_buffers(self) -> None:
        """Write every array the first step writes, so its pages are
        resident before the loop starts.  ``np.zeros``/``np.empty`` only
        reserve address space; left alone, the first step pays the page
        faults of ~80 MiB at NEX 8 — +23 ms median and +130 ms worst on a
        48 ms step, 12 ms here — which is set-up hidden inside the loop.
        The state arrays come from :meth:`dynamic_state`; the seismogram
        buffers are left out (a step writes one row of them)."""
        ws = self._lanes.ws
        buffers = [ws.a, ws.b, ws.c, self._gathered, self._local]
        buffers += [*self._force.values(), *self._scratch_local.values()]
        if self.attenuation:
            buffers.append(ws.memory)
        buffers += [
            state.array
            for state in self.dynamic_state()
            if state.kind != "receiver"
        ]
        for buf in buffers:
            buf.fill(0.0)

    def dynamic_state(self) -> Iterator[StateArray]:
        """Every array a restart must carry, in checkpoint record order.

        The one declaration of the solver's dynamic state (the
        :mod:`~repro.solver.fields` docstring): per solid region its
        ``displ``/``veloc``/``accel``, the fluid's ``chi``/``chi_dot``/
        ``chi_ddot``, per attenuating region its memory ``zeta``, and the
        seismogram buffers.  Checkpoint save and load, the shrink remap and
        :meth:`_touch_step_buffers` iterate it; nothing else names these
        arrays.
        """
        for code in self.solid_codes:
            field = self.solid[code]
            for name in ("displ", "veloc", "accel"):
                yield StateArray(f"{name}_{code}", getattr(field, name), "point", code)
        if self.fluid is not None:
            for name in ("chi", "chi_dot", "chi_ddot"):
                yield StateArray(
                    name, getattr(self.fluid, name), "point", self.fluid_code
                )
        for code, atten in self.attenuation.items():
            yield StateArray(f"zeta_{code}", atten.zeta, "element", code)
        if self.receiver_sets:
            yield StateArray("seis_data", self._seismograms, "receiver", None)

    def reset_receivers(self, n_steps: int) -> None:
        """(Re)allocate every event's recording buffers for ``n_steps``:
        one :class:`ReceiverSet` per event over the shared located
        receivers, none without stations.  The sets record into views of
        one ``(B, nrec, n_steps, 3)`` array, the declared ``seis_data``."""
        self._seismograms = np.zeros((self.batch, len(self._located), n_steps, 3))
        self.receiver_sets: list[ReceiverSet] = [
            ReceiverSet(self._located, n_steps, self.dt)
            for _ in range(self.batch if self._located else 0)
        ]
        for rs, data in zip(self.receiver_sets, self._seismograms):
            rs.data = data

    def restore_seismograms(self, data: np.ndarray, cursor: int) -> None:
        """Restore partially-recorded ``(B, nrec, n_steps, 3)`` buffers and
        their step cursor (checkpoint load, shrink remap).  The buffers
        are rebuilt at the saved length: the restored run keeps the
        checkpointed recording horizon, which need not be the solver's
        default ``n_steps``."""
        if data.shape[2] != self.receiver_sets[0].n_steps:
            self.reset_receivers(data.shape[2])
        self._seismograms[:] = data
        for rs in self.receiver_sets:
            rs.step_cursor = int(cursor)

    @property
    def receiver_set(self) -> ReceiverSet | list[ReceiverSet] | None:
        """The recording buffers in the shape the caller's entry point
        promises — the one place the single-event public surface is
        decided: the :class:`ReceiverSet` itself for a ``sources=`` run,
        the per-event list for ``event_sources=``, None without stations."""
        if not self.receiver_sets:
            return None
        return self.receiver_sets[0] if self._single_event else self.receiver_sets

    def _deformed_surfaces(self) -> bool:
        """True when mesh surfaces deviate from exact spheres."""
        return deformed_surfaces(self.params)

    def _surface_tolerance(self) -> float:
        return surface_tolerance(self._deformed_surfaces())

    def _locate_source(self, source, locator) -> tuple[int, int, np.ndarray, object]:
        """Resolve a source into (region, element, source_array, source).

        The host region is PREM's region at the source radius, or the
        bundle's one region (a regional chunk, a box)."""
        position = np.asarray(source.position, dtype=np.float64)
        if len(self.regions) == 1:
            (region,) = self.regions
        else:
            region = PREM.region_of(float(np.linalg.norm(position)))
        if region == RegionCode.OUTER_CORE:
            raise ValueError("sources inside the fluid outer core are not supported")
        st = self.regions[region]
        located = locator(region).locate(
            Station("src", tuple(position)), "interpolated"
        )
        e, ref = located.element, located.ref
        if isinstance(source, MomentTensorSource):
            # Jacobian at the source point, in SI length units.
            exyz = st.mesh.xyz[e] * LENGTH_SCALE
            inv_jac = self._inverse_jacobian_at(exyz, ref)
            arr = moment_tensor_source_array(source.moment, exyz, inv_jac, *ref)
        else:
            from .sources import point_force_source_array

            arr = point_force_source_array(
                np.asarray(source.force), st.mesh.ngll, *ref
            )
        return region, e, arr, source

    @staticmethod
    def _inverse_jacobian_at(exyz: np.ndarray, ref: np.ndarray) -> np.ndarray:
        """``dxi_l / dx_c`` at reference point ``ref`` of the element whose
        GLL coordinates (metres) are ``exyz``."""
        _, grads = shape_functions(exyz.shape[0], ref, derivatives=True)
        jac = np.stack(
            [np.einsum("ijk,ijkc->c", grad, exyz) for grad in grads], axis=0
        )  # jac[l, c] = dx_c / dxi_l
        return np.linalg.inv(jac).T  # [l, c] = dxi_l / dx_c

    # -------------------------------------------------------------- initial

    def set_initial_condition(self, field_fn, rate_fn=None) -> None:
        """Start every event from a field given as callables of coordinates.

        ``field_fn`` (and ``rate_fn``, its time derivative; zero when
        None) receive a region's (nglob, 3) point coordinates in km and
        return its displacement (nglob, 3) on a solid region, its
        potential (nglob,) on the fluid one.  The second derivative is
        the consistent ``M^-1 (-K u0)`` of the stiffness alone (no
        coupling, source or boundary term): starting from zero would
        inject a one-time O(omega dt / 2) velocity error.  Used by the
        normal-mode and Cartesian validations, which start from analytic
        solutions.
        """
        fields = [(f.displ, f.veloc, f.accel, c) for c, f in self.solid.items()]
        if self.fluid is not None:
            f = self.fluid
            fields.append((f.chi, f.chi_dot, f.chi_ddot, self.fluid_code))
        for value, rate, _, code in fields:
            coords = self.regions[code].mesh.global_coordinates()
            value[:] = field_fn(coords)
            rate[:] = 0.0 if rate_fn is None else rate_fn(coords)
        for force in self._force.values():
            force.fill(0.0)
        for view, b, _, k_local in self._stiffness_products():
            nglob = self.regions[view.code].nglob
            self._force[view.code][b] += scatter_add(k_local, view.ibool, nglob)
        if self.exchanger is not None:
            for arrays, _, _ in self._rounds:
                self.exchanger.assemble(arrays)
        for _, _, accel, code in fields:
            np.multiply(self._force[code], self._rmass[code], out=accel)

    # ------------------------------------------------------------------- run

    def run(
        self,
        n_steps: int | None = None,
        track_energy: bool = False,
        callbacks: list | None = None,
        start_step: int = 0,
        stop_step: int | None = None,
        metrics_from_step: int | None = None,
    ) -> SolverResult:
        """March the coupled system and return seismograms and timings.

        After every step, inside its ``solver.timestep`` span, each step
        observer is called as ``cb(step, solver)`` in the fixed order of
        :meth:`_step_observers`: ``callbacks`` (movie recorders, checkpoint
        writers, fault plans), then the health sentinel, receiver
        recording, the energy history (``track_energy``), step metrics and
        the stream.  An observer that buffers output has a ``flush()``,
        called when the run ends or raises: a crash keeps what was sampled.

        ``n_steps`` is the length of the run's time grid (seismogram
        buffers are sized to it); marching covers ``[start_step,
        stop_step)`` — by default the whole grid.  A checkpointed segment
        restores its state, then runs with ``start_step`` at the resume
        point and ``stop_step`` at its wall-limit boundary; the restored
        receiver buffers are preserved, not re-allocated.

        ``metrics_from_step`` (default ``start_step``) is the replay gate:
        observers publish a step to ``metrics`` only at or above it
        (:meth:`publishing`).  A segmented run passes its planned
        segment boundary, so re-running a span after a corrupt-checkpoint
        fallback re-adds nothing: ``solver.steps``,
        ``io.seismogram_bytes`` and the series match an uninterrupted
        run's.  ``health.checks`` does not: every run checks its last step.
        The stream is not gated (re-run steps appear twice).
        """
        n_steps = int(n_steps) if n_steps is not None else self.n_steps
        start_step = int(start_step)
        stop = n_steps if stop_step is None else int(stop_step)
        if not 0 <= start_step <= stop <= n_steps:
            raise ValueError(
                f"need 0 <= start_step <= stop_step <= n_steps, got "
                f"[{start_step}, {stop}) of {n_steps}"
            )
        if self.receiver_sets and n_steps != self.receiver_sets[0].n_steps:
            if start_step > 0:
                # A resumed segment must keep the restored buffers: a
                # re-allocation here would silently drop recorded rows.
                raise ValueError(
                    f"resumed run (start_step={start_step}) expects the "
                    f"receiver buffer length {self.receiver_sets[0].n_steps} "
                    f"to match n_steps {n_steps}"
                )
            self.reset_receivers(n_steps)
        self.last_step = stop - 1
        self.metrics_from_step = (
            start_step if metrics_from_step is None else int(metrics_from_step)
        )
        energies: list[float] | None = [] if track_energy else None
        observers = self._step_observers(callbacks, energies)
        tr = self.tracer
        t_start = time.perf_counter()
        try:
            with self._lanes.running(), tr.span("solver.run", steps=stop - start_step):
                for step in range(start_step, stop):
                    with tr.span("solver.timestep"):
                        self._one_step(step * self.dt)
                        for observe in observers:
                            observe(step, self)
        finally:
            for observe in observers:
                if hasattr(observe, "flush"):
                    observe.flush()
        self.timings.total_s = time.perf_counter() - t_start
        self.timings.steps = stop - start_step
        return SolverResult(
            receivers=self.receiver_set,
            timings=self.timings,
            dt=self.dt,
            n_steps=n_steps,
            energy_history=None if energies is None else np.asarray(energies),
        )

    def _step_observers(self, callbacks, energies) -> list:
        """The run's ``cb(step, solver)`` observers, in the order they are
        called: the caller's ``callbacks``, the health sentinel, receiver
        recording, the energy history, step metrics, the stream."""
        observers = list(callbacks or ())
        if self.health_sentinel is not None:
            observers.append(self.health_sentinel.observe)
        if self.receiver_sets:
            observers.append(_record_seismograms)
        if energies is not None:
            observers.append(partial(_record_energy, energies))
        if self.metrics is not None:
            observers.append(record_step_metrics)
        if self.stream is not None:
            observers.append(self.stream.observe_run(self))
        return observers

    def publishing(self, step: int):
        """The registry a step observer publishes ``step`` to: ``metrics``,
        or None without one or below the run's replay gate."""
        return self.metrics if step >= self.metrics_from_step else None

    def _coupling_span_name(self, solid_code: int) -> str:
        return (
            "coupling.cmb"
            if solid_code == RegionCode.CRUST_MANTLE
            else "coupling.icb"
        )

    def _apply_fluid_coupling(self, force: np.ndarray, b: int) -> None:  # repro: hot-loop
        """Add event ``b``'s solid-displacement traction onto its fluid force."""
        tr = self.tracer
        for solid_code, op in self.couplings:
            with tr.span(self._coupling_span_name(solid_code)):
                op.add_fluid_coupling(force, self.solid[solid_code].displ[b])

    def _apply_solid_coupling(self, code: int, force: np.ndarray, b: int) -> None:  # repro: hot-loop
        """Add event ``b``'s fluid-pressure traction onto one solid force."""
        tr = self.tracer
        for solid_code, op in self.couplings:
            if solid_code == code and self.fluid is not None:
                with tr.span(self._coupling_span_name(solid_code)):
                    op.add_solid_coupling(force, self.fluid.chi_ddot[b])

    def _apply_sources(self, code: int, force: np.ndarray, b: int, t: float) -> None:  # repro: hot-loop
        """Inject event ``b``'s source terms of one region onto its force."""
        st = self.regions[code]
        for event, region, element, arr, source in self.source_terms:
            if event == b and region == code:
                amp = source.amplitude(t)
                np_ids = st.ibool[element]
                np.add.at(
                    force, np_ids.ravel(),
                    (amp * arr).reshape(-1, 3),
                )

    # The phase functions below take ``(view, b)`` — an element subset and
    # an event — and are the only callers of the kernels.  Everything they
    # hand a component is the single-event view of event ``b``.

    def _local_force(self, view: _RegionSubset, b: int) -> np.ndarray:  # repro: hot-loop
        """Local (unassembled) force of event ``b`` on one subset — a view
        of the solver's local buffer, valid until the next call.  The
        kernel spans cover what SPECFEM's ``compute_forces_*`` routines
        cover: the gather through ``ibool`` and the element computation,
        with the memory-variable relaxation as a nested span per block."""
        tr = self.tracer
        code = view.code
        solid = code != self.fluid_code
        field = self.solid[code].displ[b] if solid else self.fluid.chi[b]
        shape = view.ibool.shape + field.shape[1:]
        if view.stash is None:
            local = carve(self._local, *shape)
        else:
            local = view.stash[b, view.rows(0, shape[0])]
        relax = None
        if code in self.attenuation:
            state = self.attenuation[code].events[b]
            tracers = self._lanes.tracers

            def relax(strain, lo, hi, ws):
                with tracers[ws.lane].span(
                    "kernel.attenuation",
                    flops=float(attenuation_update_flops(hi - lo)),
                ):
                    return state.relax(strain, view.rows(lo, hi), ws.memory)

        with tr.span(
            "kernel.elastic" if solid else "kernel.acoustic",
            flops=view.flops,
            gll_points=view.gll_points_count,
        ):
            gathered = gather(field, view.ibool, out=carve(self._gathered, *shape))
            self._lanes.apply(view.operator, gathered, local, relax)
        if solid and self.omega_vector is not None:
            v_local = gather(self.solid[code].veloc[b], view.ibool)
            local += coriolis_local_force(
                v_local, view.rho, view.geom, self.omega_vector
            )
        if view.gravity_g is not None:
            local += gravity_local_force(
                gathered,
                view.xyz_m,
                view.rho,
                view.gravity_g,
                view.geom,
                self.basis,
            )
        return local

    def _assemble_event(  # repro: hot-loop
        self, code: int, local: np.ndarray, ibool: np.ndarray, b: int, t: float
    ) -> None:
        """Scatter event ``b``'s local force into its row of the region's
        force buffer, then add the point terms (coupling, absorbing
        boundary, sources)."""
        force = self._force[code][b]
        with self.tracer.span("solver.assemble"):
            scatter_add(local, ibool, force.shape[0], out=force)
            if code == self.fluid_code:
                self._apply_fluid_coupling(force, b)
            else:
                self._apply_solid_coupling(code, force, b)
                if self.stacey is not None and code == RegionCode.CRUST_MANTLE:
                    self.stacey.apply(force, self.solid[code].veloc[b])
                self._apply_sources(code, force, b, t)

    def _update_fluid(self) -> None:  # repro: hot-loop
        """Finish the fluid step from its assembled force (the solids'
        coupling term needs the fresh ``chi_ddot``)."""
        fluid = self.fluid
        with self.tracer.span("solver.newmark_corrector"):
            np.multiply(
                self._force[self.fluid_code],
                self._rmass[self.fluid_code],
                out=fluid.chi_ddot,
            )
            # The assembled force has been consumed: it is the scratch.
            newmark.corrector_scalar(
                fluid.chi_dot, fluid.chi_ddot, self.dt, self._force[self.fluid_code]
            )

    def _pass(self, view: _RegionSubset, t: float) -> None:  # repro: hot-loop
        """Every event's force on one element subset, scattered into the
        region's force buffer.  A split region's sides write their local
        forces into its stash in full element order; the after-post side
        (``rescatter``) then scatters the whole stash — one ``bincount``
        over the full ``ibool``, the summation order of the unsplit
        region."""
        code = view.code
        for b in range(self.batch):
            local = self._local_force(view, b)
            if view.rescatter:
                local, ibool = view.stash[b], self.regions[code].ibool
            else:
                ibool = view.ibool
            self._assemble_event(code, local, ibool, b, t)

    def _forces(self, t: float) -> None:  # repro: hot-loop
        """The force schedule: per exchange round, the elements that feed
        the halo, the post, the remaining elements, the wait.  Leaves
        every region's assembled force in ``self._force``.

        That the split and unsplit schedules agree bit for bit rests on
        two facts:

        * interior elements touch no halo point, so the scatter of the
          boundary subset alone already carries the *complete* local
          contribution at every slice-shared point — that partial array is
          what gets sent while interior elements compute (the exchanger
          copies the shared-point values at post time, so the force
          buffer is free to be overwritten by the after-post pass);
        * the final local force is re-scattered from the per-element
          contributions in the region's element order (boundary-first, the
          order a blocking run of the same world uses too), so
          floating-point summation order matches the unsplit pass
          exactly, and the received neighbour contributions are added in
          the same sorted-rank order by both forms of the exchange.
        """
        ex = self.exchanger
        for arrays, before, after in self._rounds:
            for view in before:
                self._pass(view, t)
            pending = None
            if ex is not None:
                if self._overlap:
                    pending = ex.post(arrays)
                else:
                    ex.assemble(arrays)
            for view in after:
                self._pass(view, t)
            if pending is not None:
                ex.complete(pending, arrays)
            if self.fluid_code in arrays:
                self._update_fluid()

    def _one_step(self, t: float) -> None:  # repro: hot-loop
        dt = self.dt
        tr = self.tracer
        # Predictor on every field.
        with tr.span("solver.newmark_predictor"):
            for code in self.solid_codes:
                f = self.solid[code]
                newmark.predictor(f.displ, f.veloc, f.accel, dt)
            if self.fluid is not None:
                newmark.predictor_scalar(
                    self.fluid.chi, self.fluid.chi_dot, self.fluid.chi_ddot, dt
                )

        t0 = time.perf_counter()
        cpu0 = time.thread_time() + self._lanes.helper_cpu_s
        self._forces(t)
        # Finish the update.
        with tr.span("solver.newmark_corrector", flops=self._newmark_flops):
            for code in self.solid_codes:
                f = self.solid[code]
                np.multiply(self._force[code], self._rmass[code], out=f.accel)
                if code == RegionCode.CRUST_MANTLE and self.ocean_load is not None:
                    for b in range(self.batch):
                        self.ocean_load.apply(f.accel[b], self.mass[code])
                newmark.corrector(f.veloc, f.accel, dt, self._force[code])
        self.timings.compute_s += time.perf_counter() - t0
        self.timings.compute_cpu_s += (
            time.thread_time() + self._lanes.helper_cpu_s - cpu0
        )

    def total_energy(self) -> float:
        """Total mechanical energy of the coupled system.

        Solid regions: kinetic ``1/2 v^T M v`` plus elastic ``1/2 u^T K u``
        (via the force kernel).  Fluid (potential formulation, u = grad
        chi / rho, p = -chi_ddot): kinetic ``1/2 chi_dot^T K_f chi_dot``
        and compressional ``1/2 chi_ddot^T M_f chi_ddot``.  Conserved (to
        the scheme's O(dt^2) oscillation) once sources stop, *including*
        across the CMB/ICB coupling — the invariant the energy test uses
        to pin the coupling signs.
        """
        total = 0.0
        # -1/2 x^T (-K x), a sum over elements.
        for _, _, local, k_local in self._stiffness_products(fluid="chi_dot"):
            total += -0.5 * float(np.sum(local * k_local))
        for code in self.solid_codes:
            total += self.solid[code].kinetic_energy(self.mass[code])
        if self.fluid is not None:
            total += 0.5 * float(
                np.sum(self.mass[self.fluid_code] * self.fluid.chi_ddot**2)
            )
        return total

    def _stiffness_products(self, fluid: str = "chi"):
        """Per element subset and event, ``(view, b, local, -K local)``:
        the gathered displacement (on the fluid, the ``fluid`` field of
        :class:`FluidField`) and its unassembled stiffness force, through
        the time loop's own subsets and operators, which partition every
        region.  Off the time loop: allocates per subset."""
        for _, before, after in self._rounds:
            for view in (*before, *after):
                if view.code == self.fluid_code:
                    field = getattr(self.fluid, fluid)
                else:
                    field = self.solid[view.code].displ
                for b in range(self.batch):
                    local = gather(field[b], view.ibool)
                    k_local = np.empty_like(local)
                    view.operator.apply(local, k_local, None, self._lanes.ws)
                    yield view, b, local, k_local

    def _total_kinetic_energy(self) -> float:
        total = 0.0
        for code in self.solid_codes:
            total += self.solid[code].kinetic_energy(self.mass[code])
        if self.fluid is not None:
            # Fluid kinetic energy in the potential formulation:
            # (1/2) int rho |v|^2 with v = (1/rho) grad(chi_dot); use the
            # mass-matrix proxy (1/2) chi_dot M chi_dot (same decay behaviour).
            total += 0.5 * float(
                np.sum(self.mass[self.fluid_code] * self.fluid.chi_dot**2)
            )
        return total


def _boundary_count(split, nspec: int, code: int) -> int:
    """Boundary elements of a boundary-first ``split`` of ``nspec``
    elements; :class:`ValueError` unless its boundary elements are
    ``0:nb`` and its interior ones ``nb:nspec``."""
    nb = len(split.boundary)
    order = np.concatenate([split.boundary, split.interior])
    if not np.array_equal(order, np.arange(nspec)):
        raise ValueError(
            f"element split of region {code} is not boundary-first "
            f"(boundary 0:{nb}, interior {nb}:{nspec}); order the slice "
            f"with repro.mesh.partition.boundary_first"
        )
    return nb


def _record_energy(energies: list, step: int, solver: GlobalSolver) -> None:
    """Step observer (bound to a run's list): the kinetic energy every
    :data:`ENERGY_EVERY` steps, published as ``solver.kinetic_energy_j``."""
    if step % ENERGY_EVERY == 0:
        energies.append(solver._total_kinetic_energy())
        metrics = solver.publishing(step)
        if metrics is not None:
            metrics.timeseries("solver.kinetic_energy_j").append(step, energies[-1])


def _record_seismograms(step: int, solver: GlobalSolver) -> None:
    """Step observer: one row of every event's seismograms."""
    cm = solver.regions[RegionCode.CRUST_MANTLE]
    displ = solver.solid[RegionCode.CRUST_MANTLE].displ
    with solver.tracer.span("io.seismogram_record") as sp:
        for b, rs in enumerate(solver.receiver_sets):
            rs.record(displ[b], cm.ibool)
        nbytes = len(solver._located) * 3 * 8 * solver.batch
        sp.add(bytes=nbytes)
        metrics = solver.publishing(step)
        if metrics is not None:
            metrics.counter("io.seismogram_bytes").add(nbytes)
