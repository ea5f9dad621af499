"""The solver (SPECFEM's ``specfem3D``): coupled global wave propagation.

Orchestrates one simulation over a mesh bundle (the merged serial globe
mesh, or one slice of the distributed run — the same class serves both,
with cross-rank assembly injected through the ``exchanger`` the
virtual-MPI launcher provides):

* three regions (two solid, one fluid) marched with the explicit Newmark
  scheme of Section 2.4;
* internal forces from the :mod:`repro.kernels` variants of Section 4.3;
* displacement-based non-iterative solid-fluid coupling at CMB and ICB;
* optional attenuation (memory variables), rotation (Coriolis),
  self-gravitation (Cowling), and ocean load;
* moment-tensor sources and interpolated/closest-point receivers
  (Section 4.4);
* B events on one mesh (docs/batching.md): the persistent arrays carry a
  leading event axis — a ``sources=`` run is ``B = 1`` — and the event
  loop lives here, in the phase functions, and nowhere else: every
  component they call is single-event and runs on a ``displ[b]`` view;
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
from typing import Mapping

import numpy as np

from ..config import constants
from ..config.parameters import SimulationParameters
from ..gll.lagrange import GLLBasis
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
from ..obs.tracer import maybe_tracer
from . import newmark
from .assembly import gather, scatter_add
from .attenuation import AttenuationState, build_attenuation
from .body_terms import coriolis_local_force, gravity_local_force
from .coupling import CouplingOperator
from .fields import FluidField, SolidField
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


@dataclass
class SolverTimings:
    """Wall-clock split of one run (the IPM-style summary).

    ``compute_cpu_s`` uses the per-thread CPU clock: under thread
    oversubscription (many virtual ranks on few cores) it measures actual
    work done, where the wall clock would count scheduler wait.
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
    """An element subset of one region's state, as the force kernels see it.

    ``idx`` selects the elements in the region's original order: the
    trivial subset ``slice(None)`` (the whole region — every attribute
    is then a view and nothing is copied) or the ascending boundary /
    interior index arrays of the overlapped schedule.  Holds the subset's
    force operator (geometry and materials folded once), numbering and
    physics extras, built once at solver build so the time loop pays no
    per-step slicing of static data.  The operator applied per subset
    produces exactly the rows the full-region operator would, because
    every step of it is elementwise over the element axis.
    """

    def __init__(self, solver: "GlobalSolver", code: int, idx):
        st = solver.regions[code]
        self.code = code
        self.idx = idx
        mesh = st.mesh
        self.ibool = st.ibool[idx]
        self.geom = st.geom.subset(idx)
        self.rho = mesh.rho[idx]
        g = solver.gravity_g.get(code)
        self.gravity_g = None if g is None else g[idx]
        self.xyz_m = None if g is None else mesh.xyz[idx] * LENGTH_SCALE
        # Per-phase flop estimates (the PSiNS-analog counters attached to
        # kernel spans), computed once so the hot loop only reads them.
        nspec = self.ibool.shape[0]
        self.gll_points_count = float(nspec * constants.NGLLX**3)
        basis, ws = solver.basis, solver._workspace
        if code == solver.fluid_code:
            self.operator = AcousticOperator(self.geom, 1.0 / self.rho, basis, ws)
            self.flops = float(acoustic_kernel_flops(nspec))
        else:
            self.flops = float(elastic_kernel_flops(nspec))
            mu = mesh.mu[idx]
            lam = mesh.kappa[idx] - (2.0 / 3.0) * mu
            if mesh.ti_moduli is None:
                self.operator = ElasticOperator(
                    self.geom, lam, mu, basis, ws, solver.params.kernel_variant,
                )
            else:
                from ..kernels.anisotropic import TIElasticOperator

                m = mesh.ti_moduli
                self.operator = TIElasticOperator(
                    self.geom, lam, mu,
                    type(m)(A=m.A[idx], C=m.C[idx], L=m.L[idx], N=m.N[idx], F=m.F[idx]),
                    st.ti_frames[idx], basis, ws,
                )

    def rows(self, lo: int, hi: int):
        """Region elements of this subset's elements ``lo:hi`` — the
        attenuation selector: the subsets of a region partition it."""
        return slice(lo, hi) if isinstance(self.idx, slice) else self.idx[lo:hi]


class GlobalSolver:
    """Set up and run one coupled global simulation.

    Parameters
    ----------
    mesh_bundle : object with ``regions: dict[int, RegionMesh]`` (a
        :class:`repro.mesh.GlobalMesh` or :class:`repro.mesh.SliceMesh`).
    params : simulation parameters (kernel variant, physics switches...).
    sources, stations : source and receiver definitions (positions in km).
    exchanger : optional halo exchanger (duck-typed
        :class:`repro.parallel.halo.HaloExchanger`: ``assemble``,
        ``post``/``complete``, ``merge_regions``) summing the other
        ranks' contributions into point-leading ``{region: (nglob, ...)
        array}`` dicts *in place*; None for serial runs.  Also applied
        once at setup, to a copy of the prepared mass matrices.
    element_splits : dict ``region -> ElementSplit`` (from
        :func:`repro.mesh.partition.split_slice_elements`) classifying
        each region's elements as halo-touching or interior.  Given, the
        time loop exchanges without blocking — boundary elements, post,
        interior elements, wait; None is the blocking schedule, where
        nothing remains after the post.  Regions missing from the dict
        are treated as all-interior.
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
        health_sentinel=None,
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
        #: an optional :class:`~repro.obs.metrics.MetricsRegistry` sampled
        #: per timestep.
        self.tracer = maybe_tracer(tracer)
        self.metrics = metrics
        #: Optional :class:`~repro.obs.stream.StreamingTelemetry`: one
        #: ring-buffer sample per time step, flushed as JSONL so long
        #: runs are watchable live.  The solver only *reads* state into
        #: the stream, so streamed and unstreamed runs are bit-identical.
        self.stream = stream
        #: Numerical health sentinel (:mod:`repro.chaos.sentinel`): either
        #: injected (the launcher passes per-rank sentinels) or
        #: auto-created when ``params.health_check_every`` is set, so every
        #: entry point — serial apps, segmented campaigns, distributed
        #: runs — gets the same divergence detection from one knob.
        if health_sentinel is None and params.health_check_every is not None:
            from ..chaos.sentinel import HealthSentinel

            health_sentinel = HealthSentinel(
                check_every=params.health_check_every
            )
        self.health_sentinel = health_sentinel
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
        if params.nstep_override is not None:
            self.n_steps = int(params.nstep_override)
        else:
            self.n_steps = max(1, int(np.ceil(params.record_length_s / self.dt)))

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
            locator(RegionCode.CRUST_MANTLE).locate(station, params.station_location)
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
        #: The kernels' block work vectors, one set for all regions, subsets
        #: and events (they run one after another).
        self._workspace = Workspace(constants.NGLLX)
        # One event's gathered field and local force on the largest region.
        local = max(
            st.ibool.size * (1 if st.mesh.is_fluid else 3)
            for st in self.regions.values()
        )
        self._gathered = np.empty(local, dtype=np.float64)
        self._local = np.empty(local, dtype=np.float64)
        #: Assembled force per region, (B, nglob[, 3]).
        self._force: dict[int, np.ndarray] = {}
        #: Split regions only: local forces in full element order, for the
        #: re-scatter that reproduces the unsplit summation order.
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
            # A degenerate side is skipped, not run empty: the other is the
            # whole region as the trivial subset, scattered once — before
            # the post unless no element of it touches the halo.
            split = element_splits.get(code) if self._overlap else None
            if self._overlap and (split is None or not len(split.boundary)):
                after[code] = _RegionSubset(self, code, slice(None))
            elif split is None or not len(split.interior):
                before[code] = _RegionSubset(self, code, slice(None))
            else:
                before[code] = _RegionSubset(
                    self, code, np.asarray(split.boundary, dtype=np.intp)
                )
                after[code] = _RegionSubset(
                    self, code, np.asarray(split.interior, dtype=np.intp)
                )
                self._scratch_local[code] = np.empty(
                    (self.batch, *st.ibool.shape, *ncomp), dtype=np.float64
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
        48 ms step, 12 ms here — which is set-up hidden inside the loop."""
        ws = self._workspace
        buffers = [ws.a, ws.b, ws.c, self._gathered, self._local]
        buffers += [*self._force.values(), *self._scratch_local.values()]
        if self.attenuation:
            buffers.append(ws.memory)
            buffers += [att.zeta for att in self.attenuation.values()]
        for f in self.solid.values():
            buffers += [f.displ, f.veloc, f.accel]
        if self.fluid is not None:
            buffers += [self.fluid.chi, self.fluid.chi_dot, self.fluid.chi_ddot]
        for buf in buffers:
            buf.fill(0.0)

    def reset_receivers(self, n_steps: int) -> None:
        """(Re)allocate every event's recording buffers for ``n_steps``:
        one :class:`ReceiverSet` per event over the shared located
        receivers, none without stations."""
        self.receiver_sets: list[ReceiverSet] = [
            ReceiverSet(self._located, n_steps, self.dt)
            for _ in range(self.batch if self._located else 0)
        ]

    def restore_seismograms(self, data: np.ndarray, cursor: int) -> None:
        """Restore partially-recorded ``(B, nrec, n_steps, 3)`` buffers and
        their step cursor (checkpoint load, shrink remap).  The buffers
        are rebuilt at the saved length: the restored run keeps the
        checkpointed recording horizon, which need not be the solver's
        default ``n_steps``."""
        if data.shape[2] != self.receiver_sets[0].n_steps:
            self.reset_receivers(data.shape[2])
        for rs, event_data in zip(self.receiver_sets, data):
            rs.data[:] = event_data
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
        """Resolve a source into (region, element, source_array, source)."""
        position = np.asarray(source.position, dtype=np.float64)
        r = float(np.linalg.norm(position))
        region = PREM.region_of(r)
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
        from ..gll.lagrange import lagrange_basis, lagrange_basis_derivative
        from ..gll.quadrature import gll_points_and_weights

        nodes, _ = gll_points_and_weights(exyz.shape[0])
        hx, hy, hz = (lagrange_basis(nodes, v) for v in ref)
        dhx, dhy, dhz = (lagrange_basis_derivative(nodes, v) for v in ref)
        jac = np.stack(
            [
                np.einsum("ijk,ijkc->c",
                          dhx[:, None, None] * hy[None, :, None] * hz[None, None, :],
                          exyz),
                np.einsum("ijk,ijkc->c",
                          hx[:, None, None] * dhy[None, :, None] * hz[None, None, :],
                          exyz),
                np.einsum("ijk,ijkc->c",
                          hx[:, None, None] * hy[None, :, None] * dhz[None, None, :],
                          exyz),
            ],
            axis=0,
        )  # jac[l, c] = dx_c / dxi_l
        return np.linalg.inv(jac).T  # [l, c] = dxi_l / dx_c

    # -------------------------------------------------------------- initial

    def set_initial_displacement(self, displacement_fn) -> None:
        """Set u(x, 0) on every solid region from a callable of coordinates.

        ``displacement_fn`` receives (nglob, 3) coordinates in km and
        returns (nglob, 3) displacements in metres.  Velocities and the
        fluid potential are zeroed (cosine-phase start) — used by the
        normal-mode validation, which initialises an analytic eigenmode.
        """
        for code in self.solid_codes:
            st = self.regions[code]
            coords = np.empty((st.nglob, 3), dtype=np.float64)
            coords[st.ibool.ravel()] = st.mesh.xyz.reshape(-1, 3)
            field = self.solid[code]
            field.displ[:] = displacement_fn(coords)
            field.veloc[:] = 0.0
            field.accel[:] = 0.0
        if self.fluid is not None:
            self.fluid.chi[:] = 0.0
            self.fluid.chi_dot[:] = 0.0
            self.fluid.chi_ddot[:] = 0.0

    # ------------------------------------------------------------------- run

    def run(
        self,
        n_steps: int | None = None,
        track_energy: bool = False,
        energy_every: int = 10,
        callbacks: list | None = None,
        start_step: int = 0,
        stop_step: int | None = None,
        metrics_from_step: int | None = None,
    ) -> SolverResult:
        """March the coupled system and return seismograms and timings.

        ``callbacks`` are invoked as ``cb(step, solver)`` after every step
        (movie recorders, checkpoint writers, custom probes).

        ``n_steps`` is the length of the run's time grid (seismogram
        buffers are sized to it); marching covers ``[start_step,
        stop_step)`` — by default the whole grid.  A checkpointed segment
        restores its state, then runs with ``start_step`` at the resume
        point and ``stop_step`` at its wall-limit boundary; the restored
        receiver buffers are preserved, not re-allocated.

        ``metrics_from_step`` suppresses per-step metrics emission for
        steps below it (default: ``start_step``, i.e. emit everything
        marched).  The segmented executor passes its *planned* segment
        boundary here: when a corrupt checkpoint forces a restart from an
        older step, the re-run of the already-counted span must not
        re-add ``solver.steps``/byte counters or duplicate time-series
        points — a segmented run's metrics match an uninterrupted run's
        exactly, like its seismograms.  Streaming telemetry is *not*
        gated: the stream is an honest log of what executed (re-run
        steps appear twice; the aggregator dedupes keep-last).
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
        energies: list[float] = []
        tr = self.tracer
        metrics = self.metrics
        metrics_from = (
            start_step if metrics_from_step is None else int(metrics_from_step)
        )
        stream = self.stream
        if stream is not None:
            comm_fn = stream.comm_time_fn
            halo_fn = stream.halo_wait_fn
            comm_prev = comm_fn() if comm_fn is not None else 0.0
            halo_prev = halo_fn() if halo_fn is not None else 0.0
        t_start = time.perf_counter()
        try:
            with tr.span("solver.run", steps=stop - start_step):
                for step in range(start_step, stop):
                    t = step * self.dt
                    if stream is not None:
                        t_step = time.perf_counter()
                        compute_prev = self.timings.compute_s
                    with tr.span("solver.timestep"):
                        self._one_step(t)
                        for cb in callbacks or ():
                            cb(step, self)
                        sentinel = self.health_sentinel
                        if sentinel is not None and (
                            sentinel.due(step) or step == stop - 1
                        ):
                            # The final step is always checked so a blow-up
                            # in the last partial interval cannot slip into
                            # the returned seismograms unflagged.
                            with tr.span("health.check", step=step):
                                if metrics is not None and step >= metrics_from:
                                    metrics.counter("health.checks").add(1)
                                try:
                                    sentinel.check(self, step)
                                except Exception:
                                    if (
                                        metrics is not None
                                        and step >= metrics_from
                                    ):
                                        metrics.counter(
                                            "health.failures"
                                        ).add(1)
                                    raise
                        if self.receiver_sets:
                            cm = self.regions[RegionCode.CRUST_MANTLE]
                            displ = self.solid[RegionCode.CRUST_MANTLE].displ
                            with tr.span("io.seismogram_record") as sp:
                                for b, rs in enumerate(self.receiver_sets):
                                    rs.record(displ[b], cm.ibool)
                                nbytes = len(self._located) * 3 * 8 * self.batch
                                sp.add(bytes=nbytes)
                                if metrics is not None and step >= metrics_from:
                                    metrics.counter(
                                        "io.seismogram_bytes"
                                    ).add(nbytes)
                        if track_energy and step % energy_every == 0:
                            energies.append(self._total_kinetic_energy())
                            if metrics is not None and step >= metrics_from:
                                metrics.timeseries(
                                    "solver.kinetic_energy_j"
                                ).append(step, energies[-1])
                    if metrics is not None and step >= metrics_from:
                        metrics.counter("solver.steps").add(1)
                        max_displ = max(
                            (
                                float(np.max(np.abs(self.solid[code].displ)))
                                for code in self.solid_codes
                            ),
                            default=0.0,
                        )
                        metrics.timeseries("solver.max_displacement_m").append(
                            step, max_displ
                        )
                    if stream is not None:
                        comm_now = comm_fn() if comm_fn is not None else 0.0
                        halo_now = halo_fn() if halo_fn is not None else 0.0
                        sentinel = self.health_sentinel
                        rs = self.receiver_sets[0] if self.receiver_sets else None
                        stream.sample(
                            step,
                            time.perf_counter() - t_step,
                            compute_s=self.timings.compute_s - compute_prev,
                            comm_s=comm_now - comm_prev,
                            halo_wait_s=halo_now - halo_prev,
                            seismogram_fill=(
                                rs.step_cursor / rs.n_steps
                                if rs is not None and rs.n_steps
                                else float("nan")
                            ),
                            health_checks=(
                                float(sentinel.checks)
                                if sentinel is not None
                                else float("nan")
                            ),
                            health_peak_m=(
                                sentinel.last_peak_m
                                if sentinel is not None
                                else float("nan")
                            ),
                            health_energy_j=(
                                sentinel.last_energy_j
                                if sentinel is not None
                                else float("nan")
                            ),
                        )
                        comm_prev, halo_prev = comm_now, halo_now
        finally:
            # Crash tolerance: an injected fault (or a real blow-up) must
            # not lose the already-buffered samples — the stream is the
            # post-mortem's first witness.
            if stream is not None:
                stream.flush()
        self.timings.total_s = time.perf_counter() - t_start
        self.timings.steps = stop - start_step
        return SolverResult(
            receivers=self.receiver_set,
            timings=self.timings,
            dt=self.dt,
            n_steps=n_steps,
            energy_history=np.asarray(energies) if track_energy else None,
        )

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
        local = carve(self._local, *shape)
        relax = None
        if code in self.attenuation:
            state = self.attenuation[code].events[b]
            scratch = self._workspace.memory

            def relax(strain, lo, hi):
                with tr.span(
                    "kernel.attenuation",
                    flops=float(attenuation_update_flops(hi - lo)),
                ):
                    return state.relax(strain, view.rows(lo, hi), scratch)

        with tr.span(
            "kernel.elastic" if solid else "kernel.acoustic",
            flops=view.flops,
            gll_points=view.gll_points_count,
        ):
            gathered = gather(field, view.ibool, out=carve(self._gathered, *shape))
            view.operator.apply(gathered, local, relax)
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
        force buffer, then add the point terms (coupling, sources)."""
        force = self._force[code][b]
        with self.tracer.span("solver.assemble"):
            scatter_add(local, ibool, force.shape[0], out=force)
            if code == self.fluid_code:
                self._apply_fluid_coupling(force, b)
            else:
                self._apply_solid_coupling(code, force, b)
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

    def _pass(  # repro: hot-loop
        self, view: _RegionSubset, t: float, rescatter: bool
    ) -> None:
        """Every event's force on one element subset, scattered into the
        region's force buffer.  A split region stashes each side's local
        forces in full element order; its after-post pass (``rescatter``)
        then scatters the whole stash — one ``bincount`` over the full
        ``ibool``, the summation order of the unsplit region."""
        code = view.code
        scratch = self._scratch_local.get(code)
        for b in range(self.batch):
            local, ibool = self._local_force(view, b), view.ibool
            if scratch is not None:
                scratch[b][view.idx] = local
                if rescatter:
                    local, ibool = scratch[b], self.regions[code].ibool
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
          contributions in the *original* element order, so
          floating-point summation order matches the unsplit pass
          exactly, and the received neighbour contributions are added in
          the same sorted-rank order by both forms of the exchange.
        """
        ex = self.exchanger
        for arrays, before, after in self._rounds:
            for view in before:
                self._pass(view, t, rescatter=False)
            pending = None
            if ex is not None:
                if self._overlap:
                    pending = ex.post(arrays)
                else:
                    ex.assemble(arrays)
            for view in after:
                self._pass(view, t, rescatter=True)
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
        cpu0 = time.thread_time()
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
        self.timings.compute_cpu_s += time.thread_time() - cpu0

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
        # -1/2 x^T (-K x), a sum over elements: through the time loop's own
        # subsets and operators, which partition every region.
        for _, before, after in self._rounds:
            for view in (*before, *after):
                solid = view.code != self.fluid_code
                field = self.solid[view.code].displ if solid else self.fluid.chi_dot
                for b in range(self.batch):
                    local = gather(field[b], view.ibool)
                    k_local = np.empty_like(local)
                    view.operator.apply(local, k_local)
                    total += -0.5 * float(np.sum(local * k_local))
        for code in self.solid_codes:
            total += self.solid[code].kinetic_energy(self.mass[code])
        if self.fluid is not None:
            total += 0.5 * float(
                np.sum(self.mass[self.fluid_code] * self.fluid.chi_ddot**2)
            )
        return total

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
