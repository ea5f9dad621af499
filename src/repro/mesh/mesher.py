"""The mesher (SPECFEM's ``meshfem3D``): cubed-sphere globe mesh generation.

One *slice* is the full radial column under an angular patch of one chunk:
crust/mantle elements down to the CMB, fluid outer-core elements to the
ICB, inner-core shell elements down to the central cube, and — for slices
of the two polar chunks — a share of the central cube itself.

Geometry is generated by evaluating the analytic cubed-sphere and
central-cube mappings at the GLL points of every element (isoparametric
degree-4 geometry); the solver later differentiates these coordinates
spectrally to obtain exact-to-interpolation Jacobians.

Section 4.4 of the paper: the legacy mesher ran its generation loop twice
(geometry first, then a second identical sweep to attach material values),
halving mesher throughput at scale; this mesher assigns materials right
after creating each region's geometry, in one pass (the A-MESH2X
ablation wraps the geometry step to measure the factor-of-two).  The
merged global mesh takes geometry only from its slices and is numbered
and filled once, on the merged region.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import constants
from ..config.parameters import SimulationParameters
from ..cubed_sphere.mapping import NCHUNKS, chunk_points
from ..cubed_sphere.topology import SliceAddress, SliceGrid
from ..gll.quadrature import gll_points_and_weights
from ..model.ellipticity import EllipticityProfile
from ..model.perturbations import SyntheticTomography
from ..model.prem import LOVE_PROPERTIES, PREM, RegionCode, love_moduli
from ..obs.tracer import maybe_tracer
from . import central_cube, radial
from .element import RegionMesh, SliceMesh
from .numbering import build_global_numbering

__all__ = [
    "build_slice_mesh",
    "build_global_mesh",
    "assign_materials",
    "GlobalMesh",
    "MesherStats",
]


@dataclass
class MesherStats:
    """Bookkeeping from one mesher run (feeds the perf models)."""

    elements_generated: int = 0
    gll_points_generated: int = 0
    material_points_assigned: int = 0


def _region_layer_count(params: SimulationParameters, region: int) -> int:
    return {
        RegionCode.CRUST_MANTLE: params.ner_crust_mantle,
        RegionCode.OUTER_CORE: params.ner_outer_core,
        RegionCode.INNER_CORE: params.ner_inner_core,
    }[region]


def _angular_gll_grid(bounds_1d: np.ndarray, ngll: int) -> np.ndarray:
    """Per-cell GLL angles: (ncells, ngll) from cell boundary angles."""
    xi_gll, _ = gll_points_and_weights(ngll)
    lo = bounds_1d[:-1, None]
    hi = bounds_1d[1:, None]
    return 0.5 * ((hi - lo) * xi_gll[None, :] + (hi + lo))


def _shell_region_geometry(
    params: SimulationParameters, address: SliceAddress, region: int
) -> np.ndarray:
    """GLL coordinates (km) of all shell elements of one region of one slice.

    Element order: radial layer (bottom first), then eta cell, then xi cell.
    Returns (nspec, n, n, n, 3).
    """
    ngll = constants.NGLLX
    grid = SliceGrid(params.nproc_xi)
    nex_per = params.nex_per_slice
    xi_bounds, eta_bounds = grid.slice_coordinates_1d(address, nex_per)
    xi_gll = _angular_gll_grid(xi_bounds, ngll)  # (nex_per, ngll)
    eta_gll = _angular_gll_grid(eta_bounds, ngll)

    n_layers = _region_layer_count(params, region)
    if params.uniform_radial_layers:
        breaks = radial.radial_breaks_km_uniform(region, n_layers)
    else:
        breaks = radial.radial_breaks_km(region, n_layers)
    ref_gll, _ = gll_points_and_weights(ngll)

    # Each (xi, eta) direction is evaluated once, on axes (eta cell, xi
    # cell, GLL i, GLL j); every radius along it only scales it.
    xi_dir = xi_gll[None, :, :, None]
    eta_dir = eta_gll[:, None, None, :]
    directions = chunk_points(address.chunk, xi_dir, eta_dir)
    # Radii broadcast over (nlayer, neta, nxi, ngll_i, ngll_j, ngll_k).
    if region == RegionCode.INNER_CORE:
        # Bottom surface is the inflated central cube: radius varies with
        # angle; blend linearly in the layer fraction toward the ICB sphere.
        rc = radial.central_cube_radius_km()
        r_surf = central_cube.cube_surface_radius(xi_dir, eta_dir, rc)
        fractions = np.linspace(0.0, 1.0, n_layers + 1)
        s_lo = fractions[:-1]
        s_hi = fractions[1:]
        s = (
            0.5
            * (
                (s_hi - s_lo)[:, None] * ref_gll[None, :]
                + (s_hi + s_lo)[:, None]
            )
        )  # (nlayer, ngll)
        S = s[:, None, None, None, None, :]
        R = (1.0 - S) * r_surf[..., None] + S * constants.R_ICB_KM
    else:
        r_gll = _angular_gll_grid(breaks, ngll)  # (nlayer, ngll) radii
        R = r_gll[:, None, None, None, None, :]

    pts = R[..., None] * directions[:, :, :, :, None, :]
    nspec = n_layers * nex_per * nex_per
    return pts.reshape(nspec, ngll, ngll, ngll, 3)


def _shell_labels(
    params: SimulationParameters, address: SliceAddress, region: int
) -> np.ndarray:
    """Numbering labels of one region's shell elements, in the element
    order of :func:`_shell_region_geometry` (see
    :func:`~repro.mesh.numbering.build_global_numbering`).

    A chunk is a structured (xi, eta, r) grid, so a point inside it is
    labelled by its chunk and grid index.  Points on the chunk's four
    edges (shared with other chunks) and, in the inner core, on the bottom
    surface glued to the central cube are labelled -1: coordinate matching
    finds their partners.
    """
    ngll = constants.NGLLX
    p = ngll - 1
    nex_per = params.nex_per_slice
    n_layers = _region_layer_count(params, region)
    n_side = params.nex_xi * p + 1
    n_radial = n_layers * p + 1
    local = np.arange(ngll)
    xi_cells = address.iproc_xi * nex_per + np.arange(nex_per)
    eta_cells = address.iproc_eta * nex_per + np.arange(nex_per)
    # Axes (layer, eta cell, xi cell, i, j, k) with GLL i along xi, j
    # along eta, k along r — the geometry's layout.
    ixi = (xi_cells[:, None] * p + local)[None, None, :, :, None, None]
    ieta = (eta_cells[:, None] * p + local)[None, :, None, None, :, None]
    ir = (np.arange(n_layers)[:, None] * p + local)[:, None, None, None, None, :]
    labels = ((address.chunk * n_radial + ir) * n_side + ieta) * n_side + ixi
    shared = (ixi == 0) | (ixi == n_side - 1) | (ieta == 0) | (ieta == n_side - 1)
    if region == RegionCode.INNER_CORE:
        shared = shared | (ir == 0)
    return np.where(shared, -1, labels).reshape(-1, ngll, ngll, ngll)


def _cube_labels(params: SimulationParameters, cells: np.ndarray) -> np.ndarray:
    """Numbering labels of central-cube elements ``cells`` ((nelem, 3) of
    (ia, ib, ic)): the cube's grid index, after every inner-core shell
    label; -1 on the cube's surface, which the shell's bottom shares."""
    ngll = constants.NGLLX
    p = ngll - 1
    n_side = params.nex_xi * p + 1
    offset = NCHUNKS * (params.ner_inner_core * p + 1) * n_side**2
    index = cells[:, :, None] * p + np.arange(ngll)  # (nelem, 3, ngll)
    ia = index[:, 0, :, None, None]
    ib = index[:, 1, None, :, None]
    ic = index[:, 2, None, None, :]
    labels = offset + (ia * n_side + ib) * n_side + ic
    surface = (
        (ia == 0) | (ia == n_side - 1) | (ib == 0) | (ib == n_side - 1)
        | (ic == 0) | (ic == n_side - 1)
    )
    return np.where(surface, -1, labels)


def _cube_geometry(
    params: SimulationParameters, address: SliceAddress, split_in_two: bool
) -> tuple[np.ndarray, np.ndarray]:
    """GLL coordinates and numbering labels of this slice's central-cube
    elements (may be empty)."""
    ngll = constants.NGLLX
    assignment = central_cube.assign_cube_columns(
        params.nex_xi, params.nproc_xi, split_in_two=split_in_two
    )
    slice_rank = address.iproc_eta * params.nproc_xi + address.iproc_xi
    cells = assignment.get((address.chunk, slice_rank), [])
    if not cells:
        return (
            np.empty((0, ngll, ngll, ngll, 3)),
            np.empty((0, ngll, ngll, ngll), dtype=np.int64),
        )
    rc = radial.central_cube_radius_km()
    bounds = np.linspace(-1.0, 1.0, params.nex_xi + 1)
    gll = _angular_gll_grid(bounds, ngll)  # (nex_xi, ngll) params per cell
    cells_arr = np.asarray(cells)  # (nelem, 3) of (ia, ib, ic)
    A = gll[cells_arr[:, 0]][:, :, None, None]
    B = gll[cells_arr[:, 1]][:, None, :, None]
    C = gll[cells_arr[:, 2]][:, None, None, :]
    A, B, C = np.broadcast_arrays(A, B, C)
    return central_cube.map_cube_points(A, B, C, rc), _cube_labels(params, cells_arr)


def assign_materials(
    mesh: RegionMesh,
    params: SimulationParameters,
    tomography: SyntheticTomography | None = None,
    stats: MesherStats | None = None,
) -> None:
    """Populate rho/kappa/mu/q_mu at every GLL point of a region mesh.

    PREM is sampled at each point's radius; the ``side`` of a first-order
    discontinuity is chosen from the element's centroid radius so every
    element samples its *own* layer at shared boundary points.  With
    ``params.use_3d_model`` the synthetic tomography perturbs the mantle
    (dvs full, dvp half, drho 0.3 — the usual tomographic scaling).
    """
    r = mesh.radii()
    r_mid = r.reshape(mesh.nspec, -1).mean(axis=1)
    rho = np.empty_like(r)
    kappa = np.empty_like(r)
    mu = np.empty_like(r)
    q_mu = np.empty_like(r)
    want_ti = (
        params.transverse_isotropy and mesh.region == RegionCode.CRUST_MANTLE
    )
    if want_ti:
        love = {name: np.empty_like(r) for name in "ACLNF"}
    props = ("rho", "vp", "vs", "q_mu") + (LOVE_PROPERTIES if want_ti else ())
    # Split points into "below centroid" and "above centroid" batches so the
    # discontinuity side is resolved per element in two vectorised queries.
    above = r >= r_mid[:, None, None, None]
    for mask, side in ((above, "below"), (~above, "above")):
        # Points above the centroid take the layer *below* them, and vice
        # versa: both resolve into the element's interior layer.
        if not np.any(mask):
            continue
        radii = np.clip(r[mask], 0.0, constants.R_EARTH_KM)
        # One layer lookup for every property of this side.
        profile = PREM.sample(radii, side, props)
        side_rho, vp, vs = profile["rho"], profile["vp"], profile["vs"]
        q_mu[mask] = profile["q_mu"]
        if (
            params.use_3d_model
            and tomography is not None
            and mesh.region == RegionCode.CRUST_MANTLE
        ):
            pts = mesh.xyz[mask]
            dv = tomography.dv_over_v(pts[..., 0], pts[..., 1], pts[..., 2])
            vs = vs * (1.0 + dv)
            vp = vp * (1.0 + 0.5 * dv)
            side_rho = side_rho * (1.0 + 0.3 * dv)
        side_mu = side_rho * vs**2
        rho[mask] = side_rho
        mu[mask] = side_mu
        kappa[mask] = side_rho * vp**2 - (4.0 / 3.0) * side_mu
        if want_ti:
            # Love parameters from the anisotropic PREM polynomials; the 3-D
            # perturbation (already applied to vp/vs/rho above) scales the
            # isotropic part only — standard practice for long-wavelength
            # tomography on top of a TI reference.
            for name, modulus in zip("ACLNF", love_moduli(profile)):
                love[name][mask] = modulus
    mesh.rho = rho
    mesh.kappa = kappa
    mesh.mu = mu
    mesh.q_mu = q_mu
    if want_ti:
        from ..kernels.anisotropic import TIModuli

        mesh.ti_moduli = TIModuli(
            A=love["A"], C=love["C"], L=love["L"], N=love["N"], F=love["F"]
        )
    if stats is not None:
        stats.material_points_assigned += r.size


_REGIONS = (RegionCode.CRUST_MANTLE, RegionCode.OUTER_CORE, RegionCode.INNER_CORE)


def _region_geometry(
    params: SimulationParameters,
    address: SliceAddress,
    region: int,
    ellipticity: EllipticityProfile | None,
    topography: "SyntheticTopography | None",
    split_central_cube: bool,
    stats: MesherStats,
    tracer,
) -> tuple[np.ndarray, np.ndarray]:
    """GLL coordinates of one region of one slice: the shell elements,
    any central-cube share behind the inner core's, then the deformations;
    and the points' numbering labels (:func:`_shell_labels`)."""
    with tracer.span("mesher.geometry") as span:
        xyz = _shell_region_geometry(params, address, region)
        labels = _shell_labels(params, address, region)
        if region == RegionCode.INNER_CORE:
            cube_xyz, cube_labels = _cube_geometry(
                params, address, split_central_cube
            )
            if cube_xyz.shape[0]:
                xyz = np.concatenate([xyz, cube_xyz], axis=0)
                labels = np.concatenate([labels, cube_labels], axis=0)
        if topography is not None:
            xyz = topography.apply_to_points(xyz)
        if ellipticity is not None:
            xyz = ellipticity.apply_to_points(xyz)
        span.add(elements=xyz.shape[0], gll_points=xyz[..., 0].size)
    stats.elements_generated += xyz.shape[0]
    stats.gll_points_generated += xyz[..., 0].size
    return xyz, labels


def _number_and_fill(
    region: int,
    xyz: np.ndarray,
    labels: np.ndarray,
    params: SimulationParameters,
    tomography: SyntheticTomography | None,
    stats: MesherStats,
    tracer,
) -> RegionMesh:
    """Number a region's points and attach its materials."""
    with tracer.span("mesher.numbering"):
        ibool, nglob = build_global_numbering(xyz, labels=labels)
    mesh = RegionMesh(region=region, xyz=xyz, ibool=ibool, nglob=nglob)
    with tracer.span("mesher.materials") as span:
        assign_materials(mesh, params, tomography=tomography, stats=stats)
        span.add(gll_points=mesh.xyz[..., 0].size)
    return mesh


def build_slice_mesh(
    params: SimulationParameters,
    address: SliceAddress | None = None,
    tomography: SyntheticTomography | None = None,
    ellipticity: EllipticityProfile | None = None,
    topography: "SyntheticTopography | None" = None,
    split_central_cube: bool = True,
    stats: MesherStats | None = None,
    tracer=None,
) -> SliceMesh:
    """Mesh one slice: the three regions plus any central-cube share.

    Each region is generated (:func:`_region_geometry`), numbered, and
    given its materials.
    """
    from ..model.topography import SyntheticTopography

    if address is None:
        address = SliceAddress(0, 0, 0)
    if params.use_3d_model and tomography is None:
        tomography = SyntheticTomography(seed=params.seed)
    if params.ellipticity and ellipticity is None:
        ellipticity = EllipticityProfile()
    if params.topography and topography is None:
        topography = SyntheticTopography(seed=params.seed)
    stats = stats if stats is not None else MesherStats()
    tracer = maybe_tracer(tracer)

    regions: dict[int, RegionMesh] = {}
    with tracer.span("mesher.slice"):
        for region in _REGIONS:
            with tracer.span("mesher.region", region=region):
                xyz, labels = _region_geometry(
                    params, address, region, ellipticity, topography,
                    split_central_cube, stats, tracer,
                )
                regions[region] = _number_and_fill(
                    region, xyz, labels, params, tomography, stats, tracer
                )
    return SliceMesh(
        chunk=address.chunk,
        iproc_xi=address.iproc_xi,
        iproc_eta=address.iproc_eta,
        regions=regions,
        cube_elements=_cube_elements(params, regions[RegionCode.INNER_CORE].nspec),
    )


def _cube_elements(params: SimulationParameters, nspec_inner_core: int) -> int:
    """Central-cube elements behind the shell elements of one slice's
    inner core."""
    return nspec_inner_core - params.ner_inner_core * params.nex_per_slice**2


@dataclass
class GlobalMesh:
    """All slices merged into one mesh per region (for the serial solver).

    ``slice_of_element[region]`` records, per merged element, the rank that
    owned it in the distributed decomposition — used by partitioning
    studies and by the legacy I/O writer.

    ``prepared`` is the :class:`~repro.solver.prepared.PreparedMesh` that
    every solver on this mesh shares; only
    :class:`~repro.campaign.mesh_cache.MeshCache` sets it, for as long as
    the mesh is one of its entries (None otherwise: each solver then
    prepares its own).
    """

    params: SimulationParameters
    regions: dict[int, RegionMesh]
    slice_of_element: dict[int, np.ndarray]
    cube_elements: int = 0
    prepared: object | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def nspec_total(self) -> int:
        return sum(r.nspec for r in self.regions.values())

    @property
    def nglob_total(self) -> int:
        return sum(r.nglob for r in self.regions.values())


def build_global_mesh(
    params: SimulationParameters,
    tomography: SyntheticTomography | None = None,
    split_central_cube: bool = True,
    stats: MesherStats | None = None,
    tracer=None,
) -> GlobalMesh:
    """Mesh the whole globe: every slice of every chunk, merged and renumbered.

    Slices contribute geometry only; points are numbered and materials
    attached once, on the merged region.  The merged numbering glues slice
    boundaries by coordinate matching exactly as a per-slice numbering
    glues element boundaries, so the serial solver sees one conforming
    global mesh per region.
    """
    from ..model.topography import SyntheticTopography

    if params.use_3d_model and tomography is None:
        tomography = SyntheticTomography(seed=params.seed)
    ellipticity = EllipticityProfile() if params.ellipticity else None
    topography = SyntheticTopography(seed=params.seed) if params.topography else None
    stats = stats if stats is not None else MesherStats()
    tracer = maybe_tracer(tracer)
    grid = SliceGrid(params.nproc_xi)
    per_region: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {
        r: [] for r in _REGIONS
    }
    cube_total = 0
    with tracer.span("mesher.generate") as gen_span:
        for rank in range(grid.nproc_total):
            with tracer.span("mesher.slice"):
                for region in _REGIONS:
                    with tracer.span("mesher.region", region=region):
                        per_region[region].append(
                            _region_geometry(
                                params, grid.address_of(rank), region, ellipticity,
                                topography, split_central_cube, stats, tracer,
                            )
                        )
            cube_total += _cube_elements(
                params, per_region[RegionCode.INNER_CORE][-1][0].shape[0]
            )
        regions: dict[int, RegionMesh] = {}
        owners: dict[int, np.ndarray] = {}
        with tracer.span("mesher.merge"):
            for region in _REGIONS:
                # The slices' shares are dropped once merged, before the
                # region's materials are filled.
                parts = per_region.pop(region)
                owners[region] = np.repeat(
                    np.arange(len(parts)), [part.shape[0] for part, _ in parts]
                )
                xyz, labels = (np.concatenate(a, axis=0) for a in zip(*parts))
                del parts
                regions[region] = _number_and_fill(
                    region, xyz, labels, params, tomography, stats, tracer
                )
        gen_span.add(
            elements=sum(m.nspec for m in regions.values()),
            gll_points=sum(m.xyz[..., 0].size for m in regions.values()),
        )
    return GlobalMesh(
        params=params,
        regions=regions,
        slice_of_element=owners,
        cube_elements=cube_total,
    )
