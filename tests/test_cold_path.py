"""The cold path in array form equals the loops it replaced, exactly.

Set-up (external faces, surface filters, coupling operators, halos, the
merged global mesh, its numbering, materials and central cube, ocean load,
source location) finds integer indices, surface factors and material
values with array passes over all elements, faces or points.  The forms
they replaced live on here, verbatim, as oracles: the array forms must
return the same values BIT FOR BIT (``np.array_equal`` or equal bytes,
never ``allclose``), fail on the same inputs, and stay free of
per-element, per-face and per-point Python loops — which the
function-call guard at the bottom checks on any machine, whatever its
speed.
"""

import cProfile
import pstats

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import constants
from repro.config.parameters import SimulationParameters
from repro.cubed_sphere import SliceAddress, SliceGrid
from repro.cubed_sphere.mapping import NCHUNKS, chunk_points, chunk_rotation
from repro.gll.interpolation import interpolation_weights_3d
from repro.gll.lagrange import (
    GLLBasis,
    derivative_matrix,
    lagrange_basis,
    lagrange_basis_derivative,
    shape_functions,
)
from repro.gll.quadrature import gll_points_and_weights
from repro.mesh import (
    build_global_mesh,
    build_global_numbering,
    build_slice_mesh,
    external_faces,
    faces_at_radius,
)
from repro.mesh import mesher, quality, radial
from repro.mesh.central_cube import cube_surface_radius, map_cube_points
from repro.mesh.quality import (
    element_size_range,
    estimate_resolution,
    estimate_time_step,
)
from repro.mesh.element import RegionMesh
from repro.mesh.interfaces import FACE_SLICES, face_area_weights, face_points
from repro.mesh.numbering import group_rows, renumber_first_touch
from repro.model.perturbations import SyntheticTomography
from repro.model.prem import PREM, RegionCode
from repro.parallel.halo import build_halos
from repro.parallel.launcher import _assign_owners, prepare_world
from repro.solver import (
    GlobalSolver,
    MomentTensorSource,
    Station,
    build_coupling_operator,
    build_ocean_load,
    gaussian_stf,
)
from repro.kernels.anisotropic import radial_frames
from repro.kernels.geometry import ElementGeometry
from repro.kernels.weakform import reference_derivatives
from repro.solver import assemble_mass_matrix, assemble_scalar_mass_matrix, receivers
from repro.solver.prepared import (
    LENGTH_SCALE,
    PreparedMesh,
    deformed_surfaces,
    surface_tolerance,
)
from repro.solver import solver as solver_module
from repro.solver.sources import (
    moment_tensor_source_array,
    point_force_source_array,
)

#: The ledger's problem size (benchmarks/ledger/inputs.py ``MESH_KEYS``).
LEDGER_LAYERS = dict(ner_crust_mantle=2, ner_outer_core=1, ner_inner_core=1)
W2 = np.outer(GLLBasis(constants.NGLLX).weights, GLLBasis(constants.NGLLX).weights)
INTERFACES = (
    (constants.R_CMB_KM, RegionCode.CRUST_MANTLE, +1.0),
    (constants.R_ICB_KM, RegionCode.INNER_CORE, -1.0),
)


def params_of(**overrides):
    defaults = dict(nex_xi=4, nproc_xi=1, **LEDGER_LAYERS)
    defaults.update(overrides)
    return SimulationParameters(**defaults)


@pytest.fixture(scope="module")
def one_slice():
    return build_slice_mesh(params_of(), SliceAddress(0, 0, 0))


@pytest.fixture(scope="module")
def merged():
    return build_global_mesh(params_of())


@pytest.fixture(scope="module")
def deformed():
    return build_global_mesh(params_of(ellipticity=True, topography=True))


# ------------------------------------------------------------------ oracles
# The loop forms this PR deleted from src/, kept as they were.


def oracle_external_faces(ibool):
    nspec, n = ibool.shape[0], ibool.shape[1]
    last = n - 1
    corner_ids = (
        (0, 0, 0), (0, 0, last), (0, last, 0), (0, last, last),
        (last, 0, 0), (last, 0, last), (last, last, 0), (last, last, last),
    )
    face_corner_local = [
        [c for c in corner_ids if c[0] == 0],
        [c for c in corner_ids if c[0] == last],
        [c for c in corner_ids if c[1] == 0],
        [c for c in corner_ids if c[1] == last],
        [c for c in corner_ids if c[2] == 0],
        [c for c in corner_ids if c[2] == last],
    ]
    counts = {}
    signatures = []
    for ispec in range(nspec):
        sigs = []
        for face_id in range(6):
            ids = sorted(
                int(ibool[ispec][c]) for c in face_corner_local[face_id]
            )
            sig = tuple(ids)
            sigs.append(sig)
            counts[sig] = counts.get(sig, 0) + 1
        signatures.append(sigs)
    out = []
    for ispec in range(nspec):
        for face_id in range(6):
            if counts[signatures[ispec][face_id]] == 1:
                out.append((ispec, face_id))
    return out


def oracle_faces_at_radius(
    xyz, faces, radius, rel_tolerance=1e-6, radial_faces_only=False
):
    tol = radius * rel_tolerance
    out = []
    for ispec, face_id in faces:
        if radial_faces_only and face_id not in (4, 5):
            continue
        pts = face_points(xyz, ispec, face_id)
        r = np.linalg.norm(pts, axis=-1)
        if np.all(np.abs(r - radius) < tol):
            out.append((ispec, face_id))
    return out


def oracle_face_area_weights(face_xyz, weights_2d):
    h = derivative_matrix(face_xyz.shape[0])
    dxdu = np.einsum("iu,ujc->ijc", h, face_xyz)
    dxdv = np.einsum("jv,ivc->ijc", h, face_xyz)
    cross = np.cross(dxdu, dxdv)
    jac2d = np.linalg.norm(cross, axis=-1)
    return weights_2d * jac2d


def _face_signature(xyz, ispec, face_id, tol):
    pts = face_points(xyz, ispec, face_id).reshape(-1, 3)
    q = np.round(pts / tol).astype(np.int64)
    rows = sorted(map(tuple, q))
    return tuple(rows)


def oracle_coupling(
    fluid_xyz, fluid_ibool, fluid_faces, solid_xyz, solid_ibool, solid_faces,
    radius, weights_2d, outward_from_fluid=1.0,
):
    """``match_coupling_faces`` then the dict join of
    ``build_coupling_operator``: (fluid_ids, solid_ids, normals, weights)."""
    tol = max(radius, 1.0) * 1e-8
    face_lookup = {
        _face_signature(solid_xyz, s, f, tol): (s, f) for s, f in solid_faces
    }
    matched_solid = []
    normals = []
    weights = []
    for ispec, face_id in fluid_faces:
        sig = _face_signature(fluid_xyz, ispec, face_id, tol)
        if sig not in face_lookup:
            raise ValueError(
                f"fluid face (elem {ispec}, face {face_id}) at r={radius} "
                "has no matching solid face"
            )
        matched_solid.append(face_lookup[sig])
        pts = face_points(fluid_xyz, ispec, face_id)
        r = np.linalg.norm(pts, axis=-1, keepdims=True)
        normals.append(outward_from_fluid * pts / r)
        weights.append(oracle_face_area_weights(pts, weights_2d))
    solid_lookup = {}
    for ispec, face_id in matched_solid:
        ids = solid_ibool[(ispec, *FACE_SLICES[face_id])]
        pts = solid_xyz[(ispec, *FACE_SLICES[face_id])]
        q = np.round(pts / tol).astype(np.int64)
        for key, gid in zip(map(tuple, q.reshape(-1, 3)), ids.ravel()):
            solid_lookup[key] = int(gid)
    fluid_ids = []
    solid_ids = []
    for ispec, face_id in fluid_faces:
        f_ids = fluid_ibool[(ispec, *FACE_SLICES[face_id])]
        pts = fluid_xyz[(ispec, *FACE_SLICES[face_id])]
        q = np.round(pts / tol).astype(np.int64)
        s_ids = np.empty_like(f_ids)
        flat_keys = list(map(tuple, q.reshape(-1, 3)))
        for pos, key in enumerate(flat_keys):
            if key not in solid_lookup:
                raise ValueError(
                    f"no solid point matches fluid coupling point at "
                    f"r={radius}: face ({ispec}, {face_id})"
                )
            s_ids.ravel()[pos] = solid_lookup[key]
        fluid_ids.append(f_ids)
        solid_ids.append(s_ids)
    return (
        np.asarray(fluid_ids), np.asarray(solid_ids),
        np.asarray(normals), np.asarray(weights),
    )


def _oracle_boundary_points(mesh, tol):
    keys = []
    ids = []
    for ispec, face_id in oracle_external_faces(mesh.ibool):
        pts = mesh.xyz[(ispec, *FACE_SLICES[face_id])].reshape(-1, 3)
        gids = mesh.ibool[(ispec, *FACE_SLICES[face_id])].ravel()
        keys.append(np.round(pts / tol).astype(np.int64))
        ids.append(gids)
    keys = np.concatenate(keys)
    ids = np.concatenate(ids)
    first = np.sort(np.unique(keys, axis=0, return_index=True)[1])
    return keys[first], ids[first]


def oracle_halos(slices, tolerance_km=1e-5):
    """``{(rank_a, region, rank_b): ids}`` by the dict-of-owners loops."""
    out = {}
    for region in RegionCode.NAMES:
        owners = {}
        for rank, sl in enumerate(slices):
            keys, ids = _oracle_boundary_points(sl.regions[region], tolerance_km)
            for key, gid in zip(map(tuple, keys), ids):
                owners.setdefault(key, []).append((rank, int(gid)))
        pair_points = {}
        for key, own in owners.items():
            if len(own) < 2:
                continue
            for rank_a, gid_a in own:
                for rank_b, _gid_b in own:
                    if rank_a == rank_b:
                        continue
                    pair_points.setdefault((rank_a, rank_b), []).append(
                        (key, gid_a)
                    )
        for (rank_a, rank_b), entries in pair_points.items():
            entries.sort(key=lambda e: e[0])
            out[(rank_a, region, rank_b)] = np.asarray(
                [gid for _, gid in entries], dtype=np.int64
            )
    return out


def oracle_ocean_load(surface_faces, xyz, ibool, weights_2d, length_scale=1000.0):
    """(point_ids, normals, ocean_mass) by one ``np.add.at`` per face."""
    nglob = int(ibool.max()) + 1
    mass_at = np.zeros(nglob)
    normal_at = np.zeros((nglob, 3))
    for ispec, face_id in surface_faces:
        pts = xyz[(ispec, *FACE_SLICES[face_id])]
        ids = ibool[(ispec, *FACE_SLICES[face_id])]
        area_w = oracle_face_area_weights(pts, weights_2d) * length_scale**2
        r = np.linalg.norm(pts, axis=-1, keepdims=True)
        normals = pts / r
        np.add.at(
            mass_at, ids.ravel(), (constants.RHO_OCEAN * 3000.0 * area_w).ravel()
        )
        np.add.at(normal_at, ids.ravel(), normals.reshape(-1, 3))
    loaded = np.flatnonzero(mass_at > 0)
    normals = normal_at[loaded]
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return loaded, normals, mass_at[loaded]


def as_tuples(faces):
    return [(int(i), int(f)) for i, f in faces]


# ------------------------------------------------------------ face sets


class TestFaceSets:
    def test_external_faces_of_one_slice(self, one_slice):
        for mesh in one_slice.regions.values():
            faces = external_faces(mesh.ibool)
            assert faces.dtype == np.intp and faces.shape[1] == 2
            assert as_tuples(faces) == oracle_external_faces(mesh.ibool)

    def test_external_faces_of_the_merged_mesh(self, merged):
        for mesh in merged.regions.values():
            assert as_tuples(external_faces(mesh.ibool)) == oracle_external_faces(
                mesh.ibool
            )

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_external_faces_of_a_mesh_with_holes(self, merged, data):
        # Any element subset: removing elements exposes interior faces.
        ibool = merged.regions[RegionCode.OUTER_CORE].ibool
        keep = data.draw(
            st.lists(
                st.integers(0, ibool.shape[0] - 1), min_size=0, max_size=40,
                unique=True,
            )
        )
        sub = ibool[np.asarray(sorted(keep), dtype=np.intp)]
        assert as_tuples(external_faces(sub)) == oracle_external_faces(sub)

    @pytest.mark.parametrize("radial_only", [False, True])
    def test_faces_at_radius_on_a_deformed_mesh(self, deformed, radial_only):
        # Loose tolerance without the gamma-face restriction lets side
        # faces of thin layers in; both forms must agree on which.
        for radius, code, _ in INTERFACES + ((constants.R_EARTH_KM, 0, 0.0),):
            mesh = deformed.regions[code]
            ext = external_faces(mesh.ibool)
            got = faces_at_radius(
                mesh.xyz, ext, radius, rel_tolerance=0.02,
                radial_faces_only=radial_only,
            )
            want = oracle_faces_at_radius(
                mesh.xyz, as_tuples(ext), radius, rel_tolerance=0.02,
                radial_faces_only=radial_only,
            )
            assert len(want) > 0
            assert as_tuples(got) == want
            if radial_only:
                assert set(got[:, 1].tolist()) <= {4, 5}

    def test_faces_at_radius_on_exact_spheres(self, merged):
        mesh = merged.regions[RegionCode.CRUST_MANTLE]
        ext = external_faces(mesh.ibool)
        for radius in (constants.R_EARTH_KM, constants.R_CMB_KM):
            assert as_tuples(faces_at_radius(mesh.xyz, ext, radius)) == (
                oracle_faces_at_radius(mesh.xyz, as_tuples(ext), radius)
            )

    def test_batched_area_weights_equal_per_face_weights(self, deformed):
        mesh = deformed.regions[RegionCode.CRUST_MANTLE]
        ext = external_faces(mesh.ibool)
        batch = np.stack([face_points(mesh.xyz, i, f) for i, f in ext])
        got = face_area_weights(batch, W2)
        for k, face_xyz in enumerate(batch):
            assert np.array_equal(got[k], oracle_face_area_weights(face_xyz, W2))
            assert np.array_equal(got[k], face_area_weights(face_xyz, W2))


# ------------------------------------------------------------- coupling


def coupling_inputs(bundle, radius, solid_code):
    fl = bundle.regions[RegionCode.OUTER_CORE]
    sol = bundle.regions[solid_code]
    return (
        fl.xyz, fl.ibool,
        faces_at_radius(fl.xyz, external_faces(fl.ibool), radius),
        sol.xyz, sol.ibool,
        faces_at_radius(sol.xyz, external_faces(sol.ibool), radius),
    )


class TestCoupling:
    @pytest.mark.parametrize("which", ["one_slice", "merged"])
    def test_operator_equals_the_dict_join(self, which, request):
        bundle = request.getfixturevalue(which)
        for radius, solid_code, orientation in INTERFACES:
            args = coupling_inputs(bundle, radius, solid_code)
            op = build_coupling_operator(
                *args, radius, W2, outward_from_fluid=orientation
            )
            f_xyz, f_ibool, f_faces, s_xyz, s_ibool, s_faces = args
            fluid_ids, solid_ids, normals, weights = oracle_coupling(
                f_xyz, f_ibool, as_tuples(f_faces),
                s_xyz, s_ibool, as_tuples(s_faces),
                radius, W2, outward_from_fluid=orientation,
            )
            assert len(f_faces) > 0
            assert np.array_equal(op.fluid_ids, fluid_ids)
            assert np.array_equal(op.solid_ids, solid_ids)
            assert op.solid_ids.dtype == solid_ids.dtype
            assert np.array_equal(op.normals, normals)
            assert np.array_equal(op.weights, weights)

    def test_a_removed_solid_face_is_a_value_error(self, merged):
        args = list(coupling_inputs(merged, constants.R_CMB_KM, 0))
        args[5] = args[5][1:]
        with pytest.raises(ValueError, match=f"r={constants.R_CMB_KM}"):
            build_coupling_operator(*args, constants.R_CMB_KM, W2)
        with pytest.raises(ValueError, match=f"r={constants.R_CMB_KM}"):
            oracle_coupling(
                args[0], args[1], as_tuples(args[2]),
                args[3], args[4], as_tuples(args[5]), constants.R_CMB_KM, W2,
            )

    def test_a_displaced_fluid_point_is_a_value_error(self, merged):
        radius = constants.R_ICB_KM
        args = list(coupling_inputs(merged, radius, RegionCode.INNER_CORE))
        ispec, face_id = args[2][3]
        moved = args[0].copy()
        # Ten tolerances along x: the point leaves its solid partner's cell.
        moved[(ispec, *FACE_SLICES[face_id])][2, 2, 0] += 10 * radius * 1e-8
        args[0] = moved
        message = rf"r={radius}: face \({ispec}, {face_id}\)"
        with pytest.raises(ValueError, match=message):
            build_coupling_operator(*args, radius, W2, outward_from_fluid=-1.0)


# ---------------------------------------------------------------- halos


class TestHalos:
    @pytest.mark.parametrize("nproc_xi, nranks", [(1, 6), (2, 24)])
    def test_every_id_list_equals_the_owner_dict_loops(self, nproc_xi, nranks):
        params = params_of(nproc_xi=nproc_xi)
        grid = SliceGrid(nproc_xi)
        assert grid.nproc_total == nranks
        slices = [
            build_slice_mesh(params, grid.address_of(rank)) for rank in range(nranks)
        ]
        halos = build_halos(slices)
        got = {
            (rank, region, nbr): ids
            for rank, by_region in halos.items()
            for region, halo in by_region.items()
            for nbr, ids in halo.neighbors.items()
        }
        want = oracle_halos(slices)
        assert sorted(got) == sorted(want)
        for key, ids in want.items():
            assert got[key].dtype == ids.dtype
            assert np.array_equal(got[key], ids), key

    def test_a_slice_sharing_nothing_gets_empty_halos(self, one_slice):
        halos = build_halos([one_slice])
        assert set(halos[0]) == set(one_slice.regions)
        assert all(not halo.neighbors for halo in halos[0].values())


def oracle_assign_stations(stations, slices):
    assignment = {}
    for station in stations:
        target = np.asarray(station.position)
        best_rank, best_d = -1, np.inf
        for rank, sl in enumerate(slices):
            mesh = sl.regions[RegionCode.CRUST_MANTLE]
            d = np.min(np.linalg.norm(mesh.xyz.reshape(-1, 3) - target, axis=1))
            if d < best_d - 1e-12:
                best_rank, best_d = rank, d
        assignment.setdefault(best_rank, []).append(station)
    return assignment


def oracle_assign_sources(event_sources, slices):
    event_sources_of_rank = {}
    for b, ev_srcs in enumerate(event_sources):
        pseudo_b = [
            Station(f"__src{i}", tuple(np.asarray(s.position)))
            for i, s in enumerate(ev_srcs)
        ]
        for rank, plist in oracle_assign_stations(pseudo_b, slices).items():
            per_rank = event_sources_of_rank.setdefault(
                rank, [[] for _ in range(len(event_sources))]
            )
            for p in plist:
                per_rank[b].append(ev_srcs[int(p.name[5:])])
    return event_sources_of_rank


class TestOwnerAssignment:
    def test_one_pass_equals_the_per_station_rule(self):
        params = params_of(nproc_xi=2)
        grid = SliceGrid(2)
        slices = [
            build_slice_mesh(params, grid.address_of(rank))
            for rank in range(grid.nproc_total)
        ]
        # Two points rank 0 shares with a neighbour: targets on a slice
        # edge, as near to both slices as floating point allows.
        mesh = slices[0].regions[RegionCode.CRUST_MANTLE]
        nbr, ids = next(iter(build_halos(slices)[0][RegionCode.CRUST_MANTLE]
                             .neighbors.items()))
        flat = mesh.ibool.ravel()
        edge = [
            tuple(mesh.xyz.reshape(-1, 3)[np.flatnonzero(flat == p)[0]])
            for p in (ids[0], ids[len(ids) // 2])
        ]
        stations = [*STATIONS, Station("EDGE", edge[0])]
        on_edge = MomentTensorSource(
            position=edge[1], moment=np.eye(3), stf=gaussian_stf(12.0)
        )
        event_sources = [[*EVENTS[3], on_edge], [], EVENTS[2]]
        got_stations, got_sources = _assign_owners(
            slices, stations, event_sources
        )
        want_stations = oracle_assign_stations(stations, slices)
        want_sources = oracle_assign_sources(event_sources, slices)
        assert got_stations == want_stations
        assert list(got_stations) == list(want_stations)

        def ids_of(by_rank):
            return {r: [[id(s) for s in ev] for ev in evs]
                    for r, evs in by_rank.items()}

        assert ids_of(got_sources) == ids_of(want_sources)
        assert list(got_sources) == list(want_sources)
        # The tie goes to the lowest rank.
        assert nbr > 0
        assert stations[-1] in got_stations[0]
        assert any(s is on_edge for s in got_sources[0][0])


# ----------------------------------------------------- the global mesher


class TestGlobalMesher:
    def test_merged_arrays_equal_build_concatenate_renumber_refill(self, merged):
        params = merged.params
        grid = SliceGrid(params.nproc_xi)
        slices = [
            build_slice_mesh(params, grid.address_of(rank))
            for rank in range(grid.nproc_total)
        ]
        for region, got in merged.regions.items():
            xyz = np.concatenate([sl.regions[region].xyz for sl in slices], axis=0)
            ibool, nglob = build_global_numbering(xyz)
            want = RegionMesh(region=region, xyz=xyz, ibool=ibool, nglob=nglob)
            mesher.assign_materials(want, params)
            assert got.nglob == want.nglob
            for name in ("xyz", "ibool", "rho", "kappa", "mu", "q_mu"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
            owner = np.concatenate(
                [np.full(sl.regions[region].nspec, r, dtype=np.int64)
                 for r, sl in enumerate(slices)]
            )
            assert np.array_equal(merged.slice_of_element[region], owner)
        assert merged.cube_elements == sum(sl.cube_elements for sl in slices)

    @pytest.mark.parametrize("single_pass, numberings", [(True, 3), (False, 21)])
    def test_numbers_and_fills_once_per_region(
        self, monkeypatch, single_pass, numberings
    ):
        calls = {"numbering": 0, "materials": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            mesher, "build_global_numbering",
            counted("numbering", mesher.build_global_numbering),
        )
        monkeypatch.setattr(
            mesher, "assign_materials", counted("materials", mesher.assign_materials)
        )
        if not single_pass:
            # The legacy two-pass mesher (the A-MESH2X arm), injected: each
            # slice region's geometry is generated and numbered, then
            # generated again.
            geometry = mesher._region_geometry

            def two_pass(*args):
                xyz, labels = geometry(*args)
                mesher.build_global_numbering(xyz, labels=labels)
                return geometry(*args)

            monkeypatch.setattr(mesher, "_region_geometry", two_pass)
        stats = mesher.MesherStats()
        mesh = build_global_mesh(params_of(nex_xi=8), stats=stats)
        # The legacy two-pass mode repeats geometry and its numbering pass
        # slice by slice (6 slices x 3 regions); materials stay single.
        assert calls == {"numbering": numberings, "materials": 3}
        points = sum(m.xyz[..., 0].size for m in mesh.regions.values())
        assert stats.material_points_assigned == points
        assert stats.gll_points_generated == (1 if single_pass else 2) * points


# ------------------------------------------------------------ ocean load


def test_ocean_load_equals_the_per_face_assembly():
    mesh = build_global_mesh(params_of(oceans=True))
    cm = mesh.regions[RegionCode.CRUST_MANTLE]
    surface = faces_at_radius(
        cm.xyz, external_faces(cm.ibool), constants.R_EARTH_KM
    )
    load = build_ocean_load(surface, cm.xyz, cm.ibool, W2)
    point_ids, normals, ocean_mass = oracle_ocean_load(
        as_tuples(surface), cm.xyz, cm.ibool, W2
    )
    assert point_ids.size > 0
    assert np.array_equal(load.point_ids, point_ids)
    assert np.array_equal(load.normals, normals)
    assert np.array_equal(load.ocean_mass, ocean_mass)


# --------------------------------------------------- sources and locators


def event(depth_km, direction):
    direction = np.asarray(direction, dtype=np.float64)
    direction /= np.linalg.norm(direction)
    m = np.arange(9.0).reshape(3, 3) + depth_km
    return MomentTensorSource(
        position=tuple((constants.R_EARTH_KM - depth_km) * direction),
        moment=1e20 * (m + m.T),
        stf=gaussian_stf(12.0),
    )


EVENTS = [
    [event(80.0, (0.3, -0.5, 0.8))],
    [event(300.0, (0.3, -0.5, 0.8))],
    [event(5500.0, (1.0, 0.2, 0.1))],  # inner core: a second region's locator
    [event(620.0, (-0.7, 0.1, 0.2)), event(45.0, (0.0, 1.0, 0.0))],
]
STATIONS = [
    Station("A", (0.0, 0.0, constants.R_EARTH_KM)),
    Station("B", (constants.R_EARTH_KM, 0.0, 0.0)),
]


class TestLocators:
    def test_batched_source_terms_equal_dedicated_solvers(
        self, merged, monkeypatch
    ):
        # Interpolated stations carry weights to compare: inject that
        # locator (the A-STATION reference arm) at the solver's call.
        locate = receivers.PointLocator.locate
        monkeypatch.setattr(
            receivers.PointLocator, "locate",
            lambda self, station, mode: locate(self, station, "interpolated"),
        )
        params = merged.params
        batched = GlobalSolver(
            merged, params, event_sources=EVENTS, stations=STATIONS
        )
        terms = iter(batched.source_terms)
        for b, sources in enumerate(EVENTS):
            alone = GlobalSolver(merged, params, sources=sources, stations=STATIONS)
            for _, region, element, array, source in alone.source_terms:
                got = next(terms)
                assert got[:3] == (b, region, element)
                assert np.array_equal(got[3], array)
                assert got[4] is source
            for rec, want in zip(batched._located, alone._located):
                assert (rec.global_index, rec.element) == (
                    want.global_index, want.element
                )
                assert np.array_equal(rec.weights, want.weights)
        assert next(terms, None) is None

    def test_located_receiver_carries_its_newton_solution(self, merged):
        cm = merged.regions[RegionCode.CRUST_MANTLE]
        target = EVENTS[0][0].position
        rec = receivers.locate_receivers(
            [Station("src", target)], cm.xyz, cm.ibool, mode="interpolated"
        )[0]
        ref, err = receivers._invert_isoparametric(
            cm.xyz[rec.element], np.asarray(target)
        )
        assert np.array_equal(rec.ref, ref) and rec.location_error == err

    def test_one_tree_per_region_per_solver(self, merged, monkeypatch):
        built = []

        def counted(points, *args, **kwargs):
            built.append(len(points))
            return tree(points, *args, **kwargs)

        tree = receivers.cKDTree
        monkeypatch.setattr(receivers, "cKDTree", counted)
        GlobalSolver(merged, merged.params, event_sources=EVENTS, stations=STATIONS)
        # Five sources in two regions and two stations: two trees, not
        # seven, each over the region's distinct points.
        assert sorted(built) == sorted(
            merged.regions[code].nglob
            for code in (RegionCode.CRUST_MANTLE, RegionCode.INNER_CORE)
        )

    def test_distinct_point_trees_locate_as_all_copy_trees(self, merged, monkeypatch):
        # Interpolated stations carry an element and a ref to compare.
        locate = receivers.PointLocator.locate
        monkeypatch.setattr(
            receivers.PointLocator, "locate",
            lambda self, station, mode: locate(self, station, "interpolated"),
        )
        got = GlobalSolver(merged, merged.params, event_sources=EVENTS, stations=STATIONS)
        monkeypatch.setattr(solver_module, "PointLocator", oracle_all_copies_locator)
        want = GlobalSolver(merged, merged.params, event_sources=EVENTS, stations=STATIONS)
        for g, w in zip(got.source_terms, want.source_terms, strict=True):
            assert g[:3] == w[:3] and same_bits(g[3], w[3])
        for g, w in zip(got._located, want._located, strict=True):
            assert (g.global_index, g.element) == (w.global_index, w.element)
            assert same_bits(g.ref, w.ref)


# ------------------------------------ numbering, materials, cube, locator
# The set-up's arithmetic: chunk interiors numbered by grid index, one PREM
# lookup per layer, the central cube in one pass, a Newton search that
# stops at its host.  Their previous forms, kept as they were:


def oracle_numbering(xyz):
    """``build_global_numbering`` matching every point by coordinates."""
    span = float(np.max(xyz) - np.min(xyz)) if xyz.size else 1.0
    tolerance = max(span, 1.0) * 1e-9
    keys = np.round(xyz.reshape(-1, 3) / tolerance).astype(np.int64)
    first_index, inverse = group_rows(keys)
    order = np.argsort(first_index, kind="stable")
    rank_of_unique = np.empty_like(order)
    rank_of_unique[order] = np.arange(order.size)
    return rank_of_unique[inverse].reshape(xyz.shape[:-1]), int(order.size)


def oracle_renumber_first_touch(ibool, nglob):
    flat = ibool.ravel()
    perm = np.full(nglob, -1, dtype=np.int64)
    next_id = 0
    for g in flat:
        if perm[g] < 0:
            perm[g] = next_id
            next_id += 1
    if next_id != nglob:
        raise ValueError(f"ibool references {next_id} globals but nglob={nglob}")
    return perm[ibool], perm


def _oracle_layer_indices(r, side):
    tops = np.asarray([layer.r_top_km for layer in PREM.layers])
    if side == "below":
        idx = np.searchsorted(tops, r - 1e-12, side="left")
    else:
        idx = np.searchsorted(tops, r + 1e-12, side="right")
    return np.minimum(idx, len(PREM.layers) - 1)


def oracle_prem(prop, r, side, fallback=None):
    """One PREM property by its own lookup and layer loop (SI units)."""
    x = r / constants.R_EARTH_KM
    idx = _oracle_layer_indices(r, side)
    if prop in ("q_mu", "q_kappa"):
        return np.asarray([getattr(layer, prop) for layer in PREM.layers])[idx]
    out = np.ones_like(r) if prop == "eta" else np.empty_like(r)
    for li in np.unique(idx):
        mask = idx == li
        layer = PREM.layers[li]
        coeffs = getattr(layer, prop)
        if coeffs is None and fallback is not None:
            coeffs = getattr(layer, fallback)
        if coeffs is not None:
            out[mask] = layer.evaluate(coeffs, x[mask])
    if prop != "eta":
        out *= 1000.0
    return out


def oracle_love(r, side):
    rho = oracle_prem("rho", r, side)
    a = rho * oracle_prem("vph", r, side, "vp") ** 2
    c = rho * oracle_prem("vpv", r, side, "vp") ** 2
    l = rho * oracle_prem("vsv", r, side, "vs") ** 2
    n = rho * oracle_prem("vsh", r, side, "vs") ** 2
    f = oracle_prem("eta", r, side) * (a - 2.0 * l)
    return a, c, l, n, f


def oracle_materials(mesh, params, tomography):
    """``assign_materials`` with one PREM query per property and side."""
    r = mesh.radii()
    r_mid = r.reshape(mesh.nspec, -1).mean(axis=1)
    rho, kappa, mu, q_mu = (np.empty_like(r) for _ in range(4))
    want_ti = params.transverse_isotropy and mesh.region == RegionCode.CRUST_MANTLE
    love = {name: np.empty_like(r) for name in "ACLNF"}
    above = r >= r_mid[:, None, None, None]
    for mask, side in ((above, "below"), (~above, "above")):
        if not np.any(mask):
            continue
        radii = np.clip(r[mask], 0.0, constants.R_EARTH_KM)
        rho[mask] = oracle_prem("rho", radii, side)
        vp = oracle_prem("vp", radii, side)
        vs = oracle_prem("vs", radii, side)
        q_mu[mask] = oracle_prem("q_mu", radii, side)
        if params.use_3d_model and mesh.region == RegionCode.CRUST_MANTLE:
            pts = mesh.xyz[mask]
            dv = tomography.dv_over_v(pts[..., 0], pts[..., 1], pts[..., 2])
            vs = vs * (1.0 + dv)
            vp = vp * (1.0 + 0.5 * dv)
            rho[mask] = rho[mask] * (1.0 + 0.3 * dv)
        mu[mask] = rho[mask] * vs**2
        kappa[mask] = rho[mask] * vp**2 - (4.0 / 3.0) * mu[mask]
        if want_ti:
            for name, value in zip("ACLNF", oracle_love(radii, side)):
                love[name][mask] = value
    out = dict(rho=rho, kappa=kappa, mu=mu, q_mu=q_mu)
    if want_ti:
        out.update(love)
    return out


def oracle_map_cube_points(a, b, c, rc, gamma=0.41):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    a, b, c = np.broadcast_arrays(a, b, c)
    shape = a.shape
    p = np.stack([a.ravel(), b.ravel(), c.ravel()], axis=-1)
    if np.any(np.abs(p) > 1.0 + 1e-12):
        raise ValueError("cube parameters must lie in [-1, 1]^3")
    m = np.max(np.abs(p), axis=-1)
    out = np.zeros_like(p)
    nonzero = m > 0
    if np.any(nonzero):
        u = p[nonzero] / m[nonzero, None]
        best_l = np.full((u.shape[0], 3), -np.inf)
        best_face = np.zeros(u.shape[0], dtype=np.int64)
        for face in range(NCHUNKS):
            l = u @ chunk_rotation(face)
            better = l[:, 2] > best_l[:, 2] + 1e-12
            best_l[better] = l[better]
            best_face[better] = face
        xi = best_l[:, 0] * (np.pi / 4.0)
        eta = best_l[:, 1] * (np.pi / 4.0)
        tx, ty = np.tan(xi), np.tan(eta)
        n = np.sqrt(1.0 + tx * tx + ty * ty)
        r_s = rc * (1.0 + gamma * (n - 1.0))
        d_local = np.stack([tx / n, ty / n, 1.0 / n], axis=-1)
        d_global = np.empty_like(d_local)
        for face in range(NCHUNKS):
            mask = best_face == face
            if np.any(mask):
                d_global[mask] = d_local[mask] @ chunk_rotation(face).T
        out[nonzero] = (m[nonzero] * r_s)[:, None] * d_global
    return out.reshape(*shape, 3)


def oracle_locate(xyz, ibool, target):
    """Newton in every element that holds the nearest GLL point; the
    smallest error wins, the first in element order on a tie."""
    flat_index = int(np.argmin(np.linalg.norm(xyz.reshape(-1, 3) - target, axis=1)))
    nearest_global = ibool.ravel()[flat_index]
    candidates = np.unique(
        np.nonzero((ibool == nearest_global).reshape(ibool.shape[0], -1))[0]
    )
    best = None
    for e in candidates:
        ref, err = receivers._invert_isoparametric(xyz[e], target)
        if best is None or err < best[2]:
            best = (int(e), ref, err)
    return best


def oracle_all_copies_locator(xyz, ibool):
    """``PointLocator`` with its KD-tree over every GLL copy (``ibool.size``
    points), as it was built before the tree kept one copy per point."""
    locator = receivers.PointLocator(xyz, ibool)
    locator._copy = np.arange(ibool.size)
    locator._tree = receivers.cKDTree(xyz.reshape(-1, 3))
    return locator


def oracle_shape_functions(ngll, ref):
    nodes, _ = gll_points_and_weights(ngll)
    hx, hy, hz = (lagrange_basis(nodes, v) for v in ref)
    dhx, dhy, dhz = (lagrange_basis_derivative(nodes, v) for v in ref)
    return hx[:, None, None] * hy[None, :, None] * hz[None, None, :], (
        dhx[:, None, None] * hy[None, :, None] * hz[None, None, :],
        hx[:, None, None] * dhy[None, :, None] * hz[None, None, :],
        hx[:, None, None] * hy[None, :, None] * dhz[None, None, :],
    )


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


#: The three events the ledger's seeds 0, 1 and 2 locate first
#: (benchmarks/ledger/inputs.py ``event_inputs``).
LEDGER_EVENTS = (
    (1191.796625406026, -1252.2218516847183, 6070.565588721398),
    (2108.2368241437916, 5012.282579143765, 2015.8318235274678),
    (1711.7106797536144, -4733.02345410761, -3739.9239935995706),
)


class TestNumbering:
    @pytest.mark.parametrize("which", ["merged", "deformed"])
    def test_merged_mesh_equals_coordinate_matching(self, which, request):
        for region in request.getfixturevalue(which).regions.values():
            ibool, nglob = oracle_numbering(region.xyz)
            assert region.nglob == nglob
            assert same_bits(region.ibool, ibool)

    @pytest.mark.parametrize("nproc_xi", [1, 2])
    def test_cube_in_one_piece_equals_coordinate_matching(self, nproc_xi):
        mesh = build_global_mesh(params_of(nproc_xi=nproc_xi), split_central_cube=False)
        for region in mesh.regions.values():
            ibool, nglob = oracle_numbering(region.xyz)
            assert region.nglob == nglob
            assert same_bits(region.ibool, ibool)

    @pytest.mark.parametrize("split", [True, False])
    def test_nproc2_slices_equal_coordinate_matching(self, split):
        params = params_of(nproc_xi=2)
        grid = SliceGrid(2)
        for rank in range(grid.nproc_total):
            sl = build_slice_mesh(
                params, grid.address_of(rank), split_central_cube=split
            )
            for region in sl.regions.values():
                ibool, nglob = oracle_numbering(region.xyz)
                assert region.nglob == nglob
                assert same_bits(region.ibool, ibool)

    def test_without_labels_every_point_is_matched_by_coordinates(self, merged):
        xyz = merged.regions[RegionCode.INNER_CORE].xyz
        ibool, nglob = build_global_numbering(xyz)
        want, want_n = oracle_numbering(xyz)
        assert nglob == want_n and same_bits(ibool, want)

    def test_first_touch_renumbering_equals_the_point_loop(self, merged):
        region = merged.regions[RegionCode.CRUST_MANTLE]
        shuffle = np.random.default_rng(5).permutation(region.nglob)
        for ibool in (region.ibool, shuffle[region.ibool], shuffle[region.ibool[::-1]]):
            got = renumber_first_touch(ibool, region.nglob)
            want = oracle_renumber_first_touch(ibool, region.nglob)
            assert all(same_bits(g, w) for g, w in zip(got, want))
        with pytest.raises(ValueError, match="references"):
            renumber_first_touch(region.ibool, region.nglob + 1)


class TestMaterials:
    @pytest.mark.parametrize(
        "which", ["merged", "deformed", "transversely_isotropic_3d"]
    )
    def test_one_lookup_per_side_equals_one_per_property(self, which, request):
        mesh = (
            build_global_mesh(params_of(transverse_isotropy=True, use_3d_model=True))
            if which == "transversely_isotropic_3d"
            else request.getfixturevalue(which)
        )
        tomography = SyntheticTomography(seed=mesh.params.seed)
        for region in mesh.regions.values():
            want = oracle_materials(region, mesh.params, tomography)
            for name in ("rho", "kappa", "mu", "q_mu"):
                assert same_bits(getattr(region, name), want[name]), name
            if "A" in want:
                for name in "ACLNF":
                    assert same_bits(getattr(region.ti_moduli, name), want[name])

    def test_prem_accessors_equal_their_own_lookups(self):
        r = np.concatenate(
            [np.linspace(0.0, constants.R_EARTH_KM, 997),
             [layer.r_top_km for layer in PREM.layers]]
        )
        for side in ("below", "above"):
            for prop, fallback in (
                ("rho", None), ("vp", None), ("vs", None), ("q_mu", None),
                ("q_kappa", None), ("vph", "vp"), ("vpv", "vp"),
                ("vsh", "vs"), ("vsv", "vs"),
            ):
                got = getattr(PREM, "density" if prop == "rho" else prop)(r, side)
                assert same_bits(got, oracle_prem(prop, r, side, fallback)), prop
            assert same_bits(PREM.eta_anisotropy(r, side), oracle_prem("eta", r, side))
            for got, want in zip(PREM.love_parameters(r, side), oracle_love(r, side)):
                assert same_bits(got, want)
        assert PREM.density(3000.0) == float(oracle_prem("rho", np.array([3000.0]), "below")[0])


class TestCentralCube:
    def test_one_pass_equals_the_per_face_loop(self):
        # Kink planes (|a| = |b| etc.), cube edges and corners where faces
        # tie, ties inside the 1e-12 rule, signed zeros and the centre.
        g = np.unique(np.concatenate([
            np.linspace(-1.0, 1.0, 17),
            [0.0, 1e-13, -1e-13, 1 - 1e-13, -1 + 1e-13, 1 - 2e-12, 0.5 + 1e-13],
        ]))
        a, b, c = np.meshgrid(g, g, g, indexing="ij")
        rng = np.random.default_rng(11)
        cases = [
            (a, b, c),
            (np.where(a == 0, -0.0, a), -b, np.where(c == 0, -0.0, c)),
            tuple(rng.uniform(-1.0, 1.0, (3, 4000))),
            (a, a, -a),
        ]
        for args in cases:
            for gamma in (0.41, 0.0, 1.0):
                got = map_cube_points(*args, 1221.5, gamma)
                assert same_bits(got, oracle_map_cube_points(*args, 1221.5, gamma))
        for bad in ((1.5, 0.0, 0.0), (0.0, 0.0, -1.0 - 1e-9)):
            with pytest.raises(ValueError):
                map_cube_points(*bad, 1221.5)


def locator_targets(mesh, region, count, seed):
    """``count`` points of ``region``: inside elements, on shared faces,
    edges and corners (reference coordinates pinned to +-1) and on GLL
    nodes, each mapped through its element."""
    rng = np.random.default_rng(seed)
    xyz = mesh.regions[region].xyz
    nodes, _ = gll_points_and_weights(xyz.shape[1])
    out = []
    for t in range(count):
        ref = rng.uniform(-1.0, 1.0, 3)
        pinned = t % 5  # 0: interior, 1: face, 2: edge, 3: corner, 4: node
        if pinned == 4:
            ref = rng.choice(nodes, 3)
        else:
            ref[:pinned] = rng.choice([-1.0, 1.0], pinned)
            rng.shuffle(ref)
        e = rng.integers(xyz.shape[0])
        out.append(np.einsum("ijk,ijkc->c", shape_functions(xyz.shape[1], ref), xyz[e]))
    return out


class TestLocator:
    @pytest.mark.parametrize(
        "region, count", [(RegionCode.CRUST_MANTLE, 140), (RegionCode.INNER_CORE, 60)]
    )
    def test_stopping_at_the_host_equals_trying_every_candidate(
        self, merged, region, count
    ):
        mesh = merged.regions[region]
        locator = receivers.PointLocator(mesh.xyz, mesh.ibool)
        targets = locator_targets(merged, region, count, seed=region)
        if region == RegionCode.CRUST_MANTLE:
            targets += [np.asarray(p) for p in LEDGER_EVENTS]
        for target in targets:
            got = locator.locate(Station("t", tuple(target)), "interpolated")
            element, ref, err = oracle_locate(mesh.xyz, mesh.ibool, target)
            assert got.element == element
            assert same_bits(got.ref, ref) and got.location_error == err
            assert same_bits(
                got.weights, interpolation_weights_3d(mesh.xyz.shape[1], *ref)
            )

    @pytest.mark.parametrize(
        "region, count", [(RegionCode.CRUST_MANTLE, 140), (RegionCode.INNER_CORE, 60)]
    )
    def test_distinct_point_tree_equals_the_all_copies_tree(self, merged, region, count):
        mesh = merged.regions[region]
        locator = receivers.PointLocator(mesh.xyz, mesh.ibool)
        assert locator._tree.n == mesh.nglob < mesh.ibool.size
        oracle = oracle_all_copies_locator(mesh.xyz, mesh.ibool)
        targets = locator_targets(merged, region, count, seed=region + 10)
        targets += [np.asarray(s.position) for s in STATIONS]
        for target in targets:
            station = Station("t", tuple(target))
            got = locator.locate(station, "closest_point")
            assert got.global_index == oracle.locate(station, "closest_point").global_index


class TestShapeFunctions:
    def test_one_helper_equals_the_hand_built_products(self):
        rng = np.random.default_rng(3)
        nodes, _ = gll_points_and_weights(5)
        refs = [rng.uniform(-1.0, 1.0, 3) for _ in range(40)]
        refs += [np.array([1.0, -1.0, 0.0]), nodes[[0, 2, 4]], np.zeros(3)]
        moment = np.arange(9.0).reshape(3, 3) + np.arange(9.0).reshape(3, 3).T
        exyz = rng.standard_normal((5, 5, 5, 3))
        inv_jac = rng.standard_normal((3, 3))
        for ref in refs:
            basis, grads = shape_functions(5, ref, derivatives=True)
            want_basis, want_grads = oracle_shape_functions(5, ref)
            assert same_bits(basis, want_basis)
            assert same_bits(shape_functions(5, ref), want_basis)
            assert all(same_bits(g, w) for g, w in zip(grads, want_grads))
            assert same_bits(interpolation_weights_3d(5, *ref), want_basis)
            assert same_bits(
                point_force_source_array((1.0, -2.0, 3.0), 5, *ref),
                want_basis[..., None] * np.asarray((1.0, -2.0, 3.0)),
            )
            dphys = np.einsum("ijkl,ld->ijkd", np.stack(want_grads, axis=-1), inv_jac)
            assert same_bits(
                moment_tensor_source_array(moment, exyz, inv_jac, *ref),
                np.einsum("cd,ijkd->ijkc", moment, dphys),
            )


# ------------------------------------ shell directions and solver set-up
# The mesher's shell geometry evaluated the gnomonic direction (and the
# inflated cube's surface radius) at every broadcast GLL point; the solver
# set-up formed cofactors with np.cross, took a norm per GLL point pair
# and a sqrt per GLL point for the Courant bound, built a balanced KD-tree
# and filtered the fluid's external faces once per interface.  Those forms,
# as they were:


def oracle_shell_region_geometry(params, address, region):
    ngll = constants.NGLLX
    grid = SliceGrid(params.nproc_xi)
    nex_per = params.nex_per_slice
    xi_bounds, eta_bounds = grid.slice_coordinates_1d(address, nex_per)
    xi_gll = mesher._angular_gll_grid(xi_bounds, ngll)
    eta_gll = mesher._angular_gll_grid(eta_bounds, ngll)
    n_layers = mesher._region_layer_count(params, region)
    if params.uniform_radial_layers:
        breaks = radial.radial_breaks_km_uniform(region, n_layers)
    else:
        breaks = radial.radial_breaks_km(region, n_layers)
    ref_gll, _ = gll_points_and_weights(ngll)
    XI = xi_gll[None, None, :, :, None, None]
    ETA = eta_gll[None, :, None, None, :, None]
    XI, ETA = np.broadcast_arrays(
        XI, ETA, np.zeros((n_layers, nex_per, nex_per, ngll, ngll, ngll))
    )[:2]
    if region == RegionCode.INNER_CORE:
        rc = radial.central_cube_radius_km()
        r_surf = cube_surface_radius(XI, ETA, rc)
        fractions = np.linspace(0.0, 1.0, n_layers + 1)
        s_lo = fractions[:-1]
        s_hi = fractions[1:]
        s = 0.5 * ((s_hi - s_lo)[:, None] * ref_gll[None, :] + (s_hi + s_lo)[:, None])
        S = s[:, None, None, None, None, :]
        S = np.broadcast_arrays(S, XI)[0]
        R = (1.0 - S) * r_surf + S * constants.R_ICB_KM
    else:
        r_gll = mesher._angular_gll_grid(breaks, ngll)
        R = np.broadcast_arrays(r_gll[:, None, None, None, None, :], XI)[0]
    pts = chunk_points(address.chunk, XI, ETA, R)
    return pts.reshape(n_layers * nex_per * nex_per, ngll, ngll, ngll, 3)


def oracle_radial_breaks(bottom, top, n_layers):
    internal = [
        r for r in PREM.discontinuities_km() if bottom + 1e-9 < r < top - 1e-9
    ]
    if len(internal) > n_layers - 1:
        jumps = [
            abs(PREM.density(r, side="above") - PREM.density(r, side="below"))
            for r in internal
        ]
        order = np.argsort(jumps)[::-1][: n_layers - 1]
        internal = sorted(internal[i] for i in order)
    breaks = [bottom, *internal, top]
    while len(breaks) - 1 < n_layers:
        widths = np.diff(breaks)
        i = int(np.argmax(widths))
        breaks.insert(i + 1, 0.5 * (breaks[i] + breaks[i + 1]))
        breaks.sort()
    return np.asarray(breaks, dtype=np.float64)


def oracle_compute_geometry(xyz, basis):
    """(dxi_dx, jacobian, jweight) with the cofactor rows from np.cross."""
    jac = reference_derivatives(xyz, basis)
    dxi_dx = np.empty_like(jac)
    for l in range(3):
        dxi_dx[l] = np.cross(jac[(l + 1) % 3], jac[(l + 2) % 3], axis=0)
    det = np.einsum("cep,cep->ep", jac[0], dxi_dx[0])
    dxi_dx /= det
    det = det.reshape(xyz.shape[:-1])
    return dxi_dx, det, det * basis.wgll3[None, ...]


def oracle_min_gll_spacing(xyz):
    d_i = np.linalg.norm(np.diff(xyz, axis=1), axis=-1).min(axis=(1, 2, 3))
    d_j = np.linalg.norm(np.diff(xyz, axis=2), axis=-1).min(axis=(1, 2, 3))
    d_k = np.linalg.norm(np.diff(xyz, axis=3), axis=-1).min(axis=(1, 2, 3))
    return np.minimum(np.minimum(d_i, d_j), d_k)


def oracle_max_gll_spacing(xyz):
    d_i = np.linalg.norm(np.diff(xyz, axis=1), axis=-1).max(axis=(1, 2, 3))
    d_j = np.linalg.norm(np.diff(xyz, axis=2), axis=-1).max(axis=(1, 2, 3))
    d_k = np.linalg.norm(np.diff(xyz, axis=3), axis=-1).max(axis=(1, 2, 3))
    return np.maximum(np.maximum(d_i, d_j), d_k)


def oracle_stable_time_step_bound(meshes, length_scale):
    dt = np.inf
    for mesh in meshes:
        vp = np.sqrt((mesh.kappa + (4.0 / 3.0) * mesh.mu) / mesh.rho)
        dx = oracle_min_gll_spacing(mesh.xyz) * length_scale
        vp_max = vp.reshape(mesh.nspec, -1).max(axis=1)
        dt = min(dt, float(np.min(dx / vp_max)))
    return dt


def oracle_estimate_resolution(meshes, points_per_wavelength=5.0, length_scale=1.0):
    worst = 0.0
    for mesh in meshes:
        vs = np.sqrt(mesh.mu / mesh.rho)
        vp = np.sqrt((mesh.kappa + (4.0 / 3.0) * mesh.mu) / mesh.rho)
        v_lim = np.where(vs > 1.0, vs, vp).reshape(mesh.nspec, -1).min(axis=1)
        dx_max = oracle_max_gll_spacing(mesh.xyz) * length_scale
        worst = max(worst, float(np.max(points_per_wavelength * dx_max / v_lim)))
    return worst


def oracle_balanced_locator(xyz, ibool):
    """``PointLocator`` with scipy's default (balanced, compacted) tree."""
    locator = receivers.PointLocator(xyz, ibool)
    locator._tree = receivers.cKDTree(xyz.reshape(-1, 3)[locator._copy])
    return locator


def oracle_prepare_couplings(meshes, deformed):
    """``(solid_code, operator)`` per interface, the fluid's external faces
    filtered by radius once per interface."""
    fl = meshes[RegionCode.OUTER_CORE]
    fluid_ext = external_faces(fl.ibool)
    tol = surface_tolerance(deformed)
    couplings = []
    for radius_km, solid_code, orientation in INTERFACES:
        sol = meshes[solid_code]
        fluid_faces = faces_at_radius(
            fl.xyz, fluid_ext, radius_km,
            rel_tolerance=tol, radial_faces_only=deformed,
        )
        solid_faces = faces_at_radius(
            sol.xyz, external_faces(sol.ibool), radius_km,
            rel_tolerance=tol, radial_faces_only=deformed,
        )
        op = build_coupling_operator(
            fl.xyz, fl.ibool, fluid_faces, sol.xyz, sol.ibool, solid_faces,
            radius_km, W2, outward_from_fluid=orientation,
        )
        couplings.append(
            (solid_code, op.fluid_ids, op.solid_ids, op.normals,
             op.weights * LENGTH_SCALE**2)
        )
    return couplings


@pytest.fixture(scope="module")
def transversely_isotropic():
    return build_global_mesh(params_of(transverse_isotropy=True))


class TestShellDirections:
    @pytest.mark.parametrize("overrides", [
        dict(),
        dict(nex_xi=8, nproc_xi=2),
        dict(uniform_radial_layers=True),
        dict(ner_crust_mantle=3, ner_outer_core=2, ner_inner_core=2),
    ])
    def test_each_direction_once_equals_every_point(self, overrides):
        params = params_of(**overrides)
        grid = SliceGrid(params.nproc_xi)
        for rank in range(grid.nproc_total):
            address = grid.address_of(rank)
            for region in (0, 1, 2):
                assert same_bits(
                    mesher._shell_region_geometry(params, address, region),
                    oracle_shell_region_geometry(params, address, region),
                )

    def test_cached_radial_breaks_equal_the_per_discontinuity_loop(self):
        bounds = [radial.region_bounds_km(region) for region in (0, 1, 2)]
        bounds.append((constants.R_EARTH_KM - 600.0, constants.R_EARTH_KM))
        for bottom, top in bounds:
            for n_layers in range(1, 12):
                want = oracle_radial_breaks(bottom, top, n_layers)
                for _ in range(2):  # computed, then served from the cache
                    got = radial.radial_breaks_between_km(bottom, top, n_layers)
                    assert same_bits(got, want)
                got[0] = -1.0  # a caller's copy: the cache is not written
        assert same_bits(
            radial.radial_breaks_between_km(*bounds[-1], 11),
            oracle_radial_breaks(*bounds[-1], 11),
        )


class TestSolverSetUp:
    @pytest.mark.parametrize("which", ["merged", "deformed", "transversely_isotropic"])
    def test_prepared_arrays_and_dt_equal_the_replaced_forms(self, which, request):
        mesh = request.getfixturevalue(which)
        deformed = deformed_surfaces(mesh.params)
        prepared = PreparedMesh(mesh.regions, deformed)
        basis = GLLBasis(constants.NGLLX)
        for code, region in prepared.regions.items():
            source = mesh.regions[code]
            xyz_m = source.xyz * LENGTH_SCALE
            dxi_dx, jacobian, jweight = oracle_compute_geometry(xyz_m, basis)
            assert same_bits(region.geom.dxi_dx, dxi_dx)
            assert same_bits(region.geom.jacobian, jacobian)
            assert same_bits(region.geom.jweight, jweight)
            geom = ElementGeometry(dxi_dx, jacobian, jweight)
            if source.is_fluid:
                mass = assemble_scalar_mass_matrix(
                    1.0 / source.kappa, geom, source.ibool, source.nglob
                )
            else:
                mass = assemble_mass_matrix(source.rho, geom, source.ibool, source.nglob)
            assert same_bits(region.mass, mass)
            if source.ti_moduli is not None:
                assert same_bits(region.ti_frames, radial_frames(xyz_m))
        assert (which == "transversely_isotropic") == any(
            region.ti_frames is not None for region in prepared.regions.values()
        )
        want = oracle_prepare_couplings(mesh.regions, deformed)
        assert len(prepared.couplings) == len(want) == 2
        for (code, op), (want_code, *arrays) in zip(prepared.couplings, want):
            assert code == want_code
            got = (op.fluid_ids, op.solid_ids, op.normals, op.weights)
            assert all(same_bits(g, w) for g, w in zip(got, arrays))
        bound = oracle_stable_time_step_bound(
            list(mesh.regions.values()), LENGTH_SCALE
        )
        assert same_bits(prepared.dt_bound, bound)

    @pytest.mark.parametrize("which", ["merged", "deformed"])
    def test_spacing_diagnostics_equal_the_norm_forms(self, which, request):
        meshes = list(request.getfixturevalue(which).regions.values())
        for mesh in meshes:
            for reduce, oracle in (
                (np.minimum, oracle_min_gll_spacing),
                (np.maximum, oracle_max_gll_spacing),
            ):
                squared = quality._squared_gll_spacing_per_element(mesh.xyz, reduce)
                assert same_bits(np.sqrt(squared), oracle(mesh.xyz))
            assert element_size_range(mesh) == (
                float(oracle_min_gll_spacing(mesh.xyz).min()),
                float(oracle_max_gll_spacing(mesh.xyz).max()),
            )
        assert estimate_resolution(meshes, length_scale=1e3) == (
            oracle_estimate_resolution(meshes, length_scale=1e3)
        )
        assert estimate_time_step(meshes, length_scale=1e3) == (
            0.4 * oracle_stable_time_step_bound(meshes, 1e3)
        )

    @pytest.mark.parametrize(
        "region, count", [(RegionCode.CRUST_MANTLE, 140), (RegionCode.INNER_CORE, 60)]
    )
    def test_unbalanced_tree_locates_as_the_balanced_tree(self, merged, region, count):
        mesh = merged.regions[region]
        locator = receivers.PointLocator(mesh.xyz, mesh.ibool)
        oracle = oracle_balanced_locator(mesh.xyz, mesh.ibool)
        targets = locator_targets(merged, region, count, seed=region + 20)
        targets += [np.asarray(s.position) for s in STATIONS]
        for target in targets:
            station = Station("t", tuple(target))
            for mode in ("closest_point", "interpolated"):
                got = locator.locate(station, mode)
                want = oracle.locate(station, mode)
                assert got.global_index == want.global_index
                assert got.location_error == want.location_error
                assert got.element == want.element
                assert same_bits(got.weights, want.weights)


# ------------------------------------------- the guard noise cannot touch


def python_calls(fn) -> int:
    profile = cProfile.Profile()
    profile.enable()
    fn()
    profile.disable()
    return pstats.Stats(profile).total_calls


class TestSetupCallCount:
    """A per-element, per-face or per-point Python loop back in set-up
    multiplies its function calls (334 773 / 391 670 before the array
    forms, ~39 000 / ~35 000 with them) — deterministically, on any host."""

    BUDGET = 80_000

    def setup_method(self):
        self.params = params_of(nex_xi=8, attenuation=True)
        self.sources = EVENTS[0]
        self.stations = STATIONS

    def test_serial_cold_setup(self):
        def cold():
            mesh = build_global_mesh(self.params)
            GlobalSolver(
                mesh, self.params, sources=self.sources, stations=self.stations
            )

        assert python_calls(cold) <= self.BUDGET

    def test_prepare_world(self):
        def cold():
            prepare_world(
                self.params, sources=self.sources, stations=self.stations,
                overlap=True,
            )

        assert python_calls(cold) <= self.BUDGET
