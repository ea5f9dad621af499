"""The cold path in array form equals the loops it replaced, exactly.

Set-up (external faces, surface filters, coupling operators, halos, the
merged global mesh, ocean load, source location) finds integer indices and
surface factors with array passes over all elements, faces or points.  The
loop forms they replaced live on here, verbatim, as oracles: the array
forms must return the same values BIT FOR BIT (``np.array_equal``, never
``allclose``), fail on the same inputs, and stay free of per-element,
per-face and per-point Python loops — which the function-call guard at
the bottom checks on any machine, whatever its speed.
"""

import cProfile
import pstats

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import constants
from repro.config.parameters import SimulationParameters
from repro.cubed_sphere import SliceAddress, SliceGrid
from repro.gll.lagrange import GLLBasis, derivative_matrix
from repro.mesh import (
    build_global_mesh,
    build_global_numbering,
    build_slice_mesh,
    external_faces,
    faces_at_radius,
)
from repro.mesh import mesher
from repro.mesh.element import RegionMesh
from repro.mesh.interfaces import FACE_SLICES, face_area_weights, face_points
from repro.model.prem import RegionCode
from repro.parallel.halo import build_halos
from repro.parallel.launcher import prepare_world
from repro.solver import (
    GlobalSolver,
    MomentTensorSource,
    Station,
    build_coupling_operator,
    build_ocean_load,
    gaussian_stf,
)
from repro.solver import receivers

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
        stats = mesher.MesherStats()
        mesh = build_global_mesh(
            params_of(nex_xi=8, single_pass_mesher=single_pass), stats=stats
        )
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
    def test_batched_source_terms_equal_dedicated_solvers(self, merged):
        params = merged.params.with_updates(station_location="interpolated")
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
        # Five sources in two regions and two stations: two trees, not seven.
        assert sorted(built) == sorted(
            merged.regions[code].ibool.size
            for code in (RegionCode.CRUST_MANTLE, RegionCode.INNER_CORE)
        )


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
