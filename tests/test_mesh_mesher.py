"""Tests for the globe mesher: geometry, gluing, materials, central cube."""

import numpy as np
import pytest

from repro.config import constants
from repro.config.parameters import SimulationParameters
from repro.cubed_sphere import SliceAddress
from repro.mesh import (
    assign_cube_columns,
    build_global_mesh,
    build_slice_mesh,
    central_cube_radius_km,
    cube_surface_radius,
    element_size_range,
    estimate_resolution,
    estimate_time_step,
    external_faces,
    faces_at_radius,
    load_balance_imbalance,
    map_cube_points,
    radial_breaks_km,
    region_bounds_km,
)
from repro.model.prem import RegionCode


@pytest.fixture(scope="module")
def small_params():
    return SimulationParameters(
        nex_xi=4, nproc_xi=1, ner_crust_mantle=3, ner_outer_core=2, ner_inner_core=1
    )


@pytest.fixture(scope="module")
def polar_slice(small_params):
    return build_slice_mesh(small_params, SliceAddress(0, 0, 0))


@pytest.fixture(scope="module")
def global_mesh(small_params):
    return build_global_mesh(small_params)


class TestRadialBreaks:
    def test_bounds(self):
        for region in (0, 1, 2):
            lo, hi = region_bounds_km(region)
            breaks = radial_breaks_km(region, 4)
            assert breaks[0] == pytest.approx(lo)
            assert breaks[-1] == pytest.approx(hi)
            assert len(breaks) == 5
            assert np.all(np.diff(breaks) > 0)

    def test_honours_670_discontinuity(self):
        breaks = radial_breaks_km(RegionCode.CRUST_MANTLE, 8)
        assert np.any(np.isclose(breaks, constants.R_670_KM))

    def test_few_layers_keep_biggest_jumps(self):
        breaks = radial_breaks_km(RegionCode.CRUST_MANTLE, 2)
        assert len(breaks) == 3

    def test_invalid(self):
        with pytest.raises(ValueError):
            radial_breaks_km(0, 0)
        with pytest.raises(ValueError):
            region_bounds_km(7)


class TestCentralCubeGeometry:
    def test_surface_radius_face_centre(self):
        rc = 600.0
        assert cube_surface_radius(0.0, 0.0, rc) == pytest.approx(rc)

    def test_surface_radius_corner_inflation(self):
        rc = 600.0
        corner = cube_surface_radius(np.pi / 4, np.pi / 4, rc, gamma=1.0)
        assert corner == pytest.approx(rc * np.sqrt(3.0))
        sphere = cube_surface_radius(np.pi / 4, np.pi / 4, rc, gamma=0.0)
        assert sphere == pytest.approx(rc)

    def test_map_centre(self):
        p = map_cube_points(np.array(0.0), np.array(0.0), np.array(0.0), 500.0)
        np.testing.assert_array_equal(p, np.zeros(3))

    def test_map_face_matches_surface_radius(self):
        rc = 611.0
        a = np.linspace(-1, 1, 5)
        pts = map_cube_points(a, 0.3, 1.0, rc)  # +c face
        r = np.linalg.norm(pts, axis=-1)
        expected = cube_surface_radius(a * np.pi / 4, 0.3 * np.pi / 4, rc)
        np.testing.assert_allclose(r, expected, rtol=1e-12)

    def test_map_continuous_across_edge(self):
        rc = 500.0
        # Same geometric ray approached from two faces: (1, 1, t)/...
        p1 = map_cube_points(np.array(1.0), np.array(0.4), np.array(1.0), rc)
        p2 = map_cube_points(np.array(1.0), np.array(0.4), np.array(1.0 - 1e-12), rc)
        np.testing.assert_allclose(p1, p2, atol=1e-8)

    def test_map_radial_linearity(self):
        rc = 500.0
        full = map_cube_points(np.array(0.6), np.array(0.2), np.array(1.0), rc)
        half = map_cube_points(np.array(0.3), np.array(0.1), np.array(0.5), rc)
        np.testing.assert_allclose(half, 0.5 * full, atol=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            map_cube_points(np.array(1.5), np.array(0.0), np.array(0.0), 500.0)
        with pytest.raises(ValueError):
            cube_surface_radius(0.0, 0.0, 500.0, gamma=2.0)


class TestCubeAssignment:
    def test_all_elements_assigned_once(self):
        nex = 4
        assignment = assign_cube_columns(nex, 2, split_in_two=True)
        seen = set()
        for cells in assignment.values():
            for cell in cells:
                assert cell not in seen
                seen.add(cell)
        assert len(seen) == nex**3

    def test_split_uses_two_polar_chunks(self):
        assignment = assign_cube_columns(4, 1, split_in_two=True)
        chunks = {key[0] for key in assignment}
        assert chunks == {0, 3}
        n0 = sum(len(v) for k, v in assignment.items() if k[0] == 0)
        n3 = sum(len(v) for k, v in assignment.items() if k[0] == 3)
        assert n0 == n3  # the cube is cut exactly in two

    def test_legacy_single_chunk(self):
        assignment = assign_cube_columns(4, 1, split_in_two=False)
        assert {key[0] for key in assignment} == {0}

    def test_split_halves_peak_load(self):
        nex, nproc = 8, 2
        for split, expected_chunks in ((False, 1), (True, 2)):
            assignment = assign_cube_columns(nex, nproc, split_in_two=split)
            counts = [len(v) for v in assignment.values()]
            if split:
                assert max(counts) == nex**3 // 2 // nproc**2
            else:
                assert max(counts) == nex**3 // nproc**2

    def test_invalid(self):
        with pytest.raises(ValueError):
            assign_cube_columns(5, 2)
        with pytest.raises(ValueError):
            assign_cube_columns(6, 4)


class TestSliceMesh:
    def test_region_element_counts(self, small_params, polar_slice):
        nex = small_params.nex_per_slice
        cm = polar_slice.regions[RegionCode.CRUST_MANTLE]
        oc = polar_slice.regions[RegionCode.OUTER_CORE]
        ic = polar_slice.regions[RegionCode.INNER_CORE]
        assert cm.nspec == 3 * nex * nex
        assert oc.nspec == 2 * nex * nex
        # Inner core shell + half the central cube (split, polar chunk 0).
        assert ic.nspec == 1 * nex * nex + small_params.nex_xi**3 // 2
        assert polar_slice.cube_elements == small_params.nex_xi**3 // 2

    def test_nonpolar_slice_has_no_cube(self, small_params):
        mesh = build_slice_mesh(small_params, SliceAddress(1, 0, 0))
        assert mesh.cube_elements == 0

    def test_radii_within_region_bounds(self, polar_slice):
        for region, rmesh in polar_slice.regions.items():
            r = rmesh.radii()
            lo, hi = region_bounds_km(region)
            if region == RegionCode.INNER_CORE:
                # Cube elements go to r = 0; shell bottom is inflated above rc.
                assert r.min() >= -1e-9
            else:
                assert r.min() >= lo - 1e-6
            assert r.max() <= hi * (1 + 1e-9) + 1e-6

    def test_materials_assigned(self, polar_slice):
        for rmesh in polar_slice.regions.values():
            assert rmesh.has_materials
            assert np.all(rmesh.rho > 900.0)
            assert np.all(rmesh.kappa > 0.0)

    def test_outer_core_is_fluid(self, polar_slice):
        oc = polar_slice.regions[RegionCode.OUTER_CORE]
        assert oc.is_fluid
        np.testing.assert_array_equal(oc.mu, 0.0)

    def test_solid_regions_have_shear(self, polar_slice):
        for region in (RegionCode.CRUST_MANTLE, RegionCode.INNER_CORE):
            assert np.all(polar_slice.regions[region].mu > 0.0)

    def test_cube_and_shell_glue(self, polar_slice, small_params):
        # The inner-core region (shell + cube) must form one connected set
        # of global points: fewer globals than 125 * nspec.
        ic = polar_slice.regions[RegionCode.INNER_CORE]
        assert ic.nglob < ic.nspec * 125


class TestGlobalMesh:
    def test_global_gluing_reduces_point_count(self, global_mesh):
        for rmesh in global_mesh.regions.values():
            assert rmesh.nglob < rmesh.nspec * 125

    def test_free_surface_point_count(self, global_mesh, small_params):
        # The free surface is a sphere tiled by 6*nex^2 quads of (n-1)^2
        # sub-cells: the closed-surface Euler count gives
        # npoints = ncells*(n-1)^2 + 2 (V = F*(n-1)^2 + 2 for a quad sphere).
        cm = global_mesh.regions[RegionCode.CRUST_MANTLE]
        faces = faces_at_radius(
            cm.xyz, external_faces(cm.ibool), constants.R_EARTH_KM
        )
        ncells = 6 * small_params.nex_xi**2
        assert len(faces) == ncells

    def test_cmb_faces_match_between_regions(self, global_mesh, small_params):
        cm = global_mesh.regions[RegionCode.CRUST_MANTLE]
        oc = global_mesh.regions[RegionCode.OUTER_CORE]
        cm_faces = faces_at_radius(
            cm.xyz, external_faces(cm.ibool), constants.R_CMB_KM
        )
        oc_faces = faces_at_radius(
            oc.xyz, external_faces(oc.ibool), constants.R_CMB_KM
        )
        assert len(cm_faces) == len(oc_faces) == 6 * small_params.nex_xi**2

    def test_owner_arrays_cover_all_elements(self, global_mesh):
        for region, rmesh in global_mesh.regions.items():
            owners = global_mesh.slice_of_element[region]
            assert owners.shape == (rmesh.nspec,)
            assert owners.min() >= 0
            assert owners.max() < 6

    def test_jacobian_positive_everywhere(self, global_mesh):
        # Proper element orientation: spectral Jacobian > 0 at all GLL pts.
        from repro.gll.lagrange import derivative_matrix

        h = derivative_matrix(5)
        for rmesh in global_mesh.regions.values():
            x = rmesh.xyz
            d_xi = np.einsum("il,eljkc->eijkc", h, x)
            d_eta = np.einsum("jl,eilkc->eijkc", h, x)
            d_gam = np.einsum("kl,eijlc->eijkc", h, x)
            jac = np.einsum(
                "eijkc,eijkc->eijk",
                d_xi,
                np.cross(d_eta, d_gam),
            )
            assert np.all(jac > 0), (
                f"region {rmesh.region}: {np.sum(jac <= 0)} non-positive "
                f"Jacobian points, min {jac.min():.3e}"
            )


class TestQuality:
    def test_time_step_positive_and_small(self, polar_slice):
        meshes = list(polar_slice.regions.values())
        dt = estimate_time_step(meshes, courant=0.4, length_scale=1000.0)
        assert 0.0 < dt < 100.0

    def test_resolution_scales_with_nex(self):
        # Refine both angular and radial directions 2x: the shortest
        # resolved period should halve (roughly - element shapes change).
        p4 = SimulationParameters(nex_xi=4, ner_crust_mantle=2)
        p8 = SimulationParameters(nex_xi=8, ner_crust_mantle=4)
        m4 = build_slice_mesh(p4, SliceAddress(1, 0, 0))
        m8 = build_slice_mesh(p8, SliceAddress(1, 0, 0))
        r4 = estimate_resolution(
            [m4.regions[RegionCode.CRUST_MANTLE]], length_scale=1000.0
        )
        r8 = estimate_resolution(
            [m8.regions[RegionCode.CRUST_MANTLE]], length_scale=1000.0
        )
        assert r8 < r4  # finer mesh resolves shorter periods
        assert r8 == pytest.approx(r4 / 2, rel=0.35)

    def test_element_size_range(self, polar_slice):
        lo, hi = element_size_range(polar_slice.regions[RegionCode.CRUST_MANTLE])
        assert 0 < lo < hi

    def test_load_balance_metric(self):
        assert load_balance_imbalance(np.array([10, 10, 10])) == 0.0
        assert load_balance_imbalance(np.array([10, 10, 20])) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            load_balance_imbalance(np.array([]))

    def test_materials_required(self, small_params):
        mesh = build_slice_mesh(small_params, SliceAddress(2, 0, 0))
        rmesh = mesh.regions[RegionCode.CRUST_MANTLE]
        rmesh.rho = None
        with pytest.raises(ValueError):
            estimate_time_step([rmesh])
