"""Tests for global numbering, renumbering, and Cuthill-McKee sorting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gll import gll_points_and_weights
from repro.mesh.numbering import group_rows
from repro.mesh import (
    apply_global_permutation,
    average_global_stride,
    build_global_numbering,
    cuthill_mckee_order,
    element_adjacency,
    multilevel_cache_blocks,
    renumber_first_touch,
    reorder_elements,
)


def brick_mesh(nx: int, ny: int, nz: int, ngll: int = 5) -> np.ndarray:
    """Structured brick of unit-cube elements, GLL coords, (nspec,n,n,n,3)."""
    nodes, _ = gll_points_and_weights(ngll)
    t = 0.5 * (nodes + 1.0)  # [0, 1]
    elems = []
    for kz in range(nz):
        for ky in range(ny):
            for kx in range(nx):
                X = kx + t[:, None, None]
                Y = ky + t[None, :, None]
                Z = kz + t[None, None, :]
                X, Y, Z = np.broadcast_arrays(X, Y, Z)
                elems.append(np.stack([X, Y, Z], axis=-1))
    return np.asarray(elems)


class TestBuildGlobalNumbering:
    def test_single_element(self):
        xyz = brick_mesh(1, 1, 1)
        ibool, nglob = build_global_numbering(xyz)
        assert nglob == 125
        assert sorted(np.unique(ibool)) == list(range(125))

    def test_two_elements_share_face(self):
        xyz = brick_mesh(2, 1, 1)
        ibool, nglob = build_global_numbering(xyz)
        # 2 * 125 - 25 shared face points.
        assert nglob == 225
        # Shared face: i = last of elem 0 equals i = 0 of elem 1.
        np.testing.assert_array_equal(ibool[0, -1, :, :], ibool[1, 0, :, :])

    def test_counting_formula_3d(self):
        nx, ny, nz, n = 3, 2, 2, 5
        xyz = brick_mesh(nx, ny, nz, n)
        ibool, nglob = build_global_numbering(xyz)
        expected = (
            (nx * (n - 1) + 1) * (ny * (n - 1) + 1) * (nz * (n - 1) + 1)
        )
        assert nglob == expected

    def test_coordinates_consistent(self):
        xyz = brick_mesh(2, 2, 1)
        ibool, nglob = build_global_numbering(xyz)
        # Every global id must map to exactly one coordinate.
        flat_ids = ibool.ravel()
        flat_xyz = xyz.reshape(-1, 3)
        for g in range(0, nglob, 37):
            pts = flat_xyz[flat_ids == g]
            assert np.allclose(pts, pts[0], atol=1e-12)

    def test_first_encounter_order(self):
        xyz = brick_mesh(2, 1, 1)
        ibool, _ = build_global_numbering(xyz)
        # The very first local point gets global id 0, and ids appear in
        # non-decreasing first-touch order.
        flat = ibool.ravel()
        first_seen = {}
        for pos, g in enumerate(flat):
            first_seen.setdefault(int(g), pos)
        order = [first_seen[g] for g in sorted(first_seen)]
        assert order == sorted(order)

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            build_global_numbering(np.zeros((2, 5, 5, 5)))


def assert_groups_like_unique(keys):
    _, first, inverse = np.unique(
        keys, axis=0, return_index=True, return_inverse=True
    )
    got_first, got_inverse = group_rows(keys)
    np.testing.assert_array_equal(got_first, first)
    np.testing.assert_array_equal(got_inverse, inverse.ravel())


class TestGroupRows:
    """The row-grouping helper against its ``np.unique(axis=0)`` oracle."""

    @staticmethod
    def mesh_keys(xyz):
        return np.round(xyz.reshape(-1, 3) / 1e-5).astype(np.int64)

    def test_slice_and_merged_mesh_keys(self):
        from repro.config.parameters import SimulationParameters
        from repro.mesh import build_global_mesh, build_slice_mesh

        params = SimulationParameters(
            nex_xi=4, nproc_xi=1, ner_crust_mantle=2, ner_outer_core=1,
            ner_inner_core=1,
        )
        for bundle in (build_slice_mesh(params), build_global_mesh(params)):
            for region in bundle.regions.values():
                assert_groups_like_unique(self.mesh_keys(region.xyz))

    def test_random_rows_with_duplicates(self):
        rng = np.random.default_rng(0)
        for n, span in ((1, 3), (50, 2), (5000, 7), (5000, 10**12)):
            assert_groups_like_unique(rng.integers(-span, span, size=(n, 3)))

    def test_empty(self):
        first, inverse = group_rows(np.empty((0, 3), dtype=np.int64))
        assert first.size == 0 and inverse.size == 0


class TestRenumbering:
    def test_first_touch_is_identity_after_build(self):
        xyz = brick_mesh(2, 2, 1)
        ibool, nglob = build_global_numbering(xyz)
        new_ibool, perm = renumber_first_touch(ibool, nglob)
        np.testing.assert_array_equal(new_ibool, ibool)
        np.testing.assert_array_equal(perm, np.arange(nglob))

    def test_first_touch_after_shuffle(self):
        xyz = brick_mesh(2, 2, 2)
        ibool, nglob = build_global_numbering(xyz)
        rng = np.random.default_rng(0)
        shuffle = rng.permutation(nglob)
        shuffled = shuffle[ibool]
        new_ibool, _ = renumber_first_touch(shuffled, nglob)
        np.testing.assert_array_equal(new_ibool, ibool)

    def test_mismatched_nglob(self):
        xyz = brick_mesh(1, 1, 1)
        ibool, nglob = build_global_numbering(xyz)
        with pytest.raises(ValueError):
            renumber_first_touch(ibool, nglob + 5)

    def test_apply_permutation_roundtrip(self):
        xyz = brick_mesh(2, 1, 1)
        ibool, nglob = build_global_numbering(xyz)
        field = np.arange(nglob, dtype=np.float64)
        rng = np.random.default_rng(1)
        perm = rng.permutation(nglob)
        new_ibool, new_field = apply_global_permutation(ibool, perm, field)
        # Gathered element values must be unchanged.
        np.testing.assert_array_equal(new_field[new_ibool], field[ibool])

    def test_apply_permutation_shape_check(self):
        xyz = brick_mesh(1, 1, 1)
        ibool, nglob = build_global_numbering(xyz)
        with pytest.raises(ValueError):
            apply_global_permutation(ibool, np.arange(nglob), np.zeros(nglob + 1))


class TestElementAdjacency:
    def test_line_of_elements(self):
        xyz = brick_mesh(4, 1, 1)
        ibool, _ = build_global_numbering(xyz)
        adj = element_adjacency(ibool)
        assert list(adj[0]) == [1]
        assert list(adj[1]) == [0, 2]
        assert list(adj[3]) == [2]

    def test_corner_neighbours_included(self):
        # 2x2x1 block: diagonal elements share an edge -> adjacent.
        xyz = brick_mesh(2, 2, 1)
        ibool, _ = build_global_numbering(xyz)
        adj = element_adjacency(ibool)
        assert 3 in adj[0]  # diagonal neighbour via shared edge

    def test_symmetric(self):
        xyz = brick_mesh(3, 2, 1)
        ibool, _ = build_global_numbering(xyz)
        adj = element_adjacency(ibool)
        for e, nbrs in enumerate(adj):
            for x in nbrs:
                assert e in adj[x]


class TestCuthillMcKee:
    def test_permutation_valid(self):
        xyz = brick_mesh(3, 3, 1)
        ibool, _ = build_global_numbering(xyz)
        order = cuthill_mckee_order(element_adjacency(ibool))
        assert sorted(order) == list(range(9))

    def test_reduces_bandwidth_on_shuffled_line(self):
        # A shuffled 1-D chain has large index jumps between neighbours;
        # CM recovers a near-linear order.
        xyz = brick_mesh(12, 1, 1)
        ibool, _ = build_global_numbering(xyz)
        rng = np.random.default_rng(3)
        shuffle = rng.permutation(12)
        shuffled_ibool = ibool[shuffle]
        adj = element_adjacency(shuffled_ibool)

        def bandwidth(adjacency, positions):
            return max(
                abs(positions[e] - positions[int(x)])
                for e, nbrs in enumerate(adjacency)
                for x in nbrs
            )

        natural_pos = np.arange(12)
        order = cuthill_mckee_order(adj)
        cm_pos = np.empty(12, dtype=int)
        cm_pos[order] = np.arange(12)
        assert bandwidth(adj, cm_pos) <= bandwidth(adj, natural_pos)
        assert bandwidth(adj, cm_pos) == 1  # perfect for a chain

    def test_matches_networkx_bandwidth_quality(self):
        networkx = pytest.importorskip("networkx")
        xyz = brick_mesh(4, 3, 1)
        ibool, _ = build_global_numbering(xyz)
        adj = element_adjacency(ibool)
        g = networkx.Graph()
        g.add_nodes_from(range(len(adj)))
        for e, nbrs in enumerate(adj):
            g.add_edges_from((e, int(x)) for x in nbrs)
        nx_order = list(networkx.utils.reverse_cuthill_mckee_ordering(g))

        def bandwidth(order_list):
            pos = {e: i for i, e in enumerate(order_list)}
            return max(
                abs(pos[e] - pos[int(x)]) for e, nbrs in enumerate(adj) for x in nbrs
            )

        ours = bandwidth(list(cuthill_mckee_order(adj)))
        theirs = bandwidth(nx_order)
        assert ours <= theirs + 3  # same quality class

    def test_cache_blocks_partition(self):
        order = np.arange(130)
        blocks = multilevel_cache_blocks(order, block_elements=64)
        assert [len(b) for b in blocks] == [64, 64, 2]
        np.testing.assert_array_equal(np.concatenate(blocks), order)

    def test_cache_blocks_invalid(self):
        with pytest.raises(ValueError):
            multilevel_cache_blocks(np.arange(5), block_elements=0)

    def test_reorder_elements(self):
        xyz = brick_mesh(3, 1, 1)
        ibool, _ = build_global_numbering(xyz)
        order = np.array([2, 0, 1])
        (new_xyz, new_ibool) = reorder_elements(order, xyz, ibool)
        np.testing.assert_array_equal(new_xyz[0], xyz[2])
        np.testing.assert_array_equal(new_ibool[2], ibool[1])

    def test_reorder_shape_check(self):
        with pytest.raises(ValueError):
            reorder_elements(np.array([0, 1]), np.zeros((3, 5, 5, 5)))

    def test_stride_improves_after_cm_on_shuffled_mesh(self):
        xyz = brick_mesh(4, 4, 1)
        ibool, nglob = build_global_numbering(xyz)
        rng = np.random.default_rng(5)
        shuffle = rng.permutation(16)
        shuffled = ibool[shuffle]
        base_stride = average_global_stride(shuffled)
        adj = element_adjacency(shuffled)
        order = cuthill_mckee_order(adj)
        (sorted_ibool,) = reorder_elements(order, shuffled)
        renum, _ = renumber_first_touch(sorted_ibool, nglob)
        assert average_global_stride(renum) < base_stride


@settings(max_examples=20, deadline=None)
@given(
    nx=st.integers(min_value=1, max_value=3),
    ny=st.integers(min_value=1, max_value=3),
    nz=st.integers(min_value=1, max_value=2),
)
def test_property_numbering_matches_counting_formula(nx, ny, nz):
    xyz = brick_mesh(nx, ny, nz, ngll=4)
    _, nglob = build_global_numbering(xyz)
    n = 4
    assert nglob == (nx * (n - 1) + 1) * (ny * (n - 1) + 1) * (nz * (n - 1) + 1)
