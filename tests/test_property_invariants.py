"""Cross-module property-based tests (hypothesis) and failure injection.

These pin the structural invariants of the whole stack: quadrature
identities for arbitrary inputs, mesh-count formulas over the parameter
space, physical invariances of the kernels, round-trip laws of the I/O
layer, and monotonicity laws of the performance models.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import constants
from repro.config.parameters import ParameterError, SimulationParameters
from repro.cubed_sphere import SliceGrid, chunk_points
from repro.gll import GLLBasis, gll_points_and_weights
from repro.io.parfile import format_par_file, parse_par_file
from repro.kernels import compute_forces_elastic, compute_geometry
from repro.mesh import build_global_numbering
from repro.model import PREM, fit_constant_q
from repro.perf import slice_size_model


# ---------------------------------------------------------------------------
# GLL / kernel properties
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    degree=st.integers(min_value=2, max_value=9),
    k=st.integers(min_value=0, max_value=6),
)
def test_property_gll_monomial_exactness(degree, k):
    """Any rule integrates x^k exactly whenever k <= 2n-1."""
    ngll = degree + 1
    x, w = gll_points_and_weights(ngll)
    if k <= 2 * degree - 1:
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert np.dot(w, x**k) == pytest.approx(exact, abs=1e-12)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    scale=st.floats(min_value=0.1, max_value=10.0),
    shift=st.tuples(
        st.floats(min_value=-5, max_value=5),
        st.floats(min_value=-5, max_value=5),
        st.floats(min_value=-5, max_value=5),
    ),
)
def test_property_kernel_translation_invariance(scale, shift):
    """Internal forces are invariant under rigid translation of the mesh
    and scale like 1/h under uniform dilation (for fixed nodal values)."""
    from repro.gll import gll_points_and_weights as gpw

    nodes, _ = gpw(5)
    t = 0.5 * (nodes + 1.0)
    X, Y, Z = np.broadcast_arrays(
        t[:, None, None], t[None, :, None], t[None, None, :]
    )
    xyz = np.stack([X, Y, Z], axis=-1)[None, ...]
    basis = GLLBasis(5)
    rng = np.random.default_rng(0)
    u = rng.standard_normal((1, 5, 5, 5, 3))
    lam = np.ones((1, 5, 5, 5))
    mu = np.ones((1, 5, 5, 5))
    base = compute_forces_elastic(
        u, compute_geometry(xyz, basis), lam, mu, basis
    )
    moved = compute_forces_elastic(
        u, compute_geometry(xyz + np.asarray(shift), basis), lam, mu, basis
    )
    np.testing.assert_allclose(moved, base, atol=1e-10)
    scaled = compute_forces_elastic(
        u, compute_geometry(xyz * scale, basis), lam, mu, basis
    )
    # K u ~ integral grad w : grad u ~ h^3 * (1/h)^2 = h -> linear in scale.
    np.testing.assert_allclose(scaled, base * scale, rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# Cubed sphere / mesh properties
# ---------------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    chunk=st.integers(min_value=0, max_value=5),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_gnomonic_mapping_preserves_angles_between_radii(chunk, seed):
    """Points along one (xi, eta) ray differ only in radius (exact rays)."""
    rng = np.random.default_rng(seed)
    xi = float(rng.uniform(-0.78, 0.78))
    eta = float(rng.uniform(-0.78, 0.78))
    p1 = chunk_points(chunk, np.array([xi]), np.array([eta]), 1.0)[0]
    p2 = chunk_points(chunk, np.array([xi]), np.array([eta]), 2.5)[0]
    cross = np.cross(p1, p2)
    assert np.linalg.norm(cross) < 1e-12


@settings(max_examples=20, deadline=None)
@given(
    nx=st.integers(min_value=1, max_value=3),
    perm_seed=st.integers(min_value=0, max_value=1000),
)
def test_property_numbering_invariant_under_element_order(nx, perm_seed):
    """nglob does not depend on the order elements are presented in."""
    from repro.gll import gll_points_and_weights as gpw

    nodes, _ = gpw(4)
    t = 0.5 * (nodes + 1.0)
    elems = []
    for kx in range(nx + 1):
        X, Y, Z = np.broadcast_arrays(
            kx + t[:, None, None], t[None, :, None], t[None, None, :]
        )
        elems.append(np.stack([X, Y, Z], axis=-1))
    xyz = np.asarray(elems)
    _, n1 = build_global_numbering(xyz)
    rng = np.random.default_rng(perm_seed)
    _, n2 = build_global_numbering(xyz[rng.permutation(len(elems))])
    assert n1 == n2


@settings(max_examples=30, deadline=None)
@given(nproc=st.integers(min_value=1, max_value=30))
def test_property_slice_grid_covers_every_rank_once(nproc):
    grid = SliceGrid(nproc)
    seen = {grid.rank_of(a) for a in grid.all_addresses()}
    assert seen == set(range(grid.nproc_total))


# ---------------------------------------------------------------------------
# Model properties
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    r1=st.floats(min_value=0.0, max_value=6371.0),
    r2=st.floats(min_value=0.0, max_value=6371.0),
)
def test_property_enclosed_mass_monotone(r1, r2):
    lo, hi = sorted((r1, r2))
    assert PREM.enclosed_mass_kg(lo) <= PREM.enclosed_mass_kg(hi) + 1e-6


@settings(max_examples=20, deadline=None)
@given(
    q=st.floats(min_value=40.0, max_value=2000.0),
    n_sls=st.integers(min_value=2, max_value=5),
)
def test_property_sls_modulus_defect_bounded(q, n_sls):
    """The total anelastic coefficient stays below 1 (stable solid)."""
    fit = fit_constant_q(q, 0.01, 0.1, n_sls=n_sls)
    assert 0.0 <= fit.y.sum() < 1.0
    assert fit.one_minus_sum_beta > 0.0


# ---------------------------------------------------------------------------
# Parameter / Par_file properties
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    nex_base=st.integers(min_value=1, max_value=50),
    nproc=st.integers(min_value=1, max_value=12),
    atten=st.booleans(),
    rot=st.booleans(),
    check=st.one_of(st.none(), st.integers(min_value=1, max_value=100)),
)
def test_property_par_file_roundtrip(nex_base, nproc, atten, rot, check):
    params = SimulationParameters(
        nex_xi=nex_base * 2 * nproc,
        nproc_xi=nproc,
        attenuation=atten,
        rotation=rot,
        health_check_every=check,
    )
    assert parse_par_file(format_par_file(params)) == params


@settings(max_examples=40, deadline=None)
@given(
    nex=st.integers(min_value=2, max_value=4000),
    nproc=st.integers(min_value=1, max_value=64),
)
def test_property_parameters_reject_or_accept_consistently(nex, nproc):
    valid = nex % (2 * nproc) == 0
    if valid:
        p = SimulationParameters(nex_xi=nex, nproc_xi=nproc)
        assert p.nproc_total == 6 * nproc * nproc
    else:
        with pytest.raises(ParameterError):
            SimulationParameters(nex_xi=nex, nproc_xi=nproc)


# ---------------------------------------------------------------------------
# Performance model properties
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    nex=st.integers(min_value=32, max_value=4096),
    nproc=st.integers(min_value=1, max_value=64),
)
def test_property_size_model_consistency(nex, nproc):
    if nproc > nex:
        return
    size = slice_size_model(nex, nproc)
    # Memory positive; halo smaller than volume; totals consistent.
    assert size.memory_bytes_per_slice > 0
    assert size.halo_points_per_slice < 6 * size.points_per_slice
    assert size.total_elements >= size.shell_elements_per_slice


@settings(max_examples=20, deadline=None)
@given(nex=st.integers(min_value=100, max_value=5000))
def test_property_period_resolution_antitone(nex):
    """Finer meshes resolve shorter periods, always."""
    assert constants.shortest_period_for_nex(nex + 50) < (
        constants.shortest_period_for_nex(nex)
    )


# ---------------------------------------------------------------------------
# Failure injection
# ---------------------------------------------------------------------------


class TestFailureInjection:
    def test_corrupt_database_header_detected(self, tmp_path):
        from repro.cubed_sphere.topology import SliceAddress
        from repro.io import read_slice_database, write_slice_database
        from repro.mesh import build_slice_mesh

        params = SimulationParameters(
            nex_xi=4, ner_crust_mantle=2, ner_outer_core=1, ner_inner_core=1
        )
        mesh = build_slice_mesh(params, SliceAddress(1, 0, 0))
        write_slice_database(mesh, 0, tmp_path)
        victim = sorted(tmp_path.glob("proc000000_reg0_*.bin"))[0]
        victim.write_bytes(b"garbage that is not a database header")
        with pytest.raises(Exception):
            read_slice_database(0, tmp_path)

    def test_nan_material_rejected_by_mass_assembly(self):
        from repro.cartesian import build_box_mesh
        from repro.solver.assembly import assemble_mass_matrix

        mesh = build_box_mesh((1, 1, 1))
        geom = compute_geometry(mesh.xyz)
        rho = np.full(mesh.ibool.shape, 1.0)
        rho[0, 2, 2, 2] = -5.0  # unphysical
        with pytest.raises(ValueError):
            assemble_mass_matrix(rho, geom, mesh.ibool, mesh.nglob)

    def test_degenerate_element_rejected(self):
        from repro.cartesian import build_box_mesh

        mesh = build_box_mesh((1, 1, 1))
        xyz = mesh.xyz.copy()
        xyz[0, :, :, :, 2] = 0.5  # flatten the element to zero volume
        with pytest.raises(ValueError):
            compute_geometry(xyz)

    def test_receiver_buffer_protects_against_double_fill(self):
        from repro.cartesian import build_box_mesh
        from repro.solver import ReceiverSet, Station, locate_receivers

        mesh = build_box_mesh((1, 1, 1))
        rs = ReceiverSet(
            locate_receivers([Station("X", (0.5, 0.5, 0.5))],
                             mesh.xyz, mesh.ibool),
            2, 0.1,
        )
        displ = np.zeros((mesh.nglob, 3))
        rs.record(displ, mesh.ibool)
        rs.record(displ, mesh.ibool)
        with pytest.raises(RuntimeError):
            rs.record(displ, mesh.ibool)

    def test_cluster_recv_timeout(self):
        from repro.parallel import VirtualCluster

        def program(comm):
            if comm.rank == 1:
                return comm.recv(0, timeout=0.2)  # nothing ever sent
            return None

        with pytest.raises(TimeoutError):
            VirtualCluster(2).run(program)
