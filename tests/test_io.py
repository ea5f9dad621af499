"""Tests for the I/O substrate: legacy databases, merged handoff, Par_file."""

import numpy as np
import pytest

from repro.config.parameters import SimulationParameters
from repro.cubed_sphere.topology import SliceAddress
from repro.io import (
    FILE_KINDS_PER_REGION,
    database_summary,
    fit_disk_model,
    format_par_file,
    merged_mesh_to_solver,
    parse_par_file,
    read_par_file,
    read_slice_database,
    write_par_file,
    write_slice_database,
)
from repro.io.meshfiles import rebuild_region_mesh
from repro.mesh import build_slice_mesh
from repro.model.prem import RegionCode


@pytest.fixture(scope="module")
def small_params():
    return SimulationParameters(
        nex_xi=4, nproc_xi=1, ner_crust_mantle=2, ner_outer_core=1,
        ner_inner_core=1,
    )


@pytest.fixture(scope="module")
def slice_mesh(small_params):
    return build_slice_mesh(small_params, SliceAddress(1, 0, 0))


class TestLegacyDatabases:
    def test_51_files_per_core(self, slice_mesh, tmp_path):
        usage = write_slice_database(slice_mesh, rank=0, directory=tmp_path)
        # The paper: "up to 51 files per core".
        assert len(FILE_KINDS_PER_REGION) == 17
        assert usage.files == 51
        assert usage.bytes > 0
        assert usage.wall_s > 0

    def test_roundtrip_preserves_mesh(self, slice_mesh, tmp_path):
        write_slice_database(slice_mesh, rank=3, directory=tmp_path)
        payloads, usage = read_slice_database(3, tmp_path)
        assert usage.files == 51
        for region, mesh in slice_mesh.regions.items():
            rebuilt = rebuild_region_mesh(region, payloads[region])
            assert rebuilt.nspec == mesh.nspec
            assert rebuilt.nglob == mesh.nglob
            np.testing.assert_array_equal(rebuilt.ibool, mesh.ibool)
            # float32 storage: values agree to single precision.
            np.testing.assert_allclose(rebuilt.xyz, mesh.xyz, rtol=1e-6)
            np.testing.assert_allclose(rebuilt.rho, mesh.rho, rtol=1e-6)

    def test_region_mismatch_rejected(self, slice_mesh, tmp_path):
        write_slice_database(slice_mesh, rank=0, directory=tmp_path)
        payloads, _ = read_slice_database(0, tmp_path)
        with pytest.raises(ValueError):
            rebuild_region_mesh(
                RegionCode.OUTER_CORE, payloads[RegionCode.CRUST_MANTLE]
            )

    def test_missing_rank_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_slice_database(42, tmp_path)

    def test_database_summary(self, slice_mesh, tmp_path):
        u1 = write_slice_database(slice_mesh, rank=0, directory=tmp_path)
        u2 = write_slice_database(slice_mesh, rank=1, directory=tmp_path)
        total = database_summary(tmp_path)
        assert total.files == u1.files + u2.files == 102
        assert total.bytes == u1.bytes + u2.bytes

    def test_disk_grows_with_resolution(self, tmp_path):
        sizes = {}
        for nex in (4, 8):
            params = SimulationParameters(
                nex_xi=nex, nproc_xi=1, ner_crust_mantle=2,
                ner_outer_core=1, ner_inner_core=1,
            )
            mesh = build_slice_mesh(params, SliceAddress(1, 0, 0))
            d = tmp_path / f"nex{nex}"
            sizes[nex] = write_slice_database(mesh, 0, d).bytes
        # Angular refinement x2 -> ~4x the data for shell slices.
        assert sizes[8] > 3.0 * sizes[4]


class TestMergedHandoff:
    def test_no_files_no_bytes(self, small_params):
        handoff = merged_mesh_to_solver(small_params)
        assert handoff.disk.files == 0
        assert handoff.disk.bytes == 0

    def test_mesh_is_solver_ready(self, small_params):
        handoff = merged_mesh_to_solver(small_params)
        for mesh in handoff.slice_mesh.regions.values():
            assert mesh.has_materials

    def test_memory_optimisation_lowers_high_water(self, small_params):
        naive = merged_mesh_to_solver(small_params, optimize_memory=False)
        tuned = merged_mesh_to_solver(small_params, optimize_memory=True)
        assert tuned.high_water_bytes < naive.high_water_bytes
        assert tuned.memory_overhead < naive.memory_overhead
        assert naive.memory_overhead > 0.1  # the paper's merge problem


class TestDiskModel:
    def test_power_law_recovery(self):
        nex = np.array([16, 32, 64, 128, 256])
        data = 3.0 * nex.astype(float) ** 2.5
        model = fit_disk_model(nex, data)
        assert model.exponent == pytest.approx(2.5, abs=1e-9)
        assert model.coefficient == pytest.approx(3.0, rel=1e-9)
        assert model.residual_log10 < 1e-12

    def test_figure5_extrapolation_ordering(self):
        # 1-second data must be ~2^p times the 2-second data.
        nex = np.array([96, 144, 288, 320])
        data = 1e6 * nex.astype(float) ** 2
        model = fit_disk_model(nex, data)
        b2 = model.predict_bytes_for_period(2.0)
        b1 = model.predict_bytes_for_period(1.0)
        assert b1 == pytest.approx(4.0 * b2, rel=0.01)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            fit_disk_model(np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            fit_disk_model(np.array([1.0, -2.0]), np.array([1.0, 2.0]))


class TestParFile:
    def test_roundtrip(self):
        params = SimulationParameters(
            nex_xi=32, nproc_xi=2, attenuation=True, health_check_every=5,
            record_length_s=123.5,
        )
        assert parse_par_file(format_par_file(params)) == params

    def test_file_roundtrip(self, tmp_path):
        params = SimulationParameters(nex_xi=16, oceans=True)
        path = tmp_path / "Par_file"
        write_par_file(params, path)
        assert read_par_file(path) == params

    def test_comments_ignored(self):
        text = format_par_file(SimulationParameters()) + "# trailing comment\n"
        assert parse_par_file(text) == SimulationParameters()

    def test_malformed_line(self):
        with pytest.raises(Exception):
            parse_par_file("NEX_XI 16\n")

    def test_none_roundtrip(self):
        params = SimulationParameters(nstep_override=None)
        assert parse_par_file(format_par_file(params)).nstep_override is None
