"""The parameter table: one declaration per Par_file key.

Guards store addressing, so it runs in CI's "Store integrity" step:

* a key's declared type is enforced, and equal parameter sets hash
  equally (``200`` and ``200.0`` are one record length);
* the retired keys still load from spills, Par_files and requests, and
  a request differing only in one is a warm hit;
* every declared key behaves as its class says: flipped from a base
  where it can matter, a *mesh* key changes the merged mesh and
  ``mesh_cache_key``, a *physics* key the seismograms or ``dt`` and
  ``physics_key`` but not the mesh, an *observe* key nothing computed
  and neither key.
"""

import hashlib
from dataclasses import fields

import numpy as np
import pytest

from repro.apps.merged_app import run_global_simulation
from repro.campaign import JobSpec, mesh_cache_key, params_hash, plan_batches
from repro.campaign.mesh_cache import load_mesh_spill, save_mesh_spill
from repro.chaos.integrity import read_record, write_record
from repro.config.parameters import (
    KEY_CLASSES,
    MESH,
    OBSERVE,
    PHYSICS,
    RETIRED_KEYS,
    SimulationParameters,
    par_keys,
)
from repro.io.parfile import format_par_file, parse_par_file
from repro.mesh.mesher import build_global_mesh
from repro.parallel import run_distributed_simulation
from repro.service import SimulationRequest, physics_key
from repro.solver import MomentTensorSource, Station, gaussian_stf

BASE = dict(
    nex_xi=4, nproc_xi=1, ner_crust_mantle=2, ner_outer_core=1,
    ner_inner_core=1, nstep_override=8,
)
SOURCE = {"position": [0.0, 0.0, 6000.0], "half_duration_s": 30.0}
# One station off the GLL grid (the locators differ there), one far.
STATIONS = (Station("NEAR", (300.0, 200.0, 6300.0)),
            Station("EQ", (6371.0, 0.0, 0.0)))


def request(params, **kw):
    return SimulationRequest(params=params, stations=STATIONS,
                             source=SOURCE, **kw)


# ------------------------------------------------------- types and hashes


def test_float_fields_store_floats_so_equal_sets_hash_equally():
    as_int = SimulationParameters(record_length_s=200, courant=1)
    as_float = SimulationParameters(record_length_s=200.0, courant=1.0)
    assert type(as_int.record_length_s) is float
    assert as_int == as_float
    assert params_hash(as_int) == params_hash(as_float)
    parsed = parse_par_file("RECORD_LENGTH_S = 200\nCOURANT = 1\n")
    assert params_hash(parsed) == params_hash(as_float)


def test_int_valued_floats_share_one_batch():
    jobs = [
        JobSpec(name=f"ev{i}", params=SimulationParameters(
                    **BASE, record_length_s=length),
                sources=[], stations=list(STATIONS))
        for i, length in enumerate((200, 200.0))
    ]
    assert [len(group) for group in plan_batches(jobs)] == [2]


@pytest.mark.parametrize("key, value", [
    ("ATTENUATION", "false"), ("NEX_XI", 4.0), ("NEX_XI", True),
    ("NSTEP_OVERRIDE", 8.0), ("COURANT", "0.4"), ("KERNEL_VARIANT", 1),
])
def test_a_wrongly_typed_key_is_rejected(key, value):
    with pytest.raises(ValueError, match=key):
        SimulationParameters.from_dict({key: value})


def test_par_file_values_convert_by_declared_type():
    params = parse_par_file(
        "NEX_XI = 8\nRECORD_LENGTH_S = 100\nATTENUATION = .true.\n"
        "KERNEL_VARIANT = blas\nHEALTH_CHECK_EVERY = none\n"
    )
    assert params == SimulationParameters(
        nex_xi=8, record_length_s=100.0, attenuation=True,
        kernel_variant="blas",
    )
    for line in ("NEX_XI = 8.0", "ATTENUATION = true", "SEED = none"):
        with pytest.raises(ValueError, match=line.split()[0]):
            parse_par_file(line)


# --------------------------------------------------------- retired keys


def test_retired_keys_are_dropped_and_leave_every_key_unmoved():
    params = SimulationParameters(**BASE)
    with_retired = SimulationParameters.from_dict(
        {**params.to_dict(), "USE_CUTHILL_MCKEE": False, "IO_MODE": "files",
         "USE_PADDING": False}
    )
    assert with_retired == params
    assert not set(RETIRED_KEYS) & set(params.to_dict())
    assert set(RETIRED_KEYS) <= set(params.key_payload(PHYSICS))
    # A request naming a retired key is the same request: a warm hit.
    spec = request(params).to_spec()
    spec["params"]["USE_CUTHILL_MCKEE"] = False
    assert physics_key(SimulationRequest.from_spec(spec)) == \
        physics_key(request(params))


def test_par_file_with_retired_keys_parses():
    params = SimulationParameters(**BASE)
    text = format_par_file(params) + (
        "USE_CUTHILL_MCKEE       = .true.\n"
        "IO_MODE                 = merged\n"
        "USE_PADDING             = .false.\n"
    )
    assert parse_par_file(text) == params


def test_mesh_spill_with_retired_keys_loads(tmp_path):
    params = SimulationParameters(**BASE)
    mesh = build_global_mesh(params)
    path = save_mesh_spill(mesh, tmp_path / "mesh.mesh")
    # Rewrite the record as a spill from before the keys' retirement.
    arrays, meta = read_record(path, b"MESHREC1")
    meta["params"].update(RETIRED_KEYS)
    write_record(path, b"MESHREC1", arrays, meta)
    loaded = load_mesh_spill(path)
    assert loaded.params == params
    assert mesh_cache_key(loaded.params) == mesh_cache_key(params)
    for code, region in mesh.regions.items():
        np.testing.assert_array_equal(loaded.regions[code].xyz, region.xyz)


# ----------------------------------------------------------- key classes

#: Par_file key -> (flipped value, base settings under which it matters).
#: OVERLAP_COMM only matters on more than one rank.
FLIPS = {
    "NEX_XI": (6, {}),
    "NPROC_XI": (2, {}),
    "NER_CRUST_MANTLE": (3, {}),
    "NER_OUTER_CORE": (2, {}),
    "NER_INNER_CORE": (2, {}),
    "ATTENUATION": (True, {}),
    "ROTATION": (True, {}),
    "GRAVITY": (True, {}),
    "OCEANS": (True, {}),
    "ELLIPTICITY": (True, {}),
    "TOPOGRAPHY": (True, {}),
    "TRANSVERSE_ISOTROPY": (True, {}),
    "USE_3D_MODEL": (True, {}),
    "UNIFORM_RADIAL_LAYERS": (True, {}),
    "KERNEL_VARIANT": ("baseline", {}),
    "SINGLE_PASS_MESHER": (False, {}),
    "STATION_LOCATION": ("interpolated", {}),
    "OVERLAP_COMM": (True, {"distributed": True}),
    # With attenuation on, the record length sets the absorption band.
    "RECORD_LENGTH_S": (100.0, {"attenuation": True}),
    "COURANT": (0.3, {}),
    "NSTEP_OVERRIDE": (9, {}),
    "HEALTH_CHECK_EVERY": (1, {}),
    "SEED": (7, {"use_3d_model": True}),
}

#: Physics keys whose every value computes the same bits.  Each still
#: forks ``physics_key``: moving it to the observe class would move every
#: stored digest.
SAME_BITS = {"KERNEL_VARIANT"}


def _mesh_digest(mesh) -> str:
    h = hashlib.sha256()
    for code in sorted(mesh.regions):
        region = mesh.regions[code]
        arrays = [region.xyz, region.ibool, region.rho, region.kappa,
                  region.mu, region.q_mu, mesh.slice_of_element[code]]
        if region.ti_moduli is not None:
            arrays += [getattr(region.ti_moduli, c) for c in "ACLNF"]
        for a in arrays:
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _outcome(params, distributed):
    """(mesh digest, seismograms, dt) of one short run."""
    mesh = build_global_mesh(params)
    source = MomentTensorSource(
        position=tuple(SOURCE["position"]), moment=1e20 * np.eye(3),
        stf=gaussian_stf(SOURCE["half_duration_s"]),
    )
    run = run_distributed_simulation if distributed else (
        lambda *a, **kw: run_global_simulation(*a, mesh=mesh, **kw))
    result = run(params, sources=[source], stations=list(STATIONS))
    return _mesh_digest(mesh), result.seismograms, result.dt


def test_every_key_is_declared_with_a_class_and_a_flip():
    classes = [f.metadata.get("key_class") for f in
               fields(SimulationParameters)]
    assert set(classes) <= set(KEY_CLASSES)
    assert set(FLIPS) == set(par_keys(*KEY_CLASSES))


def test_every_key_behaves_as_its_class_says():
    outcomes = {}

    def outcome(params, distributed):
        if (params, distributed) not in outcomes:
            outcomes[params, distributed] = _outcome(params, distributed)
        return outcomes[params, distributed]

    for key_class in KEY_CLASSES:
        for key in par_keys(key_class):
            value, setup = FLIPS[key]
            setup = dict(setup)
            distributed = setup.pop("distributed", False)
            base = SimulationParameters(**BASE, **setup)
            flipped = base.with_updates(**{key.lower(): value})
            mesh_a, seis_a, dt_a = outcome(base, distributed)
            mesh_b, seis_b, dt_b = outcome(flipped, distributed)
            same_mesh = mesh_a == mesh_b
            same_bits = dt_a == dt_b and np.array_equal(seis_a, seis_b)
            mesh_key_moved = mesh_cache_key(base) != mesh_cache_key(flipped)
            physics_moved = physics_key(request(base)) != \
                physics_key(request(flipped))
            if key_class == MESH:
                assert not same_mesh and mesh_key_moved, key
            elif key_class == PHYSICS:
                assert same_mesh and not mesh_key_moved, key
                assert physics_moved, key
                assert same_bits == (key in SAME_BITS), key
            else:
                assert key_class == OBSERVE
                assert same_mesh and same_bits, key
                assert not mesh_key_moved and not physics_moved, key
