"""Tests for the simulation-as-a-service front-end (repro.service).

Covers the canonical key derivation (order-insensitive stations,
execution options and bit-identical engineering switches excluded), the
content-addressed seismogram store (atomic puts, CRC verification
exhaustive over every bit flip and truncation, quarantine-and-recompute,
torn-manifest tolerance, older NPZ-payload records), the request path
(miss -> compute, hit, superset slicing with the exactness flag,
single-flight coalescing of concurrent identical requests), the HTTP
layer, and the service chaos drill — a backend fault retried without
the client ever seeing an error.  The end-to-end acceptance proof runs
the real solver once, then asserts a warm store answers bit-identically
with the solver provably never called again.
"""

import asyncio
import hashlib
import json
import shutil
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.chaos import flip_bit, run_service_drill
from repro.chaos.integrity import CacheCorruptionError, array_checksums
from repro.config.parameters import ParameterError, SimulationParameters
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import render_service_report
from repro.service import (
    SeismogramStore,
    ServiceHTTPServer,
    SimulationRequest,
    SimulationService,
    canonical_stations,
    derive_keys,
    http_json,
    physics_key,
    request_key,
)
from repro.solver import Station


def tiny_params(**kw):
    defaults = dict(
        nex_xi=4, nproc_xi=1, ner_crust_mantle=2, ner_outer_core=1,
        ner_inner_core=1, nstep_override=8,
    )
    defaults.update(kw)
    return SimulationParameters(**defaults)


STATIONS = (
    Station("POLE", (0.0, 0.0, 6371.0)),
    Station("EQ", (6371.0, 0.0, 0.0)),
    Station("MID", (0.0, 6371.0, 0.0)),
)

SOURCE = {"position": [0.0, 0.0, 6171.0]}


def make_request(stations=STATIONS, n_steps=8, **kw):
    return SimulationRequest(
        params=tiny_params(),
        stations=tuple(stations),
        source=SOURCE,
        n_steps=n_steps,
        **kw,
    )


class FakeBackend:
    """Deterministic stand-in for the campaign solve, counting calls."""

    def __init__(self, delay_s=0.0):
        self.calls = 0
        self.delay_s = delay_s
        self._lock = threading.Lock()

    def __call__(self, request, keys):
        with self._lock:
            self.calls += 1
        if self.delay_s:
            time.sleep(self.delay_s)
        rng = np.random.default_rng(int(keys.physics, 16) % 2**32)
        n_steps = request.n_steps or 8
        full = rng.standard_normal((len(keys.stations), n_steps, 3))
        return full, 0.25


def make_service(tmp_path, backend=None, **kw):
    backend = backend or FakeBackend()
    service = SimulationService(
        store=str(tmp_path / "store"),
        compute=backend,
        metrics=MetricsRegistry(),
        **kw,
    )
    return service, backend


# --------------------------------------------------------------------- keys


def test_request_key_is_station_order_insensitive():
    forward = make_request(STATIONS)
    permuted = make_request(STATIONS[::-1])
    assert request_key(forward) == request_key(permuted)
    assert physics_key(forward) == physics_key(permuted)
    assert canonical_stations(forward.stations) == canonical_stations(
        permuted.stations
    )


def test_physics_key_ignores_stations_but_request_key_does_not():
    base = make_request(STATIONS)
    fewer = make_request(STATIONS[:2])
    assert physics_key(base) == physics_key(fewer)
    assert request_key(base) != request_key(fewer)


def test_excluded_engineering_switches_do_not_fork_the_key():
    base = make_request()
    flipped = SimulationRequest(
        params=tiny_params(overlap_comm=True, health_check_every=1),
        stations=STATIONS,
        source=SOURCE,
        n_steps=8,
    )
    assert request_key(base) == request_key(flipped)


def test_job_options_do_not_fork_the_key():
    base = make_request()
    drilled = make_request(job_options={"inject_failures": 2,
                                        "max_attempts": 5})
    assert request_key(base) == request_key(drilled)


def test_physics_changes_fork_the_key():
    base = make_request()
    assert request_key(base) != request_key(make_request(n_steps=9))
    other_source = SimulationRequest(
        params=tiny_params(), stations=STATIONS, n_steps=8,
        source={"position": [0.0, 0.0, 6000.0]},
    )
    assert request_key(base) != request_key(other_source)


def test_request_validation():
    with pytest.raises(ParameterError):
        SimulationRequest(params=tiny_params(), stations=())
    with pytest.raises(ParameterError):
        SimulationRequest(
            params=tiny_params(),
            stations=(STATIONS[0], Station("POLE", (1.0, 0.0, 0.0))),
        )
    with pytest.raises(ParameterError):
        make_request(stations=STATIONS)  # fine
        SimulationRequest(
            params=tiny_params(), stations=STATIONS,
            source={"position": [0.0, 0.0]},
        )


def test_spec_round_trip():
    request = make_request(job_options={"timeout_s": 5.0})
    again = SimulationRequest.from_spec(request.to_spec())
    assert request_key(again) == request_key(request)
    assert again.job_options == request.job_options


# ------------------------------------------------------------ request path


def test_miss_then_hit_bit_identical(tmp_path):
    service, backend = make_service(tmp_path)
    request = make_request()
    try:
        first = asyncio.run(service.handle(request))
        second = asyncio.run(service.handle(request))
    finally:
        service.close()
    assert first.status == "computed"
    assert second.status == "hit"
    assert first.exact and second.exact
    assert backend.calls == 1
    assert np.array_equal(first.seismograms, second.seismograms)
    assert service.counts["hits"] == 1
    assert service.counts["misses"] == 1


def test_permuted_station_list_hits_same_cache_entry(tmp_path):
    service, backend = make_service(tmp_path)
    try:
        first = asyncio.run(service.handle(make_request(STATIONS)))
        permuted = asyncio.run(service.handle(make_request(STATIONS[::-1])))
    finally:
        service.close()
    assert permuted.status == "hit"
    assert backend.calls == 1
    assert permuted.key == first.key
    # Rows come back in each client's own order.
    assert permuted.stations == tuple(s.name for s in STATIONS[::-1])
    for name in permuted.stations:
        assert np.array_equal(
            permuted.seismogram(name), first.seismogram(name)
        )


def test_single_flight_coalesces_concurrent_identical_requests(tmp_path):
    service, backend = make_service(tmp_path, FakeBackend(delay_s=0.2))
    request = make_request()

    async def burst():
        return await asyncio.gather(
            *(service.handle(request) for _ in range(5))
        )

    try:
        responses = asyncio.run(burst())
    finally:
        service.close()
    statuses = sorted(r.status for r in responses)
    assert backend.calls == 1  # the single-flight proof
    assert statuses == ["coalesced"] * 4 + ["computed"]
    assert service.counts["coalesced"] == 4
    reference = responses[0].seismograms
    for r in responses[1:]:
        assert np.array_equal(r.seismograms, reference)


def test_superset_slicing_is_exact_and_credited(tmp_path):
    service, backend = make_service(tmp_path)
    try:
        full = asyncio.run(service.handle(make_request(STATIONS)))
        subset = asyncio.run(service.handle(make_request(STATIONS[:2])))
    finally:
        service.close()
    assert subset.status == "sliced"
    assert subset.exact is True
    assert subset.source_key == full.key  # provenance marks the source run
    assert subset.key != full.key
    assert backend.calls == 1
    for name in subset.stations:
        assert np.array_equal(subset.seismogram(name), full.seismogram(name))


def test_bracketed_station_interpolates_with_exact_false(tmp_path):
    service, backend = make_service(tmp_path)
    midpoint = Station("BETWEEN", (0.0, 6371.0 / 2, 6371.0 / 2))
    try:
        full = asyncio.run(service.handle(make_request(STATIONS)))
        interp = asyncio.run(
            service.handle(make_request((midpoint,)))
        )
    finally:
        service.close()
    assert interp.status == "sliced"
    assert interp.exact is False  # provenance: interpolated, not solver-grade
    assert interp.source_key == full.key
    assert backend.calls == 1
    expected = 0.5 * (
        full.seismogram("POLE") + full.seismogram("MID")
    )
    assert np.allclose(interp.seismograms[0], expected)


def test_corruption_is_quarantined_and_recomputed(tmp_path):
    service, backend = make_service(tmp_path)
    request = make_request()
    try:
        first = asyncio.run(service.handle(request))
        run = service.store.find_exact(first.key)
        size = run.path.stat().st_size
        flip_bit(run.path, bit=8 * (size // 2))
        second = asyncio.run(service.handle(request))
        third = asyncio.run(service.handle(request))
    finally:
        service.close()
    assert second.status == "computed"  # corrupt payload never served
    assert backend.calls == 2
    assert service.counts["corruptions"] == 1
    assert np.array_equal(first.seismograms, second.seismograms)
    quarantined = list(run.path.parent.glob("*.quarantined"))
    assert quarantined, "corrupt payload was not quarantined"
    assert third.status == "hit"  # the recomputed bundle is healthy


def test_stats_and_report(tmp_path):
    service, _backend = make_service(tmp_path)
    request = make_request()
    try:
        asyncio.run(service.handle(request))
        asyncio.run(service.handle(request))
    finally:
        service.close()
    stats = service.stats()
    assert stats["requests"] == 2
    assert stats["hit_rate"] == 0.5
    assert stats["latency_p99_s"] >= stats["latency_p50_s"] >= 0.0
    assert stats["store"]["runs"] == 1
    rendered = render_service_report(stats)
    assert "hit rate" in rendered and "latency p99" in rendered


# -------------------------------------------------------------------- store


def test_key_digests_are_pinned():
    # Every stored run is addressed by these digests: a change in how a
    # request is canonicalized would orphan the whole store silently.
    b = SimulationRequest.from_spec({
        "params": {"NEX_XI": 8, "NER_CRUST_MANTLE": 2, "NER_OUTER_CORE": 1,
                   "NER_INNER_CORE": 1, "ATTENUATION": True},
        "source": {"position": [100.0, -50, 6000], "moment_scale": 3e19,
                   "half_duration_s": 5},
        "stations": [{"name": "B", "position": [1, 2, 3]},
                     {"name": "A", "position": [6371, 0, 0]}],
    })
    pinned = {
        "a": ("b7fbaab217ee9fff", "3a27b126b7759e46"),
        "b": ("196f61502221148d", "0a26fe8ddfe6b19b"),
    }
    for name, request in (("a", make_request()), ("b", b)):
        keys = derive_keys(request)
        assert (keys.key, keys.physics) == pinned[name]
        assert (request_key(request), physics_key(request)) == pinned[name]


def test_every_bit_flip_truncation_and_stray_byte_is_quarantined(tmp_path):
    service, _backend = make_service(tmp_path)
    try:
        response = asyncio.run(service.handle(make_request()))
    finally:
        service.close()
    store = service.store
    run = store.find_exact(response.key)
    pristine = run.path.read_bytes()
    quarantined = run.path.with_name(run.path.name + ".quarantined")

    def corrupt_variants():
        flipped = bytearray(pristine)
        for bit in range(8 * len(pristine)):
            flipped[bit // 8] ^= 1 << (bit % 8)
            yield bytes(flipped)
            flipped[bit // 8] ^= 1 << (bit % 8)
        for size in range(len(pristine)):
            yield pristine[:size]
        yield pristine + b"\0"

    cases = 0
    for variant in corrupt_variants():
        run.path.write_bytes(variant)
        with pytest.raises(CacheCorruptionError):
            store.load(run)
        assert not run.path.exists() and quarantined.exists()
        cases += 1
    assert cases == 9 * len(pristine) + 1
    assert store.corruptions == cases
    run.path.write_bytes(pristine)
    canonical = np.stack([response.seismogram(s.name) for s in run.stations])
    assert np.array_equal(store.load(run), canonical)


#: sha256 of the record written by ``_pinned_put`` — the SEISREC1 bytes.
PINNED_RECORD_SHA256 = (
    "38fe1cc7a319875b58df2c82af72e7697ef9f3a4a1c5501945b89c29a32ef88c"
)
#: A store directory holding that one run, written by the release whose
#: record codec was private to the service store.
SEISREC1_STORE = Path(__file__).parent / "data" / "seisrec1_store"


def _pinned_put(store):
    stations = (
        Station("A", (6371.0, 0.0, 0.0)), Station("B", (0.0, 0.0, 6371.0)),
    )
    data = 0.5 * np.arange(24, dtype=np.float64).reshape(2, 4, 3)
    return store.put(
        "0123456789abcdef", "fedcba9876543210", stations, data, 0.25,
        params_hash="5eed",
    )


def test_record_bytes_are_pinned(tmp_path):
    # Every stored run on disk is in this format: a codec change that
    # moved one byte would orphan every existing store.
    run = _pinned_put(SeismogramStore(tmp_path))
    for path in (run.path, SEISREC1_STORE / "runs" / run.path.name):
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            PINNED_RECORD_SHA256


def test_existing_seisrec1_store_scans_and_loads(tmp_path):
    shutil.copytree(SEISREC1_STORE, tmp_path / "store")
    store = SeismogramStore(tmp_path / "store")
    run = store.find_exact("0123456789abcdef")
    assert len(store) == 1 and run is not None
    assert run.station_names == ("A", "B")
    np.testing.assert_array_equal(
        store.load(run), 0.5 * np.arange(24.0).reshape(2, 4, 3)
    )
    assert store.stats()["corruptions"] == 0


def test_older_npz_payload_records_are_not_indexed(tmp_path):
    # A store written by the NPZ-payload release: its records are left
    # alone (not quarantined, not counted corrupt) and their requests
    # recompute into the current format.
    request = make_request()
    keys = derive_keys(request)
    store_dir = tmp_path / "store"
    (store_dir / "runs").mkdir(parents=True)
    old_payload = store_dir / "runs" / f"run-{keys.key}.npz"
    data = np.zeros((len(keys.stations), 8, 3))
    arrays = {
        "data": data,
        "dt": np.asarray(0.25),
        "station_names": np.asarray([s.name for s in keys.stations]),
        "station_positions": np.asarray([s.position for s in keys.stations]),
        "meta_json": np.asarray(json.dumps({"key": keys.key})),
    }
    arrays["integrity_json"] = np.asarray(
        json.dumps(array_checksums(arrays), sort_keys=True)
    )
    np.savez_compressed(old_payload, **arrays)
    record = {
        "record_type": "seismogram_run", "key": keys.key,
        "physics_key": keys.physics, "params_hash": "",
        "stations": [[s.name, *s.position] for s in keys.stations],
        "n_steps": 8, "dt": 0.25, "file": old_payload.name,
    }
    (store_dir / "manifest.jsonl").write_text(json.dumps(record) + "\n")

    assert len(SeismogramStore(store_dir)) == 0
    service, backend = make_service(tmp_path)
    try:
        first = asyncio.run(service.handle(request))
        second = asyncio.run(service.handle(request))
    finally:
        service.close()
    assert (first.status, second.status) == ("computed", "hit")
    assert backend.calls == 1
    assert service.counts["corruptions"] == 0
    assert service.store.corruptions == 0
    assert old_payload.exists()
    assert service.store.find_exact(keys.key).path.suffix == ".seis"
    assert len(SeismogramStore(store_dir)) == 1


def test_store_scan_survives_torn_manifest_line(tmp_path):
    # A shorter record is another wavefield: the second request persists
    # its own run.
    service, _backend = make_service(tmp_path)
    try:
        asyncio.run(service.handle(make_request(STATIONS)))
        asyncio.run(service.handle(make_request(STATIONS[:1], n_steps=4)))
    finally:
        service.close()
    manifest = service.store.manifest_path
    with open(manifest, "a", encoding="utf-8") as fh:
        fh.write('{"record_type": "seismogram_run", "key": "torn')
    reopened = SeismogramStore(service.store.directory)
    assert len(reopened) == 2
    assert reopened.manifest_bad_lines == 1
    assert reopened.stats()["manifest_bad_lines"] == 1


def test_store_scan_skips_vanished_payloads(tmp_path):
    service, _backend = make_service(tmp_path)
    try:
        first = asyncio.run(service.handle(make_request(STATIONS)))
        asyncio.run(service.handle(make_request(STATIONS[:1], n_steps=4)))
    finally:
        service.close()
    service.store.find_exact(first.key).path.unlink()
    reopened = SeismogramStore(service.store.directory)
    assert len(reopened) == 1
    assert reopened.find_exact(first.key) is None


# ------------------------------------------------------------------- E2E


def test_e2e_warm_store_answers_bit_identically_without_solver(tmp_path):
    """The acceptance proof: real solve once, then the solver is off."""
    store_dir = str(tmp_path / "store")
    request = make_request(STATIONS[:2])
    cold_service = SimulationService(store=store_dir, n_backend_workers=1)
    try:
        cold = asyncio.run(cold_service.handle(request))
    finally:
        cold_service.close()
    assert cold.status == "computed"

    solver_calls = {"n": 0}

    def forbidden_compute(req, keys):
        solver_calls["n"] += 1
        raise AssertionError("solver must not run against a warm store")

    warm_service = SimulationService(
        store=store_dir, compute=forbidden_compute
    )
    try:
        warm = asyncio.run(warm_service.handle(request))
        permuted = asyncio.run(
            warm_service.handle(make_request(tuple(STATIONS[:2])[::-1]))
        )
        subset = asyncio.run(warm_service.handle(make_request(STATIONS[:1])))
    finally:
        warm_service.close()
    assert solver_calls["n"] == 0  # solver call count: zero
    assert warm.status == "hit"
    assert np.array_equal(warm.seismograms, cold.seismograms)
    assert permuted.status == "hit"
    assert subset.status == "sliced" and subset.exact
    assert subset.source_key == warm.key
    assert np.array_equal(
        subset.seismogram("POLE"), cold.seismogram("POLE")
    )


def test_service_drill_absorbs_backend_fault_and_corruption():
    """Chaos drill: injected backend fault + corrupt cache payload are
    both invisible to the client and the answers stay bit-identical."""
    report = run_service_drill(
        tiny_params(), source=SOURCE, stations=[STATIONS[0]]
    )
    assert report.passed, report.to_dict()
    assert report.bit_identical
    assert report.faults_fired == 2
    assert report.errors == []
    assert report.detail["statuses"] == ["computed", "computed"]
    assert report.detail["corruptions"] == 1


# -------------------------------------------------------------------- HTTP


def test_http_round_trip(tmp_path):
    service, backend = make_service(tmp_path)
    spec = {
        "params": tiny_params().to_dict(),
        "source": SOURCE,
        "stations": [
            {"name": s.name, "position": list(s.position)}
            for s in STATIONS[:2]
        ],
        "n_steps": 8,
    }

    async def scenario():
        server = ServiceHTTPServer(service, port=0)
        await server.start()
        loop = asyncio.get_running_loop()

        def client():
            host, port = server.host, server.port
            results = {}
            results["health"] = http_json(host, port, "GET", "/healthz")
            results["first"] = http_json(
                host, port, "POST", "/simulate", dict(spec)
            )
            results["second"] = http_json(
                host, port, "POST", "/simulate",
                {**spec, "include_data": False},
            )
            results["warm"] = http_json(
                host, port, "POST", "/warm", {"requests": [dict(spec)]}
            )
            results["stats"] = http_json(host, port, "GET", "/stats")
            results["bad"] = http_json(
                host, port, "POST", "/simulate", {"stations": []}
            )
            results["lost"] = http_json(host, port, "GET", "/nowhere")
            return results

        try:
            return await loop.run_in_executor(None, client)
        finally:
            await server.stop()

    try:
        results = asyncio.run(scenario())
    finally:
        service.close()
    status, first = results["first"]
    assert status == 200 and first["status"] == "computed"
    assert len(first["seismograms"]) == 2
    status, second = results["second"]
    assert status == 200 and second["status"] == "hit"
    assert "seismograms" not in second
    assert second["key"] == first["key"]
    status, warm = results["warm"]
    assert status == 200 and warm["warmed"][0]["status"] == "hit"
    status, stats = results["stats"]
    assert status == 200 and stats["requests"] == 3
    assert results["bad"][0] == 400
    assert "error" in results["bad"][1]
    assert results["lost"][0] == 404
    assert results["health"] == (200, {"ok": True})
    assert backend.calls == 1


def test_a_retired_kernel_variant_request_is_a_warm_hit(tmp_path):
    # Every kernel variant computed the same bits, so naming one is the
    # default request.
    service, backend = make_service(tmp_path)
    spec = make_request().to_spec()
    spec["params"]["KERNEL_VARIANT"] = "blas"
    try:
        first = asyncio.run(service.handle(make_request()))
        named = asyncio.run(service.handle(SimulationRequest.from_spec(spec)))
    finally:
        service.close()
    assert (first.status, named.status) == ("computed", "hit")
    assert backend.calls == 1
    assert np.array_equal(first.seismograms, named.seismograms)


def test_a_retired_station_location_request_is_a_400(tmp_path):
    # Interpolated stations recorded other seismograms: answering with the
    # closest-point ones would be wrong, so the request is refused.
    service, backend = make_service(tmp_path)
    spec = make_request().to_spec()
    spec["params"]["STATION_LOCATION"] = "interpolated"

    async def scenario():
        server = await ServiceHTTPServer(service, port=0).start()
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(
                None, http_json, server.host, server.port, "POST",
                "/simulate", spec,
            )
        finally:
            await server.stop()

    try:
        status, body = asyncio.run(scenario())
    finally:
        service.close()
    assert status == 400
    assert "STATION_LOCATION" in body["error"]
    assert backend.calls == 0


def test_wrongly_typed_params_are_a_400(tmp_path):
    # "false" is a truthy string: taken as given it would run attenuated.
    service, backend = make_service(tmp_path)
    specs = [
        {"params": {key: value}, "source": SOURCE,
         "stations": [{"name": "POLE", "position": [0, 0, 6371]}]}
        for key, value in (("ATTENUATION", "false"), ("NEX_XI", 4.0))
    ]
    for spec in specs:
        with pytest.raises(ParameterError):
            SimulationRequest.from_spec(spec)

    async def scenario():
        server = await ServiceHTTPServer(service, port=0).start()
        loop = asyncio.get_running_loop()
        try:
            return await asyncio.gather(*(
                loop.run_in_executor(None, http_json, server.host,
                                     server.port, "POST", "/simulate", spec)
                for spec in specs
            ))
        finally:
            await server.stop()

    try:
        answers = asyncio.run(scenario())
    finally:
        service.close()
    assert [status for status, _ in answers] == [400, 400]
    assert "ATTENUATION" in answers[0][1]["error"]
    assert backend.calls == 0


def test_stop_finishes_idle_keep_alive_handlers(tmp_path):
    # An idle keep-alive client leaves its connection handler waiting for
    # the next request; stop() must cancel and await it, not leave it
    # pending for the loop's teardown to destroy.
    service, _backend = make_service(tmp_path)

    async def scenario():
        server = await ServiceHTTPServer(service, port=0).start()
        reader, writer = await asyncio.open_connection(server.host, server.port)
        writer.write(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
        head = await reader.readuntil(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200")
        length = int(head.lower().split(b"content-length:")[1].split(b"\r\n")[0])
        assert json.loads(await reader.readexactly(length)) == {"ok": True}
        await server.stop()
        left = asyncio.all_tasks() - {asyncio.current_task()}
        writer.close()
        return left

    try:
        assert asyncio.run(scenario()) == set()
    finally:
        service.close()


def test_stop_logs_nothing_for_a_cancelled_keep_alive_handler(tmp_path):
    # stop() cancels the idle handler; the cancellation must end it
    # quietly, not reach the stream's done-callback as a logged error.
    service, _backend = make_service(tmp_path)
    logged = []

    async def scenario():
        loop = asyncio.get_running_loop()
        loop.set_exception_handler(lambda _loop, context: logged.append(context))
        server = await ServiceHTTPServer(service, port=0).start()
        reader, writer = await asyncio.open_connection(server.host, server.port)
        writer.write(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
        await reader.readuntil(b"\r\n\r\n")
        await server.stop()
        await asyncio.sleep(0)  # let done-callbacks run
        writer.close()

    try:
        asyncio.run(scenario())
    finally:
        service.close()
    assert logged == []


# ------------------------------------------------ lifetime and concurrency

def test_closed_service_is_freed_without_the_cycle_collector(tmp_path):
    # A service that referred to itself would keep its pool's cached mesh
    # alive past close() until the next full garbage collection.
    import gc
    import weakref

    gc.disable()
    try:
        service = SimulationService(store=str(tmp_path / "store"))
        pool = weakref.ref(service.pool)
        service.close()
        del service
        assert pool() is None
    finally:
        gc.enable()


def test_store_loads_run_concurrently_without_np_load(tmp_path, monkeypatch):
    # A record is parsed with json + np.frombuffer: no np.load, no ast, no
    # lock — four threads loading one run at once all get the same rows.
    service, _backend = make_service(tmp_path)
    try:
        response = asyncio.run(service.handle(make_request()))
    finally:
        service.close()
    store = service.store
    run = store.find_exact(response.key)

    def no_np_load(*args, **kwargs):
        raise AssertionError("the store must not call np.load")

    monkeypatch.setattr(np, "load", no_np_load)
    results, errors = [], []

    def load():
        try:
            results.append(store.load(run))
        except BaseException as exc:  # surfaced by the asserts below
            errors.append(exc)

    threads = [threading.Thread(target=load) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(results) == 4
    canonical = np.stack([response.seismogram(s.name) for s in run.stations])
    for data in results:
        assert data.flags.writeable
        assert np.array_equal(data, canonical)
