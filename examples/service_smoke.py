"""CI load-smoke of the simulation service over real localhost HTTP.

Boots ``python -m repro.service serve`` as a subprocess on an ephemeral
port, then drives a warm/cold request mix through the HTTP client:

* one cold request (the only real solve of its key), then five timed
  repeats of it (hits),
* a warm batch via ``/warm`` (hits),
* repeated, permuted-station, and subset-station requests (hits and an
  exact slice),
* a burst of concurrent identical requests on a fresh key — proving
  single-flight coalescing end to end over TCP.

Asserts that a hit is at least 5x faster than the cold solve (median of
the five repeats), and from ``/stats``: hit rate >= 0.5, at least one
coalesced request, at least one slice, zero client-visible errors, and
exactly two backend solves for the whole mix.  Exits non-zero (with the
stats payload printed) on any violation — this is the CI gate that the
serving tier actually serves.
"""

import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.obs.report import render_service_report  # noqa: E402
from repro.service import http_json  # noqa: E402

PARAMS = {
    "NEX_XI": 8,
    "NER_CRUST_MANTLE": 2,
    "NER_OUTER_CORE": 1,
    "NER_INNER_CORE": 1,
}

HIT_SPEEDUP_FLOOR = 5.0
N_TIMED_HITS = 5

STATIONS = [
    {"name": "POLE", "position": [0.0, 0.0, 6371.0]},
    {"name": "EQ", "position": [6371.0, 0.0, 0.0]},
    {"name": "MID", "position": [0.0, 6371.0, 0.0]},
]


def spec(n_steps=6, stations=None):
    return {
        "params": dict(PARAMS),
        "source": {"position": [0.0, 0.0, 6171.0]},
        "stations": list(STATIONS if stations is None else stations),
        "n_steps": n_steps,
        "include_data": False,
    }


def simulate(port, body):
    status, payload = http_json("127.0.0.1", port, "POST", "/simulate", body)
    assert status == 200, f"/simulate -> {status}: {payload}"
    return payload


def timed_simulate(port, body):
    t0 = time.perf_counter()
    payload = simulate(port, body)
    return payload, time.perf_counter() - t0


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    with tempfile.TemporaryDirectory() as store:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve",
             "--port", "0", "--store", store],
            stdout=subprocess.PIPE, text=True, env=env, cwd=REPO,
        )
        try:
            line = proc.stdout.readline()
            match = re.search(r"listening on [\d.]+:(\d+)", line)
            assert match, f"serve did not announce a port: {line!r}"
            port = int(match.group(1))
            print(f"[smoke] {line.strip()}")

            # Cold: the one real solve for this key.
            cold, cold_s = timed_simulate(port, spec())
            assert cold["status"] == "computed", cold

            # Repeats of the same spec are store hits, served without a
            # solve: the cache must pay for itself by a wide margin.
            hit_s = []
            for _ in range(N_TIMED_HITS):
                hit, wall_s = timed_simulate(port, spec())
                assert hit["status"] == "hit", hit
                hit_s.append(wall_s)
            hit_p50_s = statistics.median(hit_s)
            hit_speedup = cold_s / hit_p50_s
            print(f"[smoke] cold {cold_s:.3f}s, hit p50 "
                  f"{hit_p50_s * 1e3:.2f}ms: {hit_speedup:.0f}x")
            assert hit_speedup >= HIT_SPEEDUP_FLOOR, (
                f"a hit is only {hit_speedup:.1f}x faster than the cold "
                f"solve; the store needs >= {HIT_SPEEDUP_FLOOR}x"
            )

            # Warm batch: same key again, all hits.
            status, warm = http_json(
                "127.0.0.1", port, "POST", "/warm",
                {"requests": [spec(), spec()]},
            )
            assert status == 200, warm
            assert all(w["status"] == "hit" for w in warm["warmed"]), warm

            # Permuted station list must hit the same entry; a subset
            # must be answered by slicing the stored superset run.
            permuted = simulate(port, spec(stations=STATIONS[::-1]))
            assert permuted["status"] == "hit", permuted
            assert permuted["key"] == cold["key"], permuted
            sliced = simulate(port, spec(stations=STATIONS[:2]))
            assert sliced["status"] == "sliced" and sliced["exact"], sliced
            assert sliced["source_key"] == cold["key"], sliced

            # Coalesce burst: a fresh key, six concurrent identical
            # requests, one solve.
            burst_spec = spec(n_steps=7)
            t0 = time.perf_counter()
            with ThreadPoolExecutor(max_workers=6) as pool:
                outcomes = list(
                    pool.map(lambda _i: simulate(port, dict(burst_spec)),
                             range(6))
                )
            burst_s = time.perf_counter() - t0
            statuses = sorted(o["status"] for o in outcomes)
            print(f"[smoke] burst statuses: {statuses} in {burst_s:.2f}s")

            status, stats = http_json("127.0.0.1", port, "GET", "/stats")
            assert status == 200, stats
            print(render_service_report(stats))
            assert stats["errors"] == 0, stats
            assert stats["coalesced"] >= 1, (
                f"no coalesced requests in the burst: {stats}"
            )
            assert stats["sliced"] >= 1, stats
            assert stats["hit_rate"] >= 0.5, (
                f"hit rate {stats['hit_rate']:.2f} below 0.5: {stats}"
            )
            assert stats["solver_runs"] == 2, stats
            print("[smoke] service load-smoke PASSED")
            return 0
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)


if __name__ == "__main__":
    sys.exit(main())
