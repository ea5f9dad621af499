"""``python -m repro.service`` — run and talk to the simulation service.

Subcommands::

    serve     start the HTTP front-end over a seismogram store
    request   submit one simulation request and print the answer
    warm      pre-populate the cache from a JSON batch of request specs
    stats     print the service's counter / latency report

Example session (two shells)::

    python -m repro.service serve --store /tmp/seis --set NEX_XI=8 &
    python -m repro.service request --port 8642 \\
        --source 0,0,6171 --station POLE:0,0,6371 --set NSTEP_OVERRIDE=8

A ``warm`` batch file is ``{"requests": [spec, ...]}`` where each spec
is the ``/simulate`` wire format (see :meth:`repro.service.keys
.SimulationRequest.from_spec`).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import Any

from ..obs.metrics import MetricsRegistry
from ..obs.report import render_service_report
from .frontend import SimulationService
from .http import ServiceHTTPServer, http_json

DEFAULT_PORT = 8642


def _parse_sets(pairs: list[str]) -> dict[str, Any]:
    """``KEY=VALUE`` pairs; values parse as JSON, falling back to str."""
    out: dict[str, Any] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise SystemExit(f"--set needs KEY=VALUE, got {pair!r}")
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value
    return out


def _parse_station(text: str) -> dict[str, Any]:
    """``NAME:x,y,z`` -> station spec dict."""
    name, sep, coords = text.partition(":")
    parts = coords.split(",") if sep else []
    if not name or len(parts) != 3:
        raise SystemExit(f"--station needs NAME:x,y,z, got {text!r}")
    return {"name": name, "position": [float(v) for v in parts]}


async def _run_server(args: argparse.Namespace) -> int:
    metrics = MetricsRegistry()
    # Construction scans the store manifest from disk — run it off-loop
    # so a large warm cache does not stall the fresh event loop (R9).
    service = await asyncio.to_thread(
        lambda: SimulationService(
            store=args.store,
            metrics=metrics,
            n_backend_workers=args.workers,
        )
    )
    server = ServiceHTTPServer(
        service,
        host=args.host,
        port=args.port,
        defaults=_parse_sets(args.set),
    )
    await server.start()
    print(
        f"repro.service listening on {server.host}:{server.port} "
        f"(store: {service.store.directory}, "
        f"{len(service.store)} cached runs)",
        flush=True,
    )
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.stop()
        service.close()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    try:
        return asyncio.run(_run_server(args))
    except KeyboardInterrupt:
        return 0


def _request_spec(args: argparse.Namespace) -> dict[str, Any]:
    spec: dict[str, Any] = {
        "params": _parse_sets(args.set),
        "stations": [_parse_station(s) for s in args.station],
    }
    if args.source:
        position = [float(v) for v in args.source.split(",")]
        spec["source"] = {
            "position": position,
            "moment_scale": args.moment_scale,
            "half_duration_s": args.half_duration,
            "time_shift": args.time_shift,
        }
    if args.n_steps is not None:
        spec["n_steps"] = args.n_steps
    return spec


def _cmd_request(args: argparse.Namespace) -> int:
    spec = _request_spec(args)
    spec["include_data"] = not args.no_data
    status, payload = http_json(
        args.host, args.port, "POST", "/simulate", spec
    )
    if status != 200:
        print(f"request failed ({status}): "
              f"{(payload or {}).get('error', payload)}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(
        f"{payload['status']}"
        f"{' (exact)' if payload['exact'] else ' (interpolated)'} "
        f"key={payload['key']} source_key={payload['source_key']} "
        f"latency={payload['latency_s']:.4f}s"
    )
    print(
        f"{len(payload['stations'])} station(s), "
        f"{payload['n_steps']} steps, dt={payload['dt']:.6g}s: "
        + ", ".join(payload["stations"])
    )
    return 0


def _cmd_warm(args: argparse.Namespace) -> int:
    with open(args.batch, encoding="utf-8") as fh:
        batch = json.load(fh)
    if isinstance(batch, list):
        batch = {"requests": batch}
    status, payload = http_json(args.host, args.port, "POST", "/warm", batch)
    if status != 200:
        print(f"warm failed ({status}): "
              f"{(payload or {}).get('error', payload)}", file=sys.stderr)
        return 1
    for item in payload["warmed"]:
        print(f"{item['status']:<10} key={item['key']} "
              f"latency={item['latency_s']:.4f}s")
    print(f"warmed {len(payload['warmed'])} request(s)")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    status, payload = http_json(args.host, args.port, "GET", "/stats")
    if status != 200:
        print(f"stats failed ({status}): {payload}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_service_report(payload))
    return 0


def _add_client_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Simulation-as-a-service front-end.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_serve = sub.add_parser("serve", help="start the HTTP front-end")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=DEFAULT_PORT,
                         help="0 binds an ephemeral port")
    p_serve.add_argument("--store", default="service-store",
                         help="seismogram store directory")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="backend solve workers")
    p_serve.add_argument("--set", action="append", default=[],
                         metavar="KEY=VALUE",
                         help="Par_file default underlying every request")
    p_serve.set_defaults(func=_cmd_serve)

    p_req = sub.add_parser("request", help="submit one request")
    _add_client_args(p_req)
    p_req.add_argument("--station", action="append", default=[],
                       metavar="NAME:x,y,z", required=True)
    p_req.add_argument("--source", default=None, metavar="x,y,z",
                       help="source position")
    p_req.add_argument("--moment-scale", type=float, default=1.0e20)
    p_req.add_argument("--half-duration", type=float, default=10.0)
    p_req.add_argument("--time-shift", type=float, default=0.0)
    p_req.add_argument("--set", action="append", default=[],
                       metavar="KEY=VALUE", help="Par_file override")
    p_req.add_argument("--n-steps", type=int, default=None)
    p_req.add_argument("--no-data", action="store_true",
                       help="provenance only, skip the seismogram payload")
    p_req.add_argument("--json", action="store_true",
                       help="print the raw JSON response")
    p_req.set_defaults(func=_cmd_request)

    p_warm = sub.add_parser("warm", help="pre-populate the cache")
    _add_client_args(p_warm)
    p_warm.add_argument("batch",
                        help='JSON file: {"requests": [spec, ...]}')
    p_warm.set_defaults(func=_cmd_warm)

    p_stats = sub.add_parser("stats", help="print the service report")
    _add_client_args(p_stats)
    p_stats.add_argument("--json", action="store_true")
    p_stats.set_defaults(func=_cmd_stats)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
