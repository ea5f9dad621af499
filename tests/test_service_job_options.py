"""A request's ``job_options``: only the declared JobSpec fields, typed.

An unknown key (``stream_path`` among them: a request must not name a
file on the server) or a wrongly typed value is refused as a
:class:`~repro.config.parameters.ParameterError`, which the HTTP tier
answers with a 400 before any backend work or file creation.
"""

import asyncio

import pytest

from repro.config.parameters import ParameterError, SimulationParameters
from repro.obs.metrics import MetricsRegistry
from repro.service import (
    ServiceHTTPServer,
    SimulationRequest,
    SimulationService,
    http_json,
)
from repro.solver import Station

STATIONS = (Station("POLE", (0.0, 0.0, 6371.0)),)


def make_request(**job_options):
    return SimulationRequest(
        params=SimulationParameters(
            nex_xi=4, nproc_xi=1, ner_crust_mantle=2, ner_outer_core=1,
            ner_inner_core=1, nstep_override=8,
        ),
        stations=STATIONS,
        source={"position": [0.0, 0.0, 6171.0]},
        n_steps=8,
        job_options=job_options,
    )


def test_every_declared_option_is_accepted():
    request = make_request(
        n_segments=2, timeout_s=5, max_attempts=None, inject_failures=1,
        supervise=False, max_recoveries=3,
    )
    again = SimulationRequest.from_spec(request.to_spec())
    assert again.job_options == request.job_options


@pytest.mark.parametrize(
    "options",
    [
        {"stream_path": "owned.jsonl"},
        {"no_such_option": 1},
        {"max_attempts": "3"},
        {"inject_failures": True},
        {"supervise": 1},
        {"timeout_s": "5"},
        {"n_segments": 2.0},
    ],
    ids=["stream_path", "unknown", "str-int", "bool-int", "int-bool",
         "str-float", "float-int"],
)
def test_unknown_or_mistyped_options_are_refused(options):
    with pytest.raises(ParameterError, match="job option"):
        make_request(**options)


def test_http_answers_400_and_creates_no_file(tmp_path):
    calls = []

    def backend(request, keys):
        calls.append(request)
        raise AssertionError("a refused request reached the backend")

    service = SimulationService(
        store=str(tmp_path / "store"), compute=backend,
        metrics=MetricsRegistry(),
    )
    target = tmp_path / "evil" / "deep" / "dir" / "owned.jsonl"
    base = make_request().to_spec()
    specs = [
        {**base, "job_options": {"stream_path": str(target)}},
        {**base, "job_options": {"max_attempts": "3"}},
    ]

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
    assert "stream_path" in answers[0][1]["error"]
    assert "max_attempts" in answers[1][1]["error"]
    assert calls == []
    assert not (tmp_path / "evil").exists()
