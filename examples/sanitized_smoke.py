#!/usr/bin/env python
"""Sanitized smoke run: both halo schedules under the comm sanitizer.

Runs one small NEX=8 distributed simulation twice — blocking and
overlapped halo schedules — with ``sanitize=True``, so every rank's
communicator reports to one :class:`repro.analysis.CommSanitizer`.
The run must finish with an *empty* sanitizer report (no unmatched
sends, no leaked requests, no double-waits, no tag collisions); any
finding exits non-zero.  As a positive control, a deliberately leaked
``isend`` is then driven through a bare cluster and must be detected.

This is the runtime half of the analysis gate (the static half is
``python -m repro.analysis check src``); CI runs both.

Run:  python examples/sanitized_smoke.py [report.json]
"""

import sys

import numpy as np

from repro import SimulationParameters
from repro.apps import default_source, default_stations
from repro.parallel import VirtualCluster, run_distributed_simulation


def main() -> int:
    params = SimulationParameters(
        nex_xi=8,
        nproc_xi=1,
        ner_crust_mantle=2,
        ner_outer_core=1,
        ner_inner_core=1,
        nstep_override=10,
        attenuation=True,
    )
    reports = {}
    for overlap in (False, True):
        label = "overlapped" if overlap else "blocking"
        result = run_distributed_simulation(
            params,
            sources=[default_source()],
            stations=default_stations(),
            overlap=overlap,
            sanitize=True,
        )
        report = result.sanitizer_report
        reports[label] = report.to_dict()
        status = "clean" if report.clean else "DIRTY"
        print(f"{label:>10} schedule: {status} "
              f"({len(report.findings)} finding(s))")
        for finding in report.findings:
            print(f"    {finding}")

    # Positive control: the sanitizer must catch a seeded leak.
    def leaky(comm):
        if comm.rank == 0:
            comm.isend(1, np.ones(4), tag=99)  # never waited, never received

    cluster = VirtualCluster(2, sanitize=True)
    cluster.run(leaky)
    drill = cluster.sanitizer_report
    detected = {"leaked-request", "unmatched-send"} <= drill.kinds()
    reports["leak-drill"] = drill.to_dict()
    print(f"leak drill: {'detected' if detected else 'MISSED'} "
          f"({sorted(drill.kinds())})")

    if len(sys.argv) > 1:
        import json
        from pathlib import Path

        Path(sys.argv[1]).write_text(json.dumps(reports, indent=2) + "\n")
        print(f"wrote {sys.argv[1]}")

    clean = all(r["clean"] for k, r in reports.items() if k != "leak-drill")
    return 0 if (clean and detected) else 1


if __name__ == "__main__":
    sys.exit(main())
