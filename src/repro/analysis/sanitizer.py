"""Runtime comm sanitizer: dynamic checking of the SPMD message discipline.

The static rules in :mod:`repro.analysis.static` prove properties of the
*source*; this module checks the *execution*.  Every rank's
:class:`~repro.parallel.comm.VirtualComm` reports each message and
request to one cluster-wide :class:`CommSanitizer`.  At the end of the
run (``VirtualCluster.run`` finalizes the sanitizer even when
a rank failed) the collected evidence becomes a :class:`SanitizerReport`:

* **unmatched-send** — a posted message nobody ever received; on real
  MPI this is buffered traffic that silently distorts timing (or, for
  rendezvous-size payloads, a hang).
* **leaked-request** — an ``isend``/``irecv`` handle that never reached
  ``wait``/``waitall``; the runtime analogue of static rule R1.
* **double-wait** — one request completed twice; legal on our idempotent
  virtual requests but an error against a real ``MPI_Request``.
* **tag-collision / tag-reuse** — two *simultaneously outstanding*
  requests on one rank with identical (op, peer, tag): their completions
  can match either message, so the exchange is only correct by luck.
  Blocking sends are exempt — MPI's non-overtaking rule makes same-tag
  back-to-back blocking traffic well defined.
* **deadlock / timeout** — on a receive deadline expiry the sanitizer
  snapshots who-waits-on-whom and reports the wait-for cycle (if any)
  instead of leaving a bare ``RankTimeoutError``.

Enable with ``VirtualCluster(sanitize=True)`` or
``run_distributed_simulation(..., sanitize=True)``.  Where the sanitizer
sits relative to fault injection and the failure detector is set out
once, in the :mod:`repro.parallel.comm` module docstring.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field

__all__ = [
    "CommSanitizer",
    "CommSanitizerError",
    "SanitizerFinding",
    "SanitizerReport",
]


class CommSanitizerError(RuntimeError):
    """Raised by :meth:`SanitizerReport.raise_if_findings` on a dirty run."""


@dataclass
class SanitizerFinding:
    """One protocol violation observed during a sanitized run."""

    kind: str
    rank: int
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] rank {self.rank}: {self.detail}"


@dataclass
class SanitizerReport:
    """Finalized outcome of one sanitized run."""

    findings: list[SanitizerFinding] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings

    def kinds(self) -> set[str]:
        return {f.kind for f in self.findings}

    def to_dict(self) -> dict:
        return {
            "clean": self.clean,
            "findings": [
                {"kind": f.kind, "rank": f.rank, "detail": f.detail}
                for f in self.findings
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def raise_if_findings(self) -> None:
        if self.findings:
            lines = "\n".join(f"  {f}" for f in self.findings)
            raise CommSanitizerError(
                f"comm sanitizer found {len(self.findings)} violation(s):\n"
                f"{lines}"
            )


class CommSanitizer:
    """Cluster-wide recorder of message and request lifecycles.

    One instance is shared by all ranks' communicators; every method is
    thread-safe.  ``finalize()`` is idempotent and turns
    the collected state into a :class:`SanitizerReport`.
    """

    def __init__(self, size: int):
        self.size = size
        self._lock = threading.Lock()
        #: (src, dst, tag) -> number of sent-but-unreceived messages.
        self._in_flight: dict[tuple[int, int, int], int] = {}
        #: request id -> lifecycle record.
        self._requests: dict[int, dict] = {}
        self._next_request_id = 0
        #: rank -> (peer, tag) it is currently blocked receiving on.
        self._waiting: dict[int, tuple[int, int]] = {}
        self._findings: list[SanitizerFinding] = []
        self._report: SanitizerReport | None = None

    # -- recording ----------------------------------------------------------

    def _add_finding(self, kind: str, rank: int, detail: str) -> None:
        # Called with the lock held.
        self._findings.append(SanitizerFinding(kind=kind, rank=rank, detail=detail))

    def on_send(self, rank: int, dest: int, tag: int) -> None:
        """A message was posted (blocking send or isend)."""
        key = (rank, dest, tag)
        with self._lock:
            self._in_flight[key] = self._in_flight.get(key, 0) + 1

    def on_recv_complete(self, rank: int, source: int, tag: int) -> None:
        """A receive matched: the message leaves the in-flight set."""
        key = (source, rank, tag)
        with self._lock:
            n = self._in_flight.get(key, 0)
            if n <= 1:
                self._in_flight.pop(key, None)
            else:
                self._in_flight[key] = n - 1

    def on_request(self, rank: int, op: str, peer: int, tag: int) -> int:
        """Register a non-blocking request; returns its tracking id.

        Two simultaneously outstanding requests with the same signature
        are ambiguous — either completion can match either message — so
        the second registration is a finding.
        """
        with self._lock:
            for rec in self._requests.values():
                if (
                    not rec["completed"]
                    and rec["rank"] == rank
                    and rec["op"] == op
                    and rec["peer"] == peer
                    and rec["tag"] == tag
                ):
                    kind = "tag-collision" if op == "irecv" else "tag-reuse"
                    self._add_finding(
                        kind,
                        rank,
                        f"{op}(peer={peer}, tag={tag}) posted while an "
                        f"identical request is still outstanding",
                    )
                    break
            req_id = self._next_request_id
            self._next_request_id += 1
            self._requests[req_id] = {
                "rank": rank,
                "op": op,
                "peer": peer,
                "tag": tag,
                "waited": False,
                "completed": False,
            }
            return req_id

    def on_wait(self, req_id: int, rank: int) -> None:
        """A wait started on a tracked request (double-wait check)."""
        with self._lock:
            rec = self._requests.get(req_id)
            if rec is None:
                return
            if rec["completed"]:
                self._add_finding(
                    "double-wait",
                    rank,
                    f"{rec['op']}(peer={rec['peer']}, tag={rec['tag']}) "
                    f"waited on after it already completed",
                )
            rec["waited"] = True

    def on_request_complete(self, req_id: int) -> None:
        """A wait on a tracked request returned successfully."""
        with self._lock:
            rec = self._requests.get(req_id)
            if rec is not None:
                rec["completed"] = True

    def on_wait_begin(self, rank: int, peer: int, tag: int) -> None:
        with self._lock:
            self._waiting[rank] = (peer, tag)

    def on_wait_end(self, rank: int) -> None:
        with self._lock:
            self._waiting.pop(rank, None)

    def on_timeout(self, rank: int, peer: int, tag: int) -> None:
        """A receive deadline expired: snapshot the wait-for graph.

        Walks rank -> rank-it-waits-on edges from the timed-out rank; a
        revisit closes a cycle (a true deadlock), otherwise the chain
        ends at a rank that is computing (a lost message or slow peer).
        """
        with self._lock:
            edges = dict(self._waiting)
            edges[rank] = (peer, tag)
            chain = [rank]
            seen = {rank}
            current = peer
            while current in edges and current not in seen:
                chain.append(current)
                seen.add(current)
                current = edges[current][0]
            if current in seen:
                chain.append(current)
                cycle = " -> ".join(
                    f"rank {r} (recv tag {edges[r][1]} from {edges[r][0]})"
                    for r in chain
                    if r in edges
                )
                self._add_finding(
                    "deadlock",
                    rank,
                    f"wait-for cycle: {cycle}",
                )
            else:
                chain_s = " -> ".join(str(r) for r in chain + [current])
                self._add_finding(
                    "timeout",
                    rank,
                    f"recv(source={peer}, tag={tag}) timed out; wait chain "
                    f"{chain_s} ends at a non-waiting rank (lost message or "
                    f"slow peer, not a cycle)",
                )

    # -- finalization -------------------------------------------------------

    def finalize(self) -> SanitizerReport:
        """Turn the collected evidence into a report (idempotent)."""
        with self._lock:
            if self._report is not None:
                return self._report
            findings = list(self._findings)
            for (src, dst, tag), count in sorted(self._in_flight.items()):
                findings.append(
                    SanitizerFinding(
                        kind="unmatched-send",
                        rank=src,
                        detail=(
                            f"{count} message(s) to rank {dst} with tag "
                            f"{tag} never received"
                        ),
                    )
                )
            for rec in self._requests.values():
                if rec["completed"]:
                    continue
                how = (
                    "wait never returned" if rec["waited"] else "never waited on"
                )
                findings.append(
                    SanitizerFinding(
                        kind="leaked-request",
                        rank=rec["rank"],
                        detail=(
                            f"{rec['op']}(peer={rec['peer']}, "
                            f"tag={rec['tag']}) {how}"
                        ),
                    )
                )
            self._report = SanitizerReport(findings=findings)
            return self._report
