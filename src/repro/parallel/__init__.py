"""Virtual MPI: communicators, halo assembly, distributed launcher.

Message tags come from the :mod:`.tags` registry (checked by the static
analyzer's rule R2); with ``VirtualCluster(sanitize=True)`` every rank's
communicator reports to the :mod:`repro.analysis.sanitizer` protocol
checker.
"""

from . import tags
from .comm import (
    CommStats,
    RecvRequest,
    Request,
    SendRequest,
    VirtualCluster,
    VirtualComm,
)
from .errors import RankFailedError, RankTimeoutError
from .halo import HaloExchanger, PendingExchange, RegionHalo, build_halos
from .launcher import DistributedResult, run_distributed_simulation

__all__ = [
    "tags",
    "CommStats",
    "Request",
    "SendRequest",
    "RecvRequest",
    "VirtualCluster",
    "VirtualComm",
    "HaloExchanger",
    "PendingExchange",
    "RegionHalo",
    "build_halos",
    "DistributedResult",
    "RankFailedError",
    "RankTimeoutError",
    "run_distributed_simulation",
]
