"""Parallel-file-system substrate (an OrangeFS/PVFS2-like system).

* :mod:`repro.pfs.striping`   — round-robin striping arithmetic (file offsets
  to per-server byte counts, one extent or a matrix of them at once),
* :mod:`repro.pfs.filesystem` — a deployment: the servers' laws (drain
  capacity, Trove-like ingest with per-fragment costs, sync ON/OFF/null
  backends) run elementwise over flat per-server lanes,
* :mod:`repro.pfs.server`     — the scalar server model, one object per
  server: the oracle the tests hold the flat deployment to, bit for bit.
"""

from repro.pfs.striping import (
    extent_to_server_bytes,
    extents_to_server_matrix,
    stripe_span,
)
from repro.pfs.server import PVFSServer
from repro.pfs.filesystem import PVFSDeployment

__all__ = [
    "stripe_span",
    "extent_to_server_bytes",
    "extents_to_server_matrix",
    "PVFSServer",
    "PVFSDeployment",
]
