"""Network substrate.

Flat per-lane building blocks for the I/O-path model:

* :mod:`repro.network.congestion` — the TCP-like per-connection congestion
  window state and its update rule (AIMD + timeout collapse),
* :mod:`repro.network.incast`     — the per-server receive buffers and the
  proportional admission whose breakdown is the Incast problem,
* :mod:`repro.network.topology`   — the star topology's per-link capacities
  and busy-time accounting (NIC and server-downlink utilization),
* :mod:`repro.network.allocation` — :func:`proportional_share`, the scalar
  water-filling oracle the tests hold the stacked admission to.
"""

from repro.network.allocation import proportional_share
from repro.network.congestion import WindowState, WindowUpdateResult
from repro.network.incast import ServerBuffers
from repro.network.topology import StarTopology

__all__ = [
    "proportional_share",
    "WindowState",
    "WindowUpdateResult",
    "ServerBuffers",
    "StarTopology",
]
