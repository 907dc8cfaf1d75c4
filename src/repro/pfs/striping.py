"""Round-robin striping arithmetic.

PVFS distributes a file's data across its I/O servers in fixed-size stripes
assigned round-robin: stripe ``k`` of a file lives on server
``servers[k % len(servers)]``.  The functions here convert byte extents of a
file into per-server byte counts; the model uses them to decide which
connections a request loads and by how much, and the Figure 8/9 experiments
rely on them to reproduce the stripe-size and request-size effects.

All functions accept an explicit tuple of server indices because an
application may target a subset of the deployment (the partitioned-server
experiment of Figure 7); striping is always round-robin over that tuple.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "stripe_span",
    "extent_to_server_bytes",
    "extents_to_server_matrix",
    "servers_touched",
]

#: Most stripes :func:`extents_to_server_matrix` materializes at once.
_STRIPE_CHUNK = 1 << 16


def stripe_span(offset: float, length: float, stripe_size: float) -> Tuple[int, int]:
    """First and last stripe index touched by the extent ``[offset, offset+length)``.

    Returns ``(first, last)`` inclusive.  A zero-length extent returns
    ``(first, first - 1)`` (an empty span).
    """
    if offset < 0 or length < 0:
        raise ConfigurationError("offset and length must be non-negative")
    if stripe_size <= 0:
        raise ConfigurationError("stripe_size must be positive")
    first = int(offset // stripe_size)
    if length == 0:
        return first, first - 1
    last = int(math.ceil((offset + length) / stripe_size)) - 1
    return first, max(last, first)


def extent_to_server_bytes(
    offset: float,
    length: float,
    stripe_size: float,
    servers: Sequence[int],
    n_servers_total: int,
) -> np.ndarray:
    """Bytes written to each server of the deployment by one extent.

    Parameters
    ----------
    offset, length:
        The file extent (bytes).
    stripe_size:
        Striping unit (bytes).
    servers:
        Ordered server indices the file is striped over.
    n_servers_total:
        Total number of servers in the deployment (length of the returned
        array).

    Returns
    -------
    numpy.ndarray of shape ``(n_servers_total,)``
        Bytes of the extent that land on each server; servers not in
        ``servers`` receive zero.
    """
    if n_servers_total <= 0:
        raise ConfigurationError("n_servers_total must be positive")
    servers = tuple(int(s) for s in servers)
    if not servers:
        raise ConfigurationError("servers must not be empty")
    if any(s < 0 or s >= n_servers_total for s in servers):
        raise ConfigurationError("server indices out of range")
    out = np.zeros(n_servers_total, dtype=np.float64)
    if length <= 0:
        return out
    first, last = stripe_span(offset, length, stripe_size)
    stripe_indices = np.arange(first, last + 1, dtype=np.int64)
    sizes = np.full(stripe_indices.shape[0], float(stripe_size), dtype=np.float64)
    # Trim the first and last (possibly partial) stripes.
    sizes[0] = min(stripe_size - (offset - first * stripe_size), length)
    if stripe_indices.shape[0] > 1:
        end = offset + length
        sizes[-1] = end - last * stripe_size
    owner = np.asarray(servers, dtype=np.int64)[stripe_indices % len(servers)]
    np.add.at(out, owner, sizes)
    return out


def extents_to_server_matrix(
    offsets: np.ndarray,
    lengths: np.ndarray,
    stripe_size: float,
    servers: Sequence[int],
    n_servers_total: int,
) -> np.ndarray:
    """Per-extent, per-server byte counts.

    Vectorizes :func:`extent_to_server_bytes` over a batch of extents (one
    per process).  Returns an array of shape ``(len(offsets), n_servers_total)``.
    Row ``i`` is bit for bit ``extent_to_server_bytes(offsets[i], ...)``: the
    per-stripe sizes come from the same arithmetic, and ``np.add.at`` over
    the extents' stripes accumulates each cell in stripe order, as the
    per-extent call does.
    """
    offsets = np.asarray(offsets, dtype=np.float64)
    lengths = np.asarray(lengths, dtype=np.float64)
    if offsets.shape != lengths.shape:
        raise ConfigurationError("offsets and lengths must have the same shape")
    if n_servers_total <= 0:
        raise ConfigurationError("n_servers_total must be positive")
    servers = tuple(int(s) for s in servers)
    if not servers:
        raise ConfigurationError("servers must not be empty")
    if any(s < 0 or s >= n_servers_total for s in servers):
        raise ConfigurationError("server indices out of range")
    result = np.zeros((offsets.shape[0], n_servers_total), dtype=np.float64)
    rows = np.flatnonzero(lengths > 0)
    if rows.size == 0:
        return result
    offset = offsets[rows]
    length = lengths[rows]
    if np.any(offset < 0):
        raise ConfigurationError("offset and length must be non-negative")
    if stripe_size <= 0:
        raise ConfigurationError("stripe_size must be positive")
    # stripe_span, per extent.
    end = offset + length
    first = np.floor_divide(offset, stripe_size).astype(np.int64)
    last = np.maximum(np.ceil(end / stripe_size).astype(np.int64) - 1, first)
    counts = last - first + 1
    # Extents accumulate independently, so they can be split into groups
    # that bound the per-stripe temporaries (an extent never splits).
    ends = np.cumsum(counts)
    owners = np.asarray(servers, dtype=np.int64)
    flat = result.reshape(-1)
    start = 0
    while start < rows.shape[0]:
        budget = ends[start] - counts[start] + _STRIPE_CHUNK
        stop = max(start + 1, int(np.searchsorted(ends, budget, side="right")))
        group = slice(start, stop)
        n = counts[group]
        head = np.cumsum(n) - n                  # each extent's first stripe slot
        within = np.arange(int(n.sum()), dtype=np.int64) - np.repeat(head, n)
        stripe_indices = np.repeat(first[group], n) + within
        sizes = np.full(stripe_indices.shape[0], float(stripe_size), dtype=np.float64)
        # Trim the first and last (possibly partial) stripes.
        sizes[head] = np.minimum(
            stripe_size - (offset[group] - first[group] * stripe_size), length[group]
        )
        multi = n > 1
        sizes[(head + n - 1)[multi]] = (
            end[group][multi] - last[group][multi] * stripe_size
        )
        owner = owners[stripe_indices % len(servers)]
        np.add.at(flat, np.repeat(rows[group], n) * n_servers_total + owner, sizes)
        start = stop
    return result


def servers_touched(
    offset: float,
    length: float,
    stripe_size: float,
    servers: Sequence[int],
) -> Tuple[int, ...]:
    """Distinct servers touched by an extent, in round-robin order of first touch.

    The number of servers touched per request is the quantity the paper uses
    to explain why larger stripe sizes (Figure 8) and smaller request sizes
    (Figure 9) reduce interference: fewer servers per request means fewer
    opportunities for one slow server to stall the whole operation.
    """
    servers = tuple(int(s) for s in servers)
    if length <= 0:
        return ()
    first, last = stripe_span(offset, length, stripe_size)
    seen: list[int] = []
    for k in range(first, last + 1):
        s = servers[k % len(servers)]
        if s not in seen:
            seen.append(s)
        if len(seen) == len(servers):
            break
    return tuple(seen)
