"""File-offset generation for the paper's access patterns.

Both patterns write ``bytes_per_process`` per process into a file shared by
the application:

* **Contiguous** — process ``rank`` writes one extent starting at
  ``rank * bytes_per_process`` (the IOR "segmented" layout).  If a request
  size smaller than the whole extent is configured, the extent is split into
  consecutive requests.
* **Strided**   — the file is organised as interleaved blocks: request ``k``
  of process ``rank`` starts at ``(k * n_procs + rank) * request_size``
  (the IOR "strided"/interleaved layout with one block per transfer).

The functions return NumPy arrays so the model can build per-operation
extents for every process at once.
"""

from __future__ import annotations

import numpy as np

from repro.config.workload import AccessKind, PatternSpec
from repro.errors import ConfigurationError

__all__ = [
    "request_offsets", "request_sizes", "pattern_extents", "request_extents",
    "total_file_size",
]


def request_sizes(pattern: PatternSpec, rank: int = 0) -> np.ndarray:
    """Sizes (bytes) of every request one process issues during a phase.

    All requests have the configured request size except possibly the last,
    which is truncated so the per-process volume is exactly
    ``bytes_per_process``.
    """
    if rank < 0:
        raise ConfigurationError("rank must be non-negative")
    n = pattern.requests_per_process
    sizes = np.full(n, pattern.effective_request_size, dtype=np.float64)
    sizes[-1] = pattern.last_request_size
    return sizes


def request_offsets(pattern: PatternSpec, rank: int, n_procs: int) -> np.ndarray:
    """File offsets of every request one process issues during a phase."""
    if n_procs <= 0:
        raise ConfigurationError("n_procs must be positive")
    if rank < 0 or rank >= n_procs:
        raise ConfigurationError(f"rank {rank} out of range for {n_procs} processes")
    n = pattern.requests_per_process
    req = pattern.effective_request_size
    k = np.arange(n, dtype=np.float64)
    if pattern.kind is AccessKind.CONTIGUOUS:
        return rank * pattern.bytes_per_process + k * req
    return (k * n_procs + rank) * req


def pattern_extents(pattern: PatternSpec, op_index: int, n_procs: int) -> tuple[np.ndarray, np.ndarray]:
    """Extents (offsets, lengths) of operation ``op_index`` for every process.

    Returns two arrays of shape ``(n_procs,)``: the file offset and the size
    of the request each rank issues as its ``op_index``-th operation.
    """
    if op_index < 0 or op_index >= pattern.requests_per_process:
        raise ConfigurationError(
            f"op_index {op_index} out of range (pattern has "
            f"{pattern.requests_per_process} operations)"
        )
    ranks = np.arange(n_procs, dtype=np.int64)
    return request_extents(pattern, ranks, np.full(n_procs, op_index, dtype=np.int64), n_procs)


def request_extents(
    pattern: PatternSpec, ranks: np.ndarray, op_indices: np.ndarray, n_procs: int
) -> tuple[np.ndarray, np.ndarray]:
    """Extents (offsets, lengths) of request ``op_indices[i]`` of rank ``ranks[i]``.

    The elementwise form of :func:`pattern_extents`, for processes that
    issue different operations at the same instant (the non-collective
    mode).  Each element is the same float arithmetic as the per-operation
    form.
    """
    ops = np.asarray(op_indices, dtype=np.int64)
    n_ops = pattern.requests_per_process
    out_of_range = (ops < 0) | (ops >= n_ops)
    if out_of_range.any():
        raise ConfigurationError(
            f"op_index {int(ops[out_of_range][0])} out of range (pattern has "
            f"{n_ops} operations)"
        )
    req = pattern.effective_request_size
    ranks_f = np.asarray(ranks, dtype=np.float64)
    lengths = np.where(ops == n_ops - 1, float(pattern.last_request_size), float(req))
    if pattern.kind is AccessKind.CONTIGUOUS:
        offsets = ranks_f * pattern.bytes_per_process + ops * req
    else:
        offsets = (ops * n_procs + ranks_f) * req
    return offsets, lengths


def total_file_size(pattern: PatternSpec, n_procs: int) -> float:
    """Size of the shared file after one complete phase of ``n_procs`` processes."""
    if n_procs <= 0:
        raise ConfigurationError("n_procs must be positive")
    if pattern.kind is AccessKind.CONTIGUOUS:
        return n_procs * pattern.bytes_per_process
    # Strided: the last block of the last segment defines the file size; with
    # equal-size requests this is simply the total volume as well.
    return n_procs * pattern.bytes_per_process
