"""The per-server water-filling oracle.

:func:`proportional_share` divides a capacity among demands in proportion to
weights, never giving anyone more than it asked for (water-filling of the
excess).  It is the scalar reference of the admission water-filling that
:class:`~repro.network.incast.ServerBuffers` runs stacked across servers:
the tests check the flat admission against it, server by server, bit for bit.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["proportional_share"]


def proportional_share(
    demands: np.ndarray,
    capacity: float,
    weights: Optional[np.ndarray] = None,
    iterations: int = 4,
) -> np.ndarray:
    """Split ``capacity`` among ``demands`` proportionally to ``weights``.

    No entity receives more than its demand; capacity freed by entities whose
    demand is below their proportional share is redistributed among the
    others (a few water-filling passes are enough for our purposes).

    Parameters
    ----------
    demands:
        Non-negative demands (same unit as capacity).
    capacity:
        Total capacity to distribute.
    weights:
        Optional positive weights (defaults to equal weights).
    iterations:
        Number of redistribution passes.

    Returns
    -------
    numpy.ndarray
        Allocation with ``0 <= alloc <= demands`` and
        ``alloc.sum() <= min(capacity, demands.sum())`` (equality up to
        floating-point error when demand exceeds capacity).
    """
    demands = np.asarray(demands, dtype=np.float64)
    if demands.ndim != 1:
        raise ValueError("demands must be one-dimensional")
    n = demands.shape[0]
    if weights is None:
        weights = np.ones(n, dtype=np.float64)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != demands.shape:
            raise ValueError("weights must have the same shape as demands")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    if capacity <= 0:
        return np.zeros(n, dtype=np.float64)
    total_demand = float(demands.sum())
    if total_demand <= capacity:
        return demands.copy()

    alloc = np.zeros(n, dtype=np.float64)
    remaining_capacity = float(capacity)
    unsatisfied = demands > 0
    for _ in range(max(iterations, 1)):
        if remaining_capacity <= 1e-12 or not np.any(unsatisfied):
            break
        w = np.where(unsatisfied, weights, 0.0)
        w_sum = w.sum()
        if w_sum <= 0:
            break
        offer = remaining_capacity * w / w_sum
        take = np.minimum(offer, demands - alloc)
        alloc += take
        remaining_capacity -= float(take.sum())
        unsatisfied = (demands - alloc) > 1e-9
    return alloc
