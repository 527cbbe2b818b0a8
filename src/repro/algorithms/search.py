"""Search helpers shared by the binary-search × DP algorithms.

The optimal period (or latency) of every polynomial variant in the paper is
attained by some group's cost, which takes finitely many values of the form
``work / capacity`` (capacities are ``k * min_speed`` or ``sum_speed`` over
processor blocks).  Instead of an epsilon-terminated binary search on a real
interval (the paper bounds the iteration count through an lcm argument), we
enumerate the candidate value set and binary-search *within it*: the result
is exact, with ``O(log #candidates)`` feasibility tests.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from ..core.costs import FLOAT_TOL
from ..core.exceptions import InfeasibleProblemError

INF = float("inf")

__all__ = [
    "unique_sorted",
    "smallest_feasible",
    "ceil_div_tol",
    "floor_div_tol",
    "block_capacities",
]


def unique_sorted(values: Iterable[float]) -> list[float]:
    """Sort and deduplicate floating candidates (tolerance-aware)."""
    out: list[float] = []
    for v in sorted(values):
        if not out or v - out[-1] > FLOAT_TOL * max(1.0, abs(v)):
            out.append(v)
    return out


def smallest_feasible(
    candidates: list[float],
    feasible: Callable[[float], bool],
    what: str = "threshold",
) -> float:
    """Smallest candidate for which ``feasible`` holds.

    ``feasible`` must be monotone (false..false, true..true) over the sorted
    candidates — all our feasibility tests are, since raising a period or
    latency bound only enlarges the feasible set.  Raises
    :class:`InfeasibleProblemError` when even the largest candidate fails.
    """
    if not candidates:
        raise InfeasibleProblemError(f"no candidate {what} values")
    lo, hi = 0, len(candidates) - 1
    if not feasible(candidates[hi]):
        raise InfeasibleProblemError(
            f"no feasible {what} (largest candidate {candidates[hi]} fails)"
        )
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
    return candidates[lo]


def ceil_div_tol(x: float, y: float) -> int:
    """``ceil(x / y)`` robust to floating error slightly above an integer."""
    q = x / y
    r = int(q)
    if q - r <= FLOAT_TOL * max(1.0, abs(q)):
        return max(r, 0)
    return max(r + 1, 0)


def floor_div_tol(x: float, y: float) -> int:
    """``floor(x / y)`` robust to floating error slightly below an integer."""
    q = x / y
    r = int(q)
    if q < 0:
        return r if q == r else r - 1
    if (r + 1) - q <= FLOAT_TOL * max(1.0, abs(q)):
        return r + 1
    return r


def block_capacities(
    speeds: list[float], n: int, w: float, K: float, budget: float
) -> tuple[tuple[int, ...], ...]:
    """Branch capacities of plain blocks on a speed-sorted processor line.

    ``caps[a][k - 1]`` is the largest ``m <= n`` with period
    ``m w / (k s_a) <= K`` and delay ``m w / s_a <= budget`` for the block
    of ``k`` processors starting at position ``a`` (``s_a`` its slowest
    speed), and 0 when not even one branch fits.  The Theorem 14 fork and
    fork-join DPs depend on ``(K, budget)`` only through this table, so
    it doubles as their memo key.
    """

    def cap(limit: float) -> int:
        if limit == INF:
            return n
        if limit < -FLOAT_TOL:
            return 0
        return min(n, max(0, floor_div_tol(limit, w)))

    p = len(speeds)
    rows = []
    for a, s in enumerate(speeds):
        lat = INF if budget == INF else budget * s
        if K == INF:  # no period bound: the block size does not matter
            rows.append((cap(lat),) * (p - a))
        else:
            rows.append(tuple(
                cap(min(K * k * s, lat)) for k in range(1, p - a + 1)
            ))
    return tuple(rows)
