"""Bi-criteria trade-off curves (period vs latency).

The paper studies bi-criteria optimization as "minimize latency under a
period threshold" (and the converse).  Sweeping the threshold over the
achievable periods traces the Pareto front of a problem instance, which the
examples plot as text.

The sweep walks a geometric threshold grid from the top down and solves
only the thresholds whose answer is not yet known: a solve at threshold K
returning period p settles every threshold between p and K.  Each solve
executes through the campaign runner (:mod:`repro.campaign.runner`) as a
content-addressed task keyed like its grid point, so a :class:`ResultCache`
makes repeat or overlapping fronts (e.g. the same instance at different
resolutions, or a re-run after a crash) resolve without re-solving.
"""

from __future__ import annotations

from bisect import bisect_left

from ..algorithms.problem import Objective, ProblemSpec, Solution
from ..algorithms.registry import NPHardError
from ..core.costs import FLOAT_TOL
from ..core.exceptions import InfeasibleProblemError, ReproError
from ..serialization import (
    mapping_from_dict,
    normalized_instance_dict,
    spec_to_dict,
)

__all__ = ["pareto_front", "threshold_grid", "non_dominated"]


def threshold_grid(k_min: float, k_max: float, num_points: int) -> list[float]:
    """Geometric period-threshold grid from ``k_min`` to ``k_max``.

    Each point is computed directly as ``k_min * ratio**i`` (never by
    repeated multiplication, which accumulates float error over the
    grid) and the final threshold is pinned to exactly ``k_max`` — the
    sweep must always include the min-latency extreme, even for extreme
    ``k_max / k_min`` ratios where ``ratio**(n-1)`` rounds short.

    >>> threshold_grid(1.0, 8.0, 4)
    [1.0, 2.0, 4.0, 8.0]

    A degenerate range collapses to a single threshold:

    >>> threshold_grid(3.0, 3.0, 10)
    [3.0]
    """
    if k_max <= k_min * (1 + FLOAT_TOL):
        return [k_min]
    num_points = max(2, num_points)
    ratio = (k_max / k_min) ** (1.0 / (num_points - 1))
    grid = [k_min * ratio ** i for i in range(num_points - 1)]
    grid.append(k_max)
    return grid


def non_dominated(solutions) -> list[Solution]:
    """The (period, latency) non-dominated subset, sorted by period.

    A solution is kept iff no other has (period <=, latency <=) with at
    least one strictly smaller (beyond :data:`FLOAT_TOL`).  Ties collapse
    to a single representative.  The result has strictly increasing
    period and strictly decreasing latency — a true staircase front.

    Accepts anything with ``period`` / ``latency`` attributes:

    >>> from types import SimpleNamespace as Point
    >>> pts = [Point(period=2.0, latency=5.0),
    ...        Point(period=1.0, latency=9.0),
    ...        Point(period=3.0, latency=5.0)]   # dominated by (2.0, 5.0)
    >>> [(s.period, s.latency) for s in non_dominated(pts)]
    [(1.0, 9.0), (2.0, 5.0)]
    """
    front: list[Solution] = []
    best_latency = float("inf")
    for sol in sorted(solutions, key=lambda s: (s.period, s.latency)):
        if sol.latency < best_latency - FLOAT_TOL:
            front.append(sol)
            best_latency = sol.latency
    return front


def _solution_from_row(row: dict) -> Solution:
    return Solution(
        mapping=mapping_from_dict(row["mapping"]),
        period=row["period"],
        latency=row["latency"],
        meta={"algorithm": row.get("algorithm")},
    )


def _raise_row_error(row: dict) -> None:
    kind, message = row.get("error_type"), row.get("error", "")
    if kind == "NPHardError":
        raise NPHardError(message)
    if kind == "InfeasibleProblemError":
        raise InfeasibleProblemError(message)
    raise ReproError(f"{kind}: {message}")


def pareto_front(
    spec: ProblemSpec,
    num_points: int = 32,
    exact_fallback: bool = False,
    engine: str = "bnb",
    cache=None,
    context_cache=None,
) -> list[Solution]:
    """Non-dominated (period, latency) solutions of an instance.

    Strategy: find the two extreme solutions (min period; min latency),
    then walk a geometric grid of period thresholds K between them from
    the top down, solving "min latency s.t. period <= K"; dominated
    points are dropped.  A solve at K returns a point (p, l) with
    p <= K.  Every smaller threshold that still admits p has the same
    optimum l, since min-latency-under-period cannot rise as the bound
    grows (and, a smaller bound only removing candidates from a fixed
    search order, the same mapping), so the walk skips those thresholds
    and solves the largest one below p next.  It ends after the smallest
    threshold, or at the first infeasible one (every smaller threshold is
    infeasible too).  The result equals a solve at every grid point
    followed by the same non-domination pass, in one solve per distinct
    grid answer instead of one per threshold.

    Exact for the polynomial variants; uses the exponential exact solvers
    when ``exact_fallback`` is set, searched by ``engine`` (the pruned
    branch-and-bound default reaches well past the flat enumerator's old
    size limits).  Each solve is a campaign task keyed exactly like the
    grid point it stands for, so ``cache`` (a
    :class:`repro.campaign.ResultCache`) serves repeat or overlapping
    fronts, including caches filled by a full-grid sweep.

    The walk is *context-aware*: one
    :class:`~repro.algorithms.solve_context.ContextCache` is built per
    front (or passed in via ``context_cache``) and shared by the extreme
    solves and every threshold point, so the per-instance solver state —
    branch-and-bound search tables, the enumeration candidate list, the
    Theorem 8 DP memo — is built once instead of once per threshold.
    The returned front is bit-identical to per-point cold solves.

    The Section 2 pipeline on speeds (2, 2, 1) trades a 20% longer
    period for a 2-unit shorter latency (NP-hard Thm 9 cell, hence the
    exact fallback):

    >>> import repro
    >>> app = repro.PipelineApplication.from_works([14, 4, 2, 4])
    >>> spec = repro.ProblemSpec(app, repro.Platform.heterogeneous([2, 2, 1]))
    >>> front = pareto_front(spec, num_points=8, exact_fallback=True)
    >>> [(s.period, s.latency) for s in front]
    [(5.0, 14.0), (6.0, 12.0)]
    """
    from ..algorithms.solve_context import ContextCache
    from ..campaign.runner import execute_tasks
    from ..campaign.spec import Task

    if context_cache is None:
        context_cache = ContextCache()

    instance = spec_to_dict(spec)
    # every sweep task keys on the same instance: normalize it once
    normalized = normalized_instance_dict(instance)
    solver = {
        "name": "pareto",
        "mode": "auto",
        "exact_fallback": exact_fallback,
        "engine": engine,
    }

    def _task(index: int, objective: Objective,
              period_bound: float | None = None) -> Task:
        return Task(
            index=index,
            instance_id="pareto",
            instance=instance,
            objective=objective.value,
            period_bound=period_bound,
            latency_bound=None,
            solver=solver,
            normalized_instance=normalized,
        )

    extremes = execute_tasks(
        [_task(0, Objective.PERIOD), _task(1, Objective.LATENCY)],
        cache=cache, context_cache=context_cache,
    )
    for row in extremes:
        if row["status"] != "ok":
            _raise_row_error(row)
    lo, hi = (_solution_from_row(row) for row in extremes)

    bounds = [
        k * (1 + FLOAT_TOL)
        for k in threshold_grid(lo.period, max(hi.period, lo.period),
                                num_points)
    ]
    walked: list[Solution] = []
    i = len(bounds) - 1
    while i >= 0:
        (row,) = execute_tasks(
            [_task(i, Objective.LATENCY, period_bound=bounds[i])],
            cache=cache, context_cache=context_cache,
        )
        if row["status"] != "ok":
            if row.get("error_type") == "InfeasibleProblemError":
                break
            _raise_row_error(row)
        sol = _solution_from_row(row)
        walked.append(sol)
        # thresholds bisect_left(...) and up admit sol.period, so share its
        # optimum; min() keeps the walk descending even on a cached row
        # whose period exceeds its own threshold
        i = min(i, bisect_left(bounds, sol.period)) - 1

    # a full non-domination pass, not a check against the last point: an
    # extreme can be dominated by a walked point, and a cached row need
    # not respect the staircase the walk's order assumes
    return non_dominated([lo, hi, *walked])
