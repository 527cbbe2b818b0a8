"""Bi-criteria trade-off curves (period vs latency).

The paper studies bi-criteria optimization as "minimize latency under a
period threshold" (and the converse).  Sweeping the threshold over the
achievable periods traces the Pareto front of a problem instance, which the
examples plot as text.

The sweep executes through the campaign runner
(:mod:`repro.campaign.runner`): the two extreme solves and the whole
threshold batch become content-addressed tasks, so a :class:`ResultCache`
makes repeat or overlapping fronts (e.g. the same instance at different
resolutions, or a re-run after a crash) resolve without re-solving, and
``workers=N`` fans the independent threshold solves out to processes.
"""

from __future__ import annotations

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
    workers: int = 0,
    context_cache=None,
) -> list[Solution]:
    """Non-dominated (period, latency) solutions of an instance.

    Strategy: find the two extreme solutions (min period; min latency),
    then sweep period thresholds between them (geometric grid) and solve
    "min latency s.t. period <= K" at each; dominated points are dropped.
    Exact for the polynomial variants; uses the exponential exact solvers
    when ``exact_fallback`` is set, searched by ``engine`` (the pruned
    branch-and-bound default reaches well past the flat enumerator's old
    size limits).  ``cache`` (a :class:`repro.campaign.ResultCache`) and
    ``workers`` thread through to the campaign runner.

    The sweep is *context-aware*: one
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

    # two tasks never amortize a process pool: resolve the extremes
    # serially, save the fan-out for the threshold sweep below
    extremes = execute_tasks(
        [_task(0, Objective.PERIOD), _task(1, Objective.LATENCY)],
        cache=cache, workers=0, context_cache=context_cache,
    )
    for row in extremes:
        if row["status"] != "ok":
            _raise_row_error(row)
    lo, hi = (_solution_from_row(row) for row in extremes)

    thresholds = threshold_grid(lo.period, max(hi.period, lo.period),
                                num_points)

    sweep = execute_tasks(
        [
            _task(i, Objective.LATENCY, period_bound=bound * (1 + FLOAT_TOL))
            for i, bound in enumerate(thresholds)
        ],
        cache=cache, workers=workers, context_cache=context_cache,
    )

    candidates: list[Solution] = [lo, hi]
    for row in sweep:
        if row["status"] != "ok":
            if row.get("error_type") == "InfeasibleProblemError":
                continue
            _raise_row_error(row)
        candidates.append(_solution_from_row(row))
    # a full non-domination pass over every candidate: filtering against
    # front[-1] alone is wrong — a later (larger) threshold can admit a
    # solution with both smaller period and smaller latency than an
    # earlier point, which must then be evicted from the front
    return non_dominated(candidates)
