"""Pipeline on **homogeneous platforms** — Theorems 1-4 and Corollary 1.

All four objectives are polynomial here:

* :func:`min_period` (Thm 1) — replicating the whole pipeline as a single
  interval over all processors reaches the absolute lower bound
  :math:`\\sum_i w_i / \\sum_u s_u = W / (p s)`; data-parallelism cannot beat
  it (Lemma 1).
* :func:`min_latency_no_dp` (Thm 2) — without data-parallelism every mapping
  has latency :math:`W / s`; with Corollary 1, replicate-all minimizes both
  criteria at once.
* :func:`min_latency_with_dp` (Thm 3) — dynamic programming choosing which
  single stages to data-parallelize and with how many processors.
* :func:`min_latency_given_period` / :func:`min_period_given_latency`
  (Thm 4) — the bi-criteria problems, solved by the same DP with a period
  bound, plus an exact candidate-value search for the converse direction.

The DP implemented here is a *suffix* formulation (state = first remaining
stage, processors left) that is equivalent to the interval recurrences
printed in the paper; the printed Thm 3 recurrence does not conserve the
processor count around a middle data-parallel stage (see DESIGN.md errata),
so we validate this formulation exhaustively against brute force instead of
transcribing it literally.
"""

from __future__ import annotations

from ..core.application import PipelineApplication
from ..core.costs import FLOAT_TOL
from ..core.exceptions import (
    InfeasibleProblemError,
    UnsupportedVariantError,
)
from ..core.mapping import AssignmentKind, GroupAssignment, PipelineMapping
from ..core.platform import Platform
from .problem import Solution
from .search import ceil_div_tol, smallest_feasible, unique_sorted

__all__ = [
    "min_period",
    "min_latency_no_dp",
    "min_bicriteria_no_dp",
    "min_latency_with_dp",
    "min_latency_given_period",
    "min_period_given_latency",
    "pareto_front",
]


def _require_homogeneous(platform: Platform) -> float:
    if not platform.is_homogeneous:
        raise UnsupportedVariantError(
            "this module implements the Homogeneous-platform algorithms "
            "(Theorems 1-4); use repro.algorithms.pipeline_het_platform or "
            "repro.algorithms.exact for heterogeneous platforms"
        )
    return platform.processors[0].speed


def _replicate_all(app: PipelineApplication, platform: Platform) -> Solution:
    group = GroupAssignment(
        stages=tuple(range(1, app.n + 1)),
        processors=tuple(range(platform.p)),
        kind=AssignmentKind.REPLICATED,
    )
    mapping = PipelineMapping(application=app, platform=platform, groups=(group,))
    return Solution.from_mapping(mapping, algorithm="thm1-replicate-all")


def min_period(
    app: PipelineApplication, platform: Platform, allow_data_parallel: bool = True
) -> Solution:
    """Theorem 1: optimal period on a homogeneous platform.

    Replicate the single interval of all stages onto all processors; the
    period :math:`W/(p s)` matches the aggregate-capacity lower bound, so it
    is optimal with or without data-parallelism.
    """
    _require_homogeneous(platform)
    del allow_data_parallel  # optimal either way (Lemma 1)
    return _replicate_all(app, platform)


def min_latency_no_dp(app: PipelineApplication, platform: Platform) -> Solution:
    """Theorem 2: without data-parallelism every mapping has latency W/s."""
    _require_homogeneous(platform)
    return _replicate_all(app, platform)


def min_bicriteria_no_dp(app: PipelineApplication, platform: Platform) -> Solution:
    """Corollary 1: replicate-all minimizes period *and* latency at once."""
    _require_homogeneous(platform)
    return _replicate_all(app, platform)


# ----------------------------------------------------------------------
# Theorems 3-4: the latency DP (optionally under a period bound)
# ----------------------------------------------------------------------
def _latency_dp(
    app: PipelineApplication,
    platform: Platform,
    period_bound: float | None,
    allow_data_parallel: bool,
) -> tuple[float, list[GroupAssignment]] | None:
    """Core DP shared by Theorems 3 and 4.

    ``L[i][q]`` = minimal latency for stages ``i..n-1`` (0-based) using at
    most ``q`` processors, with every group period at most ``period_bound``
    (no constraint when ``None``).  Returns ``(latency, groups)`` or ``None``
    when infeasible.

    Transitions from ``(i, q)``:

    * make ``i..e`` a replicated interval — its latency ``W/s`` does not
      depend on the processor count, so it takes the *minimum* count that
      meets the period bound, ``k = max(1, ceil(W/(K s)))``;
    * (if allowed) data-parallelize stage ``i`` on ``q' >= 2`` processors —
      latency and period both ``w_i / (q' s)``.

    Complexity ``O(n p (n + p))``.
    """
    s = platform.processors[0].speed
    n, p = app.n, platform.p
    works = app.works
    prefix = [0.0] * (n + 1)
    for i, w in enumerate(works):
        prefix[i + 1] = prefix[i] + w

    INF = float("inf")
    L = [[INF] * (p + 1) for _ in range(n + 1)]
    choice: dict[tuple[int, int], tuple[str, int, int]] = {}
    for q in range(p + 1):
        L[n][q] = 0.0

    for i in range(n - 1, -1, -1):
        # the intervals i..e (end, delay W/s, processor count) and the
        # data-parallel costs of stage i do not depend on q: build them once
        intervals = []
        for e in range(i, n):
            work = prefix[e + 1] - prefix[i]
            if period_bound is None:
                k = 1
            else:
                k = max(1, ceil_div_tol(work, period_bound * s))
            if k <= p:
                intervals.append((e, work / s, k))
        dp_costs = []
        if allow_data_parallel:
            w_i = works[i]
            f_i = app.stages[i].dp_overhead
            for q2 in range(2, p + 1):
                cost = f_i + w_i / (q2 * s)
                if period_bound is None or cost <= period_bound:
                    dp_costs.append((q2, cost))
        for q in range(1, p + 1):
            best = INF
            best_choice: tuple[str, int, int] | None = None
            for e, delay, k in intervals:
                if k > q:
                    continue
                cand = delay + L[e + 1][q - k]
                if cand < best - FLOAT_TOL:
                    best = cand
                    best_choice = ("replicate", e, k)
            for q2, cost in dp_costs:
                if q2 > q:
                    break
                cand = cost + L[i + 1][q - q2]
                if cand < best - FLOAT_TOL:
                    best = cand
                    best_choice = ("data-parallel", i, q2)
            L[i][q] = best
            if best_choice is not None:
                choice[(i, q)] = best_choice

    if L[0][p] == INF:
        return None

    # reconstruct groups, assigning processor indices in order
    groups: list[GroupAssignment] = []
    i, q, next_proc = 0, p, 0
    while i < n:
        kind, arg, k = choice[(i, q)]
        procs = tuple(range(next_proc, next_proc + k))
        next_proc += k
        if kind == "replicate":
            e = arg
            groups.append(
                GroupAssignment(
                    stages=tuple(range(i + 1, e + 2)),
                    processors=procs,
                    kind=AssignmentKind.REPLICATED,
                )
            )
            i, q = e + 1, q - k
        else:
            groups.append(
                GroupAssignment(
                    stages=(i + 1,),
                    processors=procs,
                    kind=AssignmentKind.DATA_PARALLEL,
                )
            )
            i, q = i + 1, q - k
    return L[0][p], groups


def min_latency_with_dp(app: PipelineApplication, platform: Platform) -> Solution:
    """Theorem 3: optimal latency with data-parallelism, O(n p (n + p)) DP."""
    _require_homogeneous(platform)
    result = _latency_dp(app, platform, period_bound=None, allow_data_parallel=True)
    assert result is not None  # unconstrained DP is always feasible
    _, groups = result
    mapping = PipelineMapping(application=app, platform=platform, groups=tuple(groups))
    return Solution.from_mapping(mapping, algorithm="thm3-dp")


def min_latency_given_period(
    app: PipelineApplication,
    platform: Platform,
    period_bound: float,
    allow_data_parallel: bool = True,
) -> Solution:
    """Theorem 4 (first direction): minimize latency s.t. period <= bound."""
    _require_homogeneous(platform)
    result = _latency_dp(
        app,
        platform,
        period_bound=period_bound * (1 + FLOAT_TOL),
        allow_data_parallel=allow_data_parallel,
    )
    if result is None:
        raise InfeasibleProblemError(
            f"no mapping achieves period <= {period_bound}"
        )
    _, groups = result
    mapping = PipelineMapping(application=app, platform=platform, groups=tuple(groups))
    return Solution.from_mapping(mapping, algorithm="thm4-dp")


def _period_candidates(
    app: PipelineApplication, platform: Platform
) -> list[float]:
    """All achievable group-period values: replicated intervals
    ``W(i..e) / (k s)`` plus data-parallel singletons ``f_i + w_i / (k s)``
    (the latter only differ when Amdahl overheads are present)."""
    s = platform.processors[0].speed
    n, p = app.n, platform.p
    works = app.works
    values = []
    for i in range(n):
        work = 0.0
        for e in range(i, n):
            work += works[e]
            for k in range(1, p + 1):
                values.append(work / (k * s))
        f_i = app.stages[i].dp_overhead
        if f_i > 0:
            for k in range(2, p + 1):
                values.append(f_i + works[i] / (k * s))
    return unique_sorted(values)


def min_period_given_latency(
    app: PipelineApplication,
    platform: Platform,
    latency_bound: float,
    allow_data_parallel: bool = True,
) -> Solution:
    """Theorem 4 (second direction): minimize period s.t. latency <= bound.

    Exact binary search over the finite set of achievable group periods,
    using the Theorem 4 DP as the feasibility test.
    """
    _require_homogeneous(platform)

    def feasible(period: float) -> bool:
        result = _latency_dp(
            app,
            platform,
            period_bound=period * (1 + FLOAT_TOL),
            allow_data_parallel=allow_data_parallel,
        )
        return result is not None and result[0] <= latency_bound * (1 + FLOAT_TOL)

    period = smallest_feasible(
        _period_candidates(app, platform), feasible, what="period"
    )
    solution = min_latency_given_period(
        app, platform, period, allow_data_parallel
    )
    return Solution(
        mapping=solution.mapping,
        period=solution.period,
        latency=solution.latency,
        meta={"algorithm": "thm4-binary-search"},
    )


def pareto_front(
    app: PipelineApplication,
    platform: Platform,
    allow_data_parallel: bool = True,
) -> list[Solution]:
    """Non-dominated (period, latency) trade-off curve (Theorem 4 sweeps).

    One DP run per candidate period; dominated points are filtered out.
    """
    _require_homogeneous(platform)
    front: list[Solution] = []
    for period in _period_candidates(app, platform):
        try:
            sol = min_latency_given_period(app, platform, period, allow_data_parallel)
        except InfeasibleProblemError:
            continue
        if front and sol.latency >= front[-1].latency - FLOAT_TOL:
            continue
        front.append(sol)
    return front
