"""Fork on **homogeneous platforms** — Theorems 10 and 11.

* :func:`min_period` (Thm 10) — replicating *all* stages (root included) as
  one group over all processors reaches the aggregate-capacity lower bound
  :math:`(w_0 + \\sum w_i)/(p s)`; optimal for any fork, with or without
  data-parallelism.
* :func:`min_latency` / :func:`min_latency_given_period` /
  :func:`min_period_given_latency` (Thm 11) — polynomial for a
  **homogeneous fork** (equal branch works; the root may differ).  The
  optimal mapping is described by: the root group (holding :math:`S_0` and
  ``n0`` branches, replicated — or :math:`\\{S_0\\}` alone, possibly
  data-parallel), plus the remaining branches either in one data-parallel
  group (when data-parallelism is allowed: a single group dominates any
  split for both criteria on identical processors) or partitioned into
  replicated groups (found by a knapsack-style DP under the period bound).

For a **heterogeneous fork** the latency problem is NP-hard even here
(Theorem 12): the latency functions raise
:class:`UnsupportedVariantError`; use :mod:`repro.algorithms.exact`.
"""

from __future__ import annotations

from ..core.application import ForkApplication
from ..core.costs import FLOAT_TOL
from ..core.exceptions import (
    InfeasibleProblemError,
    UnsupportedVariantError,
)
from ..core.mapping import AssignmentKind, ForkMapping, GroupAssignment
from ..core.platform import Platform
from .problem import Solution
from .search import ceil_div_tol, smallest_feasible, unique_sorted

__all__ = [
    "min_period",
    "min_latency",
    "min_latency_given_period",
    "min_period_given_latency",
]

INF = float("inf")


def _require_homogeneous_platform(platform: Platform) -> float:
    if not platform.is_homogeneous:
        raise UnsupportedVariantError(
            "this module implements the Homogeneous-platform fork algorithms "
            "(Theorems 10-11); use repro.algorithms.fork_het_platform (hom. "
            "fork) or repro.algorithms.exact (het. fork)"
        )
    return platform.processors[0].speed


def _require_homogeneous_fork(app: ForkApplication) -> tuple[float, float]:
    if not app.is_homogeneous:
        raise UnsupportedVariantError(
            "Theorem 11 requires a homogeneous fork (equal branch works); "
            "latency minimization for heterogeneous forks is NP-hard "
            "(Theorem 12) — use repro.algorithms.exact or repro.heuristics"
        )
    return app.root.work, app.branches[0].work


def min_period(
    app: ForkApplication, platform: Platform, allow_data_parallel: bool = True
) -> Solution:
    """Theorem 10: replicate everything on all processors (any fork)."""
    _require_homogeneous_platform(platform)
    del allow_data_parallel  # optimal either way (Lemma 1)
    group = GroupAssignment(
        stages=tuple(range(app.n + 1)),
        processors=tuple(range(platform.p)),
        kind=AssignmentKind.REPLICATED,
    )
    mapping = ForkMapping(application=app, platform=platform, groups=(group,))
    return Solution.from_mapping(mapping, algorithm="thm10-replicate-all")


# ----------------------------------------------------------------------
# Theorem 11 machinery
# ----------------------------------------------------------------------
class _Plan:
    """A candidate optimal structure: root group + rest groups."""

    __slots__ = ("latency", "n0", "q0", "root_kind", "rest")

    def __init__(self, latency, n0, q0, root_kind, rest):
        self.latency = latency
        self.n0 = n0  # branches co-located with the root
        self.q0 = q0  # processors of the root group
        self.root_kind = root_kind
        # rest: list of (branch_count, proc_count, kind)
        self.rest = rest


def _rest_dp(
    n: int, p: int, w: float, s: float, period_bound: float
) -> tuple[list[list[float]], dict]:
    """``D[i][q]`` = min max-delay for ``i`` identical branches on ``q``
    processors, split into replicated groups of period <= bound.

    A group of ``m`` branches needs ``k = ceil(m w / (K s))`` processors to
    meet the bound and has delay ``m w / s`` whatever ``k`` is, so only the
    minimal ``k`` is considered.  ``O(n^2 p)``.  The fork-join DPs of
    :mod:`repro.algorithms.forkjoin` share it.
    """
    D = [[INF] * (p + 1) for _ in range(n + 1)]
    back: dict[tuple[int, int], tuple[int, int]] = {}
    for q in range(p + 1):
        D[0][q] = 0.0
    # the processor count of a group of m branches, for every m
    ks = [0] + [
        1 if period_bound == INF
        else max(1, ceil_div_tol(m * w, period_bound * s))
        for m in range(1, n + 1)
    ]
    for i in range(1, n + 1):
        for q in range(1, p + 1):
            best, arg = INF, None
            for m in range(1, i + 1):
                k = ks[m]
                if k > q:
                    continue
                prev = D[i - m][q - k]
                if prev == INF:
                    continue
                cand = max(m * w / s, prev)
                if cand < best - FLOAT_TOL:
                    best, arg = cand, (m, k)
            D[i][q] = best
            if arg is not None:
                back[(i, q)] = arg
    return D, back


def _rest_groups_from_dp(back: dict, i: int, q: int) -> list[tuple[int, int]]:
    groups = []
    while i > 0:
        m, k = back[(i, q)]
        groups.append((m, k))
        i, q = i - m, q - k
    return groups


def _require_zero_dp_overhead(app: ForkApplication) -> None:
    if any(stage.dp_overhead > 0 for stage in app.all_stages):
        raise UnsupportedVariantError(
            "the Theorem 11/14 closed forms assume the paper's simplified "
            "model (zero Amdahl overhead f_i); with overheads a single "
            "data-parallel group no longer dominates — use "
            "repro.algorithms.brute_force for small instances"
        )


def _best_plan(
    app: ForkApplication,
    platform: Platform,
    period_bound: float,
    allow_data_parallel: bool,
) -> _Plan | None:
    """Enumerate the optimal structures of Theorem 11 under a period bound."""
    if allow_data_parallel:
        _require_zero_dp_overhead(app)
    s = platform.processors[0].speed
    w0, w = _require_homogeneous_fork(app)
    n, p = app.n, platform.p
    K = period_bound
    best: _Plan | None = None

    def consider(plan: _Plan) -> None:
        nonlocal best
        if best is None or plan.latency < best.latency - FLOAT_TOL:
            best = plan

    if allow_data_parallel:
        # the remaining branches always form a single data-parallel group:
        # merging data-parallel groups improves both criteria on identical
        # processors, and a data-parallel group dominates a replicated one.
        # (a) root replicated together with n0 branches on minimal q0
        for n0 in range(n + 1):
            root_work = w0 + n0 * w
            q0 = 1 if K == INF else max(1, ceil_div_tol(root_work, K * s))
            if q0 > p:
                continue
            rest = n - n0
            if rest == 0:
                consider(_Plan(root_work / s, n0, q0, AssignmentKind.REPLICATED, []))
                continue
            qr = p - q0
            if qr < 1:
                continue
            rest_cost = rest * w / (qr * s)
            if rest_cost > K * (1 + FLOAT_TOL):
                continue
            latency = max(root_work / s, w0 / s + rest_cost)
            consider(
                _Plan(
                    latency, n0, q0, AssignmentKind.REPLICATED,
                    [(rest, qr, AssignmentKind.DATA_PARALLEL)],
                )
            )
        # (b) root alone, data-parallel on q0 processors
        for q0 in range(1, p):
            t0 = w0 / (q0 * s)
            if t0 > K * (1 + FLOAT_TOL):
                continue
            qr = p - q0
            rest_cost = n * w / (qr * s)
            if rest_cost > K * (1 + FLOAT_TOL):
                continue
            consider(
                _Plan(
                    t0 + rest_cost, 0, q0, AssignmentKind.DATA_PARALLEL,
                    [(n, qr, AssignmentKind.DATA_PARALLEL)],
                )
            )
        return best

    # without data-parallelism: knapsack DP for the remaining branches
    D, back = _rest_dp(n, p, w, s, K)
    for n0 in range(n + 1):
        root_work = w0 + n0 * w
        q0 = 1 if K == INF else max(1, ceil_div_tol(root_work, K * s))
        if q0 > p:
            continue
        rest = n - n0
        if rest == 0:
            consider(_Plan(root_work / s, n0, q0, AssignmentKind.REPLICATED, []))
            continue
        d = D[rest][p - q0] if p - q0 >= 0 else INF
        if d == INF:
            continue
        latency = max(root_work / s, w0 / s + d)
        rest_groups = [
            (m, k, AssignmentKind.REPLICATED)
            for m, k in _rest_groups_from_dp(back, rest, p - q0)
        ]
        consider(_Plan(latency, n0, q0, AssignmentKind.REPLICATED, rest_groups))
    return best


def _mapping_from_plan(
    app: ForkApplication, platform: Platform, plan: _Plan
) -> ForkMapping:
    groups: list[GroupAssignment] = []
    next_branch, next_proc = 1, 0

    root_stages: list[int] = [0]
    root_stages += list(range(next_branch, next_branch + plan.n0))
    next_branch += plan.n0
    groups.append(
        GroupAssignment(
            stages=tuple(root_stages),
            processors=tuple(range(next_proc, next_proc + plan.q0)),
            kind=plan.root_kind,
        )
    )
    next_proc += plan.q0
    for count, k, kind in plan.rest:
        groups.append(
            GroupAssignment(
                stages=tuple(range(next_branch, next_branch + count)),
                processors=tuple(range(next_proc, next_proc + k)),
                kind=kind,
            )
        )
        next_branch += count
        next_proc += k
    return ForkMapping(application=app, platform=platform, groups=tuple(groups))


def min_latency_given_period(
    app: ForkApplication,
    platform: Platform,
    period_bound: float,
    allow_data_parallel: bool = True,
) -> Solution:
    """Theorem 11: minimize latency subject to a period bound (hom fork)."""
    _require_homogeneous_platform(platform)
    plan = _best_plan(
        app, platform, period_bound * (1 + FLOAT_TOL), allow_data_parallel
    )
    if plan is None:
        raise InfeasibleProblemError(
            f"no mapping achieves period <= {period_bound}"
        )
    mapping = _mapping_from_plan(app, platform, plan)
    return Solution.from_mapping(mapping, algorithm="thm11-dp")


def min_latency(
    app: ForkApplication,
    platform: Platform,
    allow_data_parallel: bool = True,
) -> Solution:
    """Theorem 11: optimal latency of a homogeneous fork, hom. platform."""
    _require_homogeneous_platform(platform)
    plan = _best_plan(app, platform, INF, allow_data_parallel)
    assert plan is not None  # unconstrained problem is always feasible
    mapping = _mapping_from_plan(app, platform, plan)
    return Solution.from_mapping(mapping, algorithm="thm11-dp")


def _period_candidates(
    app: ForkApplication, platform: Platform
) -> list[float]:
    s = platform.processors[0].speed
    w0, w = app.root.work, app.branches[0].work
    n, p = app.n, platform.p
    values = []
    for k in range(1, p + 1):
        values.append(w0 / (k * s))  # root alone (maybe data-parallel)
        for a in range(n + 1):
            values.append((w0 + a * w) / (k * s))
        for m in range(1, n + 1):
            values.append(m * w / (k * s))
    return unique_sorted(values)


def min_period_given_latency(
    app: ForkApplication,
    platform: Platform,
    latency_bound: float,
    allow_data_parallel: bool = True,
) -> Solution:
    """Theorem 11 (converse): minimize period subject to a latency bound."""
    _require_homogeneous_platform(platform)
    _require_homogeneous_fork(app)

    def feasible(period: float) -> bool:
        plan = _best_plan(
            app, platform, period * (1 + FLOAT_TOL), allow_data_parallel
        )
        return plan is not None and plan.latency <= latency_bound * (1 + FLOAT_TOL)

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
        meta={"algorithm": "thm11-binary-search"},
    )
