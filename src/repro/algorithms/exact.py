"""Exact solvers for the NP-hard variants of Table 1.

* :func:`guarded_optimal` — the exact solve of every NP-hard cell: the
  engine the caller names (:func:`repro.algorithms.brute_force.optimal`)
  behind a size guard that refuses instances past that engine's measured
  reach for the instance's graph kind and criterion.
* :func:`makespan_partition_exact` — exact ``P || Cmax`` branch-and-bound,
  the combinatorial core of the Theorem 12 fork-latency problem.
* :func:`fork_latency_exact_hom_platform` — heterogeneous fork on a
  homogeneous platform, latency, no data-parallelism: equals
  ``(w0 + Cmax) / s`` where ``Cmax`` is the optimal ``P || Cmax`` makespan
  of the branch works over ``p`` machines.  This structured reduction is
  10^3-10^5x faster than the generic engines on its cell.

All of these have exponential worst cases — that is Table 1's point.
"""

from __future__ import annotations

from ..core.application import ForkApplication
from ..core.costs import FLOAT_TOL
from ..core.exceptions import InfeasibleProblemError, ReproError
from ..core.mapping import AssignmentKind, ForkMapping, GroupAssignment
from ..core.platform import Platform
from .brute_force import optimal as brute_optimal
from .budget import Budget
from .problem import ENGINES, GraphKind, Objective, ProblemSpec, Solution

__all__ = [
    "guarded_optimal",
    "makespan_partition_exact",
    "fork_latency_exact_hom_platform",
]

#: Unbudgeted size guards: the largest ``(stages, processors)`` corner an
#: engine is allowed to search, keyed by ``(engine, graph kind,
#: criterion)`` with criterion ``"period"``, ``"latency"`` or
#: ``"bicriteria"``; the ``(engine, None, None)`` entry is the
#: engine-wide default.  bnb closes each single-criterion corner below in
#: about a second: pipeline periods reach n = 16, while pipeline latency
#: with data parallelism (7-16 s at n = p = 10), fork latency (4.9 s
#: at n = 9, p = 8) and fork-join latency (up to 3.8 s with data
#: parallelism at 8 x 7 and 7 x 8) stop inside the default.  Bi-criteria
#: solves (up to 6 s at n = 12-14, p = 10) keep the default.
#: ``BENCH_exact.json``
#: records a gap-0 solve at every bnb corner (its ``guard`` section).
_ENGINE_LIMITS: dict[tuple, tuple[int, int]] = {
    ("enumerate", None, None): (7, 7),
    ("bnb", None, None): (10, 10),
    ("bnb", GraphKind.PIPELINE, "period"): (16, 10),
    ("bnb", GraphKind.PIPELINE, "latency"): (9, 8),
    ("bnb", GraphKind.FORK, "latency"): (8, 8),
    ("bnb", GraphKind.FORK_JOIN, "latency"): (7, 7),
    ("milp", None, None): (30, 30),
}

#: Stages a graph has beyond its ``application.n`` (fork root, join).
_EXTRA_STAGES = {
    GraphKind.PIPELINE: 0, GraphKind.FORK: 1, GraphKind.FORK_JOIN: 2,
}


def _criterion(
    objective: Objective,
    period_bound: float | None,
    latency_bound: float | None,
) -> str:
    """The guard's criterion key: the objective, or ``"bicriteria"`` when
    the other criterion carries a bound."""
    other = latency_bound if objective is Objective.PERIOD else period_bound
    return objective.value if other is None else "bicriteria"


def guarded_optimal(
    spec: ProblemSpec,
    objective: Objective,
    period_bound: float | None = None,
    latency_bound: float | None = None,
    engine: str = "bnb",
    context=None,
    budget: Budget | None = None,
) -> Solution:
    """Exact optimum through ``engine``, refused past the engine's reach.

    The stage count includes a fork's root and a fork-join's join.  A
    bounded ``budget`` lifts the size guard: the solve terminates by
    construction, returning an anytime incumbent on exhaustion.
    """
    if engine not in ENGINES:
        raise ReproError(
            f"unknown exact engine {engine!r} (choose from {list(ENGINES)})"
        )
    crit = _criterion(objective, period_bound, latency_bound)
    max_n, max_p = _ENGINE_LIMITS.get(
        (engine, spec.graph_kind, crit), _ENGINE_LIMITS[(engine, None, None)]
    )
    n = spec.application.n + _EXTRA_STAGES[spec.graph_kind]
    p = spec.platform.p
    if (budget is None or not budget.is_bounded) and (n > max_n or p > max_p):
        size = (f"{max_n} stages/processors" if max_n == max_p
                else f"{max_n} stages/{max_p} processors")
        raise ReproError(
            f"exact solving with engine {engine!r} is limited to {size} "
            f"on {spec.graph_kind.value} {crit} solves (got n={n}, p={p}); "
            "pass a budget for an anytime incumbent, or use repro.heuristics"
        )
    return brute_optimal(
        spec, objective, period_bound, latency_bound, engine, context=context,
        budget=budget,
    )


# ======================================================================
# Theorem 12 problem: P || Cmax and the het-fork latency on hom platforms
# ======================================================================
def makespan_partition_exact(
    works: list[float], machines: int
) -> tuple[float, list[list[int]]]:
    """Exact ``P || Cmax``: partition ``works`` over identical machines.

    Branch-and-bound over items sorted descending, with the classic bounds
    (average load, largest item, incumbent) and empty-machine symmetry
    breaking.  Returns ``(makespan, assignment)`` where ``assignment[m]``
    lists item indices of machine ``m``.  Practical up to ~20 items.
    """
    if machines < 1:
        raise ReproError("need at least one machine")
    items = sorted(range(len(works)), key=lambda i: -works[i])
    total = sum(works)

    best_value = float("inf")
    best_assign: list[list[int]] | None = None
    loads = [0.0] * machines
    assign: list[list[int]] = [[] for _ in range(machines)]

    def recurse(idx: int, remaining: float) -> None:
        nonlocal best_value, best_assign
        if idx == len(items):
            value = max(loads) if loads else 0.0
            if value < best_value - FLOAT_TOL:
                best_value = value
                best_assign = [list(m) for m in assign]
            return
        current_max = max(loads)
        # bound: even spreading the rest perfectly cannot beat the incumbent
        bound = max(current_max, (sum(loads) + remaining) / machines)
        if bound >= best_value - FLOAT_TOL:
            return
        item = items[idx]
        seen_empty = False
        for m in range(machines):
            if loads[m] == 0.0:
                if seen_empty:
                    continue  # symmetry: all empty machines are equivalent
                seen_empty = True
            if loads[m] + works[item] >= best_value - FLOAT_TOL:
                continue
            loads[m] += works[item]
            assign[m].append(item)
            recurse(idx + 1, remaining - works[item])
            assign[m].pop()
            loads[m] -= works[item]

    recurse(0, total)
    if best_assign is None:  # pragma: no cover - max(works) always feasible
        raise InfeasibleProblemError("makespan search failed")
    return best_value, best_assign


def fork_latency_exact_hom_platform(
    app: ForkApplication, platform: Platform
) -> Solution:
    """Exact latency of a (heterogeneous) fork on a homogeneous platform,
    without data-parallelism — the Theorem 12 NP-hard problem.

    On identical processors the latency of any no-data-parallel mapping is
    ``(w0 + max_group branch_load) / s`` (the root group pays its branches
    after ``w0``; every other group starts at ``w0/s``), so the problem is
    exactly ``P || Cmax`` on the branch works with ``p`` machines — one of
    which also hosts the root.
    """
    if not platform.is_homogeneous:
        raise ReproError("this exact solver requires a homogeneous platform")
    s = platform.processors[0].speed
    works = list(app.branch_works)
    cmax, assignment = makespan_partition_exact(works, platform.p)
    groups = []
    used_proc = 0
    root_placed = False
    for m, item_indices in enumerate(assignment):
        if not item_indices and (root_placed or m > 0):
            continue
        stages = sorted(i + 1 for i in item_indices)
        if not root_placed:
            stages = [0, *stages]
            root_placed = True
        groups.append(
            GroupAssignment(
                stages=tuple(stages),
                processors=(used_proc,),
                kind=AssignmentKind.REPLICATED,
            )
        )
        used_proc += 1
    mapping = ForkMapping(
        application=app, platform=platform, groups=tuple(groups)
    )
    solution = Solution.from_mapping(mapping, algorithm="exact-pcmax")
    expected = (app.root.work + cmax) / s
    if abs(solution.latency - expected) > FLOAT_TOL * max(1.0, expected):
        raise ReproError(
            f"internal: latency mismatch {solution.latency} vs {expected}"
        )
    return solution
