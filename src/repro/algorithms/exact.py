"""Exact solvers for the NP-hard variants of Table 1.

These complement :mod:`repro.algorithms.brute_force` (which enumerates every
valid mapping and only scales to toy sizes) with *structured* exponential
searches that exploit the exchange arguments of the paper:

* :func:`pipeline_period_exact_blocks` — heterogeneous pipeline, period,
  no data-parallelism (the Theorem 9 NP-hard problem).  Enumerates the
  ``2^{n-1}`` interval partitions; for each, the processor side collapses:
  there is an optimal solution whose replication groups are consecutive
  blocks of the speed-sorted processors (unused processors slowest), and for
  fixed blocks the loads are matched to block capacities sorted-to-sorted.
* :func:`makespan_partition_exact` — exact ``P || Cmax`` branch-and-bound,
  the combinatorial core of the Theorem 12 fork-latency problem.
* :func:`fork_latency_exact_hom_platform` — heterogeneous fork on a
  homogeneous platform, latency, no data-parallelism: equals
  ``(w0 + Cmax) / s`` where ``Cmax`` is the optimal ``P || Cmax`` makespan
  of the branch works over ``p`` machines.
* thin guards around brute force for every other variant
  (:func:`pipeline_exact`, :func:`fork_exact`, :func:`forkjoin_exact`).

All of these have exponential worst cases — that is Table 1's point — but
the structured ones handle ``n, p`` up to ~12-14 comfortably, enough to
measure the scaling gap against the polynomial entries.
"""

from __future__ import annotations

from ..core.application import ForkApplication, PipelineApplication
from ..core.costs import FLOAT_TOL
from ..core.exceptions import InfeasibleProblemError, ReproError
from ..core.mapping import (
    AssignmentKind,
    ForkMapping,
    GroupAssignment,
    PipelineMapping,
)
from ..core.platform import Platform
from .brute_force import compositions, optimal as brute_optimal
from .budget import Budget
from .problem import Objective, ProblemSpec, Solution

__all__ = [
    "pipeline_exact",
    "fork_exact",
    "forkjoin_exact",
    "pipeline_period_exact_blocks",
    "makespan_partition_exact",
    "fork_latency_exact_hom_platform",
]

#: Size guards for the generic exact wrappers, per engine.  The pruned
#: branch-and-bound engine reaches noticeably further than flat enumeration,
#: and the MILP engine (optional backend) pushes the closed frontier to a
#: few tens of stages/processors.
_ENGINE_LIMITS = {"enumerate": 7, "bnb": 10, "milp": 30}


def _guard(n_stages: int, p: int, engine: str = "bnb",
           budget: Budget | None = None) -> None:
    if engine not in _ENGINE_LIMITS:
        raise ReproError(
            f"unknown exact engine {engine!r} (choose from "
            f"{sorted(_ENGINE_LIMITS)})"
        )
    if budget is not None and budget.is_bounded:
        # a bounded budget replaces the size guard: the solve terminates
        # by construction and returns an anytime incumbent on exhaustion
        return
    limit = _ENGINE_LIMITS[engine]
    if n_stages > limit or p > limit:
        raise ReproError(
            f"exact solving with engine {engine!r} is limited to {limit} "
            f"stages/processors (got n={n_stages}, p={p}); use the structured "
            "exact solvers or repro.heuristics for larger instances"
        )


def pipeline_exact(
    spec: ProblemSpec,
    objective: Objective,
    period_bound: float | None = None,
    latency_bound: float | None = None,
    engine: str = "bnb",
    context=None,
    budget: Budget | None = None,
) -> Solution:
    """Generic exact pipeline solution (any variant, small sizes).

    A bounded ``budget`` lifts the size guard: the solve terminates by
    construction, returning an anytime incumbent on exhaustion.
    """
    _guard(spec.application.n, spec.platform.p, engine, budget)
    return brute_optimal(
        spec, objective, period_bound, latency_bound, engine, context=context,
        budget=budget,
    )


def fork_exact(
    spec: ProblemSpec,
    objective: Objective,
    period_bound: float | None = None,
    latency_bound: float | None = None,
    engine: str = "bnb",
    context=None,
    budget: Budget | None = None,
) -> Solution:
    """Generic exact fork solution (any variant, small sizes).

    A bounded ``budget`` lifts the size guard: the solve terminates by
    construction, returning an anytime incumbent on exhaustion.
    """
    _guard(spec.application.n + 1, spec.platform.p, engine, budget)
    return brute_optimal(
        spec, objective, period_bound, latency_bound, engine, context=context,
        budget=budget,
    )


def forkjoin_exact(
    spec: ProblemSpec,
    objective: Objective,
    period_bound: float | None = None,
    latency_bound: float | None = None,
    engine: str = "bnb",
    context=None,
    budget: Budget | None = None,
) -> Solution:
    """Generic exact fork-join solution (any variant, small sizes).

    A bounded ``budget`` lifts the size guard: the solve terminates by
    construction, returning an anytime incumbent on exhaustion.
    """
    _guard(spec.application.n + 2, spec.platform.p, engine, budget)
    return brute_optimal(
        spec, objective, period_bound, latency_bound, engine, context=context,
        budget=budget,
    )


# ======================================================================
# Theorem 9 problem: heterogeneous pipeline, period, no data-parallelism
# ======================================================================
def pipeline_period_exact_blocks(
    app: PipelineApplication, platform: Platform
) -> Solution:
    """Exact period for a heterogeneous pipeline without data-parallelism.

    Search space after the exchange arguments:

    * stage side — all ``2^{n-1}`` partitions into ``q`` intervals
      (``q <= min(n, p)``), yielding interval loads;
    * processor side — consecutive blocks over speed-*descending*
      processors (a block's replication capacity is
      ``size * min_speed = size * last_speed``); unused processors are the
      slowest (any other solution can be exchanged into this form without
      increasing the period);
    * matching — for fixed loads and blocks, pairing sorted-descending
      loads with sorted-descending capacities minimizes the max ratio.

    Pruning: a partition is abandoned when its largest load divided by the
    best single-block capacity already exceeds the incumbent.
    """
    n, p = app.n, platform.p
    works = app.works
    order = platform.sorted_by_speed(descending=True)
    speeds_desc = [proc.speed for proc in order]

    # best capacity of a block of size k (a prefix block is fastest)
    best_cap = [0.0] * (p + 1)
    for k in range(1, p + 1):
        best_cap[k] = max(best_cap[k - 1], k * speeds_desc[k - 1])
    max_cap = best_cap[p]

    prefix = [0.0] * (n + 1)
    for i, w in enumerate(works):
        prefix[i + 1] = prefix[i] + w

    best_value = float("inf")
    best_plan: tuple | None = None

    def block_compositions(q: int):
        """Compositions (k_1..k_q) with sum <= p (used processors prefix)."""
        for used in range(q, p + 1):
            yield from compositions(used, q)

    for q in range(1, min(n, p) + 1):
        for comp in compositions(n, q):
            # interval loads, in stage order
            loads = []
            start = 0
            for length in comp:
                loads.append(prefix[start + length] - prefix[start])
                start += length
            max_load = max(loads)
            if max_load / max_cap >= best_value - FLOAT_TOL:
                continue  # even the best block cannot serve the heaviest load
            loads_sorted = sorted(range(q), key=lambda r: -loads[r])
            for sizes in block_compositions(q):
                # capacities of consecutive descending blocks
                caps = []
                pos = 0
                for k in sizes:
                    caps.append((k * speeds_desc[pos + k - 1], pos, k))
                    pos += k
                caps.sort(key=lambda c: -c[0])
                value = max(
                    loads[r] / caps[t][0] for t, r in enumerate(loads_sorted)
                )
                if value < best_value - FLOAT_TOL:
                    best_value = value
                    best_plan = (comp, loads_sorted, caps)

    assert best_plan is not None
    comp, loads_sorted, caps = best_plan
    # rebuild stage intervals
    intervals = []
    start = 1
    for length in comp:
        intervals.append(tuple(range(start, start + length)))
        start += length
    # assign each load its block
    assignment: dict[int, tuple[int, int]] = {}
    for t, r in enumerate(loads_sorted):
        _, pos, k = caps[t]
        assignment[r] = (pos, k)
    groups = []
    for r, stages in enumerate(intervals):
        pos, k = assignment[r]
        procs = tuple(sorted(order[t].index for t in range(pos, pos + k)))
        groups.append(
            GroupAssignment(
                stages=stages, processors=procs, kind=AssignmentKind.REPLICATED
            )
        )
    mapping = PipelineMapping(
        application=app, platform=platform, groups=tuple(groups)
    )
    return Solution.from_mapping(mapping, algorithm="exact-blocks")


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
