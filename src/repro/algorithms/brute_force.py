"""Exhaustive optimal solvers — the reference every algorithm is tested against.

:func:`optimal` is the exact ground-truth entry point.  By default it routes
through the pruned branch-and-bound engine (:mod:`repro.algorithms.bnb`),
which extends exact solving to roughly ``n = p = 10`` (pipeline periods
to ``n = 16``, ``p = 10``; pipeline and fork latency to ``p = 8``); pass
``engine="enumerate"`` for the historical flat enumeration, kept as
:func:`optimal_enumerated` because its very naivety makes it the trusted
oracle for the engine-equivalence property tests.

The enumerators below yield *all* valid mappings of an instance
(Section 3.4 rules).  The space is exponential in both the number of stages
and the number of processors, so flat enumeration is only usable for tiny
instances (roughly ``n <= 6``, ``p <= 6``).

Enumeration notes
-----------------
* Pipeline groups are the compositions of ``[1..n]`` into intervals; fork
  groups are the set partitions of ``{0..n}``.
* Processor sets: every assignment of disjoint non-empty subsets to groups.
  Unused processors are allowed (the paper never requires using everybody).
* A data-parallel group on one processor has exactly the costs of a
  replicated group on that processor, so single-processor groups are only
  enumerated as replicated — this halves the kind space without losing any
  optimal value.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence

from ..core.application import (
    ForkApplication,
    ForkJoinApplication,
    PipelineApplication,
)
from ..core.costs import FLOAT_TOL, evaluate
from ..core.exceptions import InfeasibleProblemError, ReproError
from ..core.mapping import (
    AssignmentKind,
    ForkJoinMapping,
    ForkMapping,
    GroupAssignment,
    PipelineMapping,
)
from ..core.validation import is_valid
from .budget import CHECK_EVERY, Budget, BudgetExhaustedError, BudgetMeter
from .problem import ENGINES, Objective, ProblemSpec, Solution

__all__ = [
    "compositions",
    "set_partitions",
    "processor_assignments",
    "enumerate_pipeline_mappings",
    "enumerate_fork_mappings",
    "enumerate_forkjoin_mappings",
    "enumerate_mappings",
    "optimal",
    "optimal_enumerated",
]


# ----------------------------------------------------------------------
# combinatorial generators
# ----------------------------------------------------------------------
def compositions(n: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All compositions of ``n`` into exactly ``parts`` positive integers."""
    if parts == 1:
        yield (n,)
        return
    for first in range(1, n - parts + 2):
        for rest in compositions(n - first, parts - 1):
            yield (first, *rest)


def set_partitions(items: Sequence[int], blocks: int) -> Iterator[list[list[int]]]:
    """All partitions of ``items`` into exactly ``blocks`` non-empty sets.

    Standard restricted-growth enumeration; blocks come out in order of
    their smallest element, so no partition is produced twice.
    """
    items = list(items)
    if blocks < 1 or blocks > len(items):
        return

    def recurse(idx: int, groups: list[list[int]]) -> Iterator[list[list[int]]]:
        remaining = len(items) - idx
        if idx == len(items):
            if len(groups) == blocks:
                yield [list(g) for g in groups]
            return
        # prune: we can open at most `remaining` new groups
        if len(groups) + remaining < blocks:
            return
        item = items[idx]
        for group in groups:
            group.append(item)
            yield from recurse(idx + 1, groups)
            group.pop()
        if len(groups) < blocks:
            groups.append([item])
            yield from recurse(idx + 1, groups)
            groups.pop()

    yield from recurse(0, [])


def processor_assignments(
    p: int, groups: int
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All ways to give each of ``groups`` a non-empty set of processors.

    Sets are disjoint; processors may remain unused.  Implemented as a
    coloring of processors with ``{unused, 1..groups}`` filtered to
    assignments where every group is non-empty.
    """
    if groups > p:
        return
    for coloring in itertools.product(range(groups + 1), repeat=p):
        sets: list[list[int]] = [[] for _ in range(groups)]
        for proc, color in enumerate(coloring):
            if color > 0:
                sets[color - 1].append(proc)
        if all(sets):
            yield tuple(tuple(s) for s in sets)


def _kind_choices(
    group_sizes: Sequence[int],
    proc_counts: Sequence[int],
    allow_dp: bool,
) -> Iterator[tuple[AssignmentKind, ...]]:
    """Kind vectors: replicated always; data-parallel only when it can differ."""
    options: list[tuple[AssignmentKind, ...]] = []
    for size, k in zip(group_sizes, proc_counts):
        if allow_dp and k >= 2:
            options.append(
                (AssignmentKind.REPLICATED, AssignmentKind.DATA_PARALLEL)
            )
        else:
            options.append((AssignmentKind.REPLICATED,))
        del size
    yield from itertools.product(*options)


# ----------------------------------------------------------------------
# mapping enumerators
# ----------------------------------------------------------------------
def enumerate_pipeline_mappings(
    application: PipelineApplication,
    platform,
    allow_data_parallel: bool,
) -> Iterator[PipelineMapping]:
    """All valid pipeline mappings (Section 3.4 rules)."""
    n, p = application.n, platform.p
    for q in range(1, min(n, p) + 1):
        for comp in compositions(n, q):
            # stage intervals, 1-based
            intervals: list[tuple[int, ...]] = []
            start = 1
            for length in comp:
                intervals.append(tuple(range(start, start + length)))
                start += length
            for procs in processor_assignments(p, q):
                counts = [len(s) for s in procs]
                for kinds in _kind_choices(comp, counts, allow_data_parallel):
                    groups = tuple(
                        GroupAssignment(stages=itv, processors=ps, kind=kind)
                        for itv, ps, kind in zip(intervals, procs, kinds)
                    )
                    mapping = PipelineMapping(
                        application=application, platform=platform, groups=groups
                    )
                    if is_valid(mapping, allow_data_parallel):
                        yield mapping


def _enumerate_fork_like(
    application,
    platform,
    allow_data_parallel: bool,
    mapping_cls,
    stage_indices: Sequence[int],
) -> Iterator:
    p = platform.p
    n_stages = len(stage_indices)
    for q in range(1, min(n_stages, p) + 1):
        for partition in set_partitions(stage_indices, q):
            stage_sets = [tuple(sorted(block)) for block in partition]
            for procs in processor_assignments(p, q):
                counts = [len(s) for s in procs]
                sizes = [len(s) for s in stage_sets]
                for kinds in _kind_choices(sizes, counts, allow_data_parallel):
                    groups = tuple(
                        GroupAssignment(stages=ss, processors=ps, kind=kind)
                        for ss, ps, kind in zip(stage_sets, procs, kinds)
                    )
                    mapping = mapping_cls(
                        application=application, platform=platform, groups=groups
                    )
                    if is_valid(mapping, allow_data_parallel):
                        yield mapping


def enumerate_fork_mappings(
    application: ForkApplication,
    platform,
    allow_data_parallel: bool,
) -> Iterator[ForkMapping]:
    """All valid fork mappings."""
    yield from _enumerate_fork_like(
        application,
        platform,
        allow_data_parallel,
        ForkMapping,
        range(application.n + 1),
    )


def enumerate_forkjoin_mappings(
    application: ForkJoinApplication,
    platform,
    allow_data_parallel: bool,
) -> Iterator[ForkJoinMapping]:
    """All valid fork-join mappings."""
    yield from _enumerate_fork_like(
        application,
        platform,
        allow_data_parallel,
        ForkJoinMapping,
        range(application.n + 2),
    )


def enumerate_mappings(spec: ProblemSpec) -> Iterator:
    """Dispatch on the graph kind of the spec."""
    app = spec.application
    if isinstance(app, ForkJoinApplication):
        yield from enumerate_forkjoin_mappings(
            app, spec.platform, spec.allow_data_parallel
        )
    elif isinstance(app, ForkApplication):
        yield from enumerate_fork_mappings(
            app, spec.platform, spec.allow_data_parallel
        )
    else:
        yield from enumerate_pipeline_mappings(
            app, spec.platform, spec.allow_data_parallel
        )


# ----------------------------------------------------------------------
# optimizer
# ----------------------------------------------------------------------
def optimal(
    spec: ProblemSpec,
    objective: Objective,
    period_bound: float | None = None,
    latency_bound: float | None = None,
    engine: str = "bnb",
    context=None,
    budget: Budget | None = None,
) -> Solution:
    """Exact optimal solution, routed through the selected engine.

    ``period_bound`` / ``latency_bound`` turn the call into the bi-criteria
    problems of the paper: minimize the objective subject to the other
    criterion not exceeding its bound.

    ``engine`` selects the search strategy:

    * ``"bnb"`` (default) — the pruned branch-and-bound engine of
      :mod:`repro.algorithms.bnb`; exact, and typically orders of magnitude
      faster (pipeline periods close in about a second at ``n = 16``,
      ``p = 10``, pipeline and fork latency at 9 and 8 stages, ``p = 8``;
      other shapes to roughly ``n = p = 10``);
    * ``"enumerate"`` — the historical flat enumeration
      (:func:`optimal_enumerated`), kept as the oracle for the equivalence
      property tests and the engine benchmarks;
    * ``"milp"`` — the mixed-integer programming formulation of
      :mod:`repro.algorithms.milp` over an optional backend (PuLP/CBC or
      SciPy/HiGHS), closing instances well past the combinatorial
      engines (roughly ``n = 20..30``).

    ``context`` (a :class:`~repro.algorithms.solve_context.SolveContext`
    built for this instance) lets the repeated solves of a bi-criteria
    threshold sweep share per-instance state — search tables for ``bnb``,
    the priced candidate list for ``enumerate``.  Results are
    bit-identical with or without a context.

    ``budget`` (:class:`~repro.algorithms.budget.Budget`) caps the search
    effort of either engine; see :mod:`repro.algorithms.budget` for the
    anytime/incumbent semantics on exhaustion.

    Raises :class:`InfeasibleProblemError` when no valid mapping meets the
    bounds.
    """
    if engine not in ENGINES:
        raise ReproError(
            f"unknown exact engine {engine!r} (choose from {list(ENGINES)})"
        )
    if engine == "bnb":
        from .bnb import optimal as bnb_optimal

        return bnb_optimal(
            spec, objective, period_bound, latency_bound, context=context,
            budget=budget,
        )
    if engine == "milp":
        from .milp import optimal as milp_optimal

        return milp_optimal(
            spec, objective, period_bound, latency_bound, context=context,
            budget=budget,
        )
    return optimal_enumerated(
        spec, objective, period_bound, latency_bound, context=context,
        budget=budget,
    )


#: Candidate-cache cap for context-backed enumeration.  Beyond this many
#: valid mappings the cache would dominate memory for marginal sweep wins,
#: so the context falls back to cold re-enumeration.
_MAX_ENUM_CACHE = 200_000


def _enumerated_candidates(spec: ProblemSpec, context):
    """``(candidates, replayed)``: every valid mapping, in oracle order.

    ``candidates`` yields ``(groups, period, latency)`` triples;
    ``replayed`` is True when they come from a context's priced cache
    (each consumed candidate then counts as one memo hit — a mapping
    construction and pricing avoided).  With a context the list is built
    once and replayed by later threshold solves; without one (or past
    :data:`_MAX_ENUM_CACHE` candidates) it is a streaming generator,
    exactly the historical behaviour.
    """

    def generate():
        for mapping in enumerate_mappings(spec):
            period, latency = evaluate(mapping)
            yield mapping.groups, period, latency

    if context is None:
        return generate(), False
    state = context.table("enumerate")
    if state.get("too_big"):
        return generate(), False
    candidates = state.get("candidates")
    if candidates is not None:
        return candidates, True
    generator = generate()
    candidates = []
    for item in generator:
        candidates.append(item)
        if len(candidates) > _MAX_ENUM_CACHE:
            # too large to keep: this call streams the already-priced
            # prefix plus the live generator's remainder; later calls
            # enumerate cold
            state["too_big"] = True
            return itertools.chain(candidates, generator), False
    state["candidates"] = candidates
    return candidates, False


def optimal_enumerated(
    spec: ProblemSpec,
    objective: Objective,
    period_bound: float | None = None,
    latency_bound: float | None = None,
    context=None,
    budget: Budget | None = None,
) -> Solution:
    """Flat exhaustive enumeration (tiny instances only).

    Evaluates every valid mapping from scratch; exponential in both ``n``
    and ``p``.  This is the trusted oracle the branch-and-bound engine is
    property-tested against.  ``context`` caches the priced candidate
    list so a threshold sweep enumerates once and filters per threshold;
    candidate order (hence tie-breaking) is identical either way.

    ``budget`` counts each priced candidate as one search node; on
    exhaustion the scan stops and the best candidate seen so far is
    returned with ``status="budget_exhausted"`` (candidate order is
    fixed, so ``max_nodes`` stops are deterministic here too).
    """
    if context is not None:
        context.require(spec)
    meter = (
        BudgetMeter(budget)
        if budget is not None and budget.is_bounded else None
    )
    app, platform = spec.application, spec.platform
    if isinstance(app, ForkJoinApplication):
        mapping_cls = ForkJoinMapping
    elif isinstance(app, ForkApplication):
        mapping_cls = ForkMapping
    else:
        mapping_cls = PipelineMapping
    best: tuple | None = None
    best_value = float("inf")
    nodes = 0
    next_check = CHECK_EVERY if meter is not None else float("inf")
    exhausted = False
    candidates, replayed = _enumerated_candidates(spec, context)
    for groups, period, latency in candidates:
        nodes += 1
        if nodes >= next_check:
            next_check = nodes + CHECK_EVERY
            if meter.exhausted(nodes):
                exhausted = True
                break
        if period_bound is not None and period > period_bound * (1 + FLOAT_TOL):
            continue
        if latency_bound is not None and latency > latency_bound * (1 + FLOAT_TOL):
            continue
        value = period if objective is Objective.PERIOD else latency
        if value < best_value - FLOAT_TOL:
            best_value = value
            best = (groups, period, latency)
    if best is None:
        if exhausted:
            raise BudgetExhaustedError(
                f"budget exhausted ({meter.reason}) after {nodes} candidates "
                f"with no feasible incumbent (period<={period_bound}, "
                f"latency<={latency_bound}): neither solved nor proven "
                "infeasible within this budget",
                nodes=nodes,
                reason=meter.reason,
            )
        raise InfeasibleProblemError(
            f"no valid mapping satisfies the bounds (period<={period_bound}, "
            f"latency<={latency_bound})"
        )
    groups, period, latency = best
    mapping = mapping_cls(
        application=app, platform=platform, groups=groups
    )
    meta: dict = {
        "algorithm": "brute-force",
        "status": "optimal",
        # every candidate priced is one search node; a replayed context
        # cache served all of them as memo hits
        "nodes": nodes,
        "memo_hits": nodes if replayed else 0,
    }
    if exhausted:
        from .bnb import root_lower_bound

        lower = root_lower_bound(spec, objective)
        value = period if objective is Objective.PERIOD else latency
        meta.update(
            status="budget_exhausted",
            lower_bound=lower,
            gap=(value - lower) / lower if lower > 0.0 else 0.0,
            budget=meter.budget.to_dict(),
            budget_reason=meter.reason,
        )
    return Solution(
        mapping=mapping, period=period, latency=latency,
        meta=meta,
    )
