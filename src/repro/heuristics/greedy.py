"""Constructive heuristics for the NP-hard mapping problems.

Heterogeneous pipeline, period, no data-parallelism (Theorem 9 problem):

* :func:`pipeline_period_greedy` — fix the number of intervals ``q``, cut
  the stages with the exact chains-to-chains solver (balanced loads), then
  allocate processor *blocks* (speed-descending) proportionally to the
  loads and match sorted loads to sorted block capacities;
* :func:`pipeline_period_sweep` — run the above for every feasible ``q``
  and keep the best.

Heterogeneous fork, latency, homogeneous platform (Theorem 12 problem):

* :func:`fork_latency_lpt` — Longest-Processing-Time list scheduling of the
  branch stages over the ``p`` processor groups (the classic 4/3-approximate
  ``P || Cmax`` heuristic, applied to the branch loads).
"""

from __future__ import annotations

from ..algorithms.problem import Solution
from ..chains.partition import chains_to_chains_dp
from ..core.application import ForkApplication, PipelineApplication
from ..core.exceptions import ReproError
from ..core.mapping import (
    AssignmentKind,
    ForkMapping,
    GroupAssignment,
    PipelineMapping,
)
from ..core.platform import Platform

__all__ = [
    "pipeline_period_greedy",
    "pipeline_period_sweep",
    "fork_latency_lpt",
]


def pipeline_period_greedy(
    app: PipelineApplication, platform: Platform, q: int
) -> Solution:
    """Greedy heterogeneous-pipeline period mapping with ``q`` intervals.

    1. cut the stage chain into ``q`` intervals with balanced loads
       (exact homogeneous chains-to-chains);
    2. hand out processor blocks over the speed-descending order, block
       sizes proportional to the interval loads (largest remainder);
    3. match sorted-descending loads with sorted-descending block
       capacities (the pairing that minimizes the max ratio for *fixed*
       blocks).

    The interval cut and the block *sizing* are the heuristic parts; the
    exact optimum of this Theorem 9 problem comes from
    :func:`repro.algorithms.exact.guarded_optimal` (the bnb engine).
    """
    n, p = app.n, platform.p
    if not 1 <= q <= min(n, p):
        raise ReproError(f"q must be in [1, min(n, p)] = [1, {min(n, p)}]")
    cut = chains_to_chains_dp(list(app.works), q)
    loads = []
    start = 0
    for end in cut.boundaries:
        loads.append(app.interval_work(start, end - 1))
        start = end
    q_eff = len(loads)

    order = platform.sorted_by_speed(descending=True)
    total_load = sum(loads)
    # proportional block sizes (>= 1), largest-remainder rounding
    raw = [load / total_load * p for load in loads]
    sizes = [max(1, int(r)) for r in raw]
    while sum(sizes) > p:
        idx = max(range(q_eff), key=lambda i: sizes[i] - raw[i])
        if sizes[idx] == 1:
            idx = max(
                (i for i in range(q_eff) if sizes[i] > 1),
                key=lambda i: sizes[i] - raw[i],
                default=None,
            )
            if idx is None:
                raise ReproError("not enough processors for the intervals")
        sizes[idx] -= 1
    while sum(sizes) < p:
        idx = min(range(q_eff), key=lambda i: sizes[i] - raw[i])
        sizes[idx] += 1

    # blocks over the descending order; capacity = size * slowest speed
    blocks = []
    pos = 0
    for k in sizes:
        speeds = [order[t].speed for t in range(pos, pos + k)]
        blocks.append((k * min(speeds), pos, k))
        pos += k
    blocks.sort(key=lambda b: -b[0])
    load_order = sorted(range(q_eff), key=lambda r: -loads[r])

    assignment: dict[int, tuple[int, int]] = {}
    for (cap, bpos, k), r in zip(blocks, load_order):
        assignment[r] = (bpos, k)
        del cap

    groups = []
    start = 1
    for r, end in enumerate(cut.boundaries):
        bpos, k = assignment[r]
        procs = tuple(sorted(order[t].index for t in range(bpos, bpos + k)))
        groups.append(
            GroupAssignment(
                stages=tuple(range(start, end + 1)),
                processors=procs,
                kind=AssignmentKind.REPLICATED,
            )
        )
        start = end + 1
    mapping = PipelineMapping(application=app, platform=platform, groups=tuple(groups))
    return Solution.from_mapping(mapping, algorithm=f"greedy-q{q}")


def pipeline_period_sweep(
    app: PipelineApplication, platform: Platform
) -> Solution:
    """Best greedy mapping over all interval counts ``q``."""
    best: Solution | None = None
    for q in range(1, min(app.n, platform.p) + 1):
        try:
            sol = pipeline_period_greedy(app, platform, q)
        except ReproError:
            continue
        if best is None or sol.period < best.period:
            best = sol
    if best is None:
        raise ReproError("no greedy mapping found")
    return Solution(
        mapping=best.mapping, period=best.period, latency=best.latency,
        meta={"algorithm": "greedy-sweep"},
    )


def pipeline_period_portfolio(
    app: PipelineApplication,
    platform: Platform,
    rng=None,
    restarts: int = 5,
) -> Solution:
    """Portfolio heuristic for the NP-hard het-pipeline period problem.

    Polishes the greedy sweep *and* ``restarts`` random mappings with the
    local search of :mod:`repro.heuristics.local_search`, returning the
    best.  Random restarts protect against the local optima a single greedy
    seed can strand the descent in.
    """
    import random as _random

    from ..algorithms.problem import Objective
    from .local_search import improve_mapping
    from .random_baseline import random_pipeline_mapping

    rng = rng or _random.Random(0)
    seeds = [pipeline_period_sweep(app, platform)]
    for _ in range(restarts):
        seeds.append(random_pipeline_mapping(app, platform, rng))
    best: Solution | None = None
    for seed in seeds:
        polished = improve_mapping(seed, Objective.PERIOD)
        if best is None or polished.period < best.period:
            best = polished
    assert best is not None
    return Solution(
        mapping=best.mapping, period=best.period, latency=best.latency,
        meta={"algorithm": f"portfolio-{restarts}restarts"},
    )


def fork_latency_lpt(app: ForkApplication, platform: Platform) -> Solution:
    """LPT heuristic for heterogeneous-fork latency on a hom. platform.

    Sort branch stages by decreasing work and assign each to the currently
    least-loaded of ``p`` single-processor groups; the root joins the first
    group (its placement does not change the latency on identical
    processors).  This is Graham's LPT rule on the branch works.
    """
    if not platform.is_homogeneous:
        raise ReproError("fork_latency_lpt expects a homogeneous platform")
    p = platform.p
    loads = [0.0] * p
    members: list[list[int]] = [[] for _ in range(p)]
    order = sorted(range(app.n), key=lambda i: -app.branches[i].work)
    for i in order:
        machine = min(range(p), key=lambda m: loads[m])
        loads[machine] += app.branches[i].work
        members[machine].append(i + 1)

    groups = []
    root_placed = False
    proc = 0
    for m in range(p):
        stages = sorted(members[m])
        if not root_placed:
            stages = [0, *stages]
            root_placed = True
        elif not stages:
            continue
        groups.append(
            GroupAssignment(
                stages=tuple(stages), processors=(proc,),
                kind=AssignmentKind.REPLICATED,
            )
        )
        proc += 1
    mapping = ForkMapping(application=app, platform=platform, groups=tuple(groups))
    return Solution.from_mapping(mapping, algorithm="lpt")
