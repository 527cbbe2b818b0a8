"""Pruned branch-and-bound exact engine for the Section 3.4 problems.

:mod:`repro.algorithms.brute_force` prices every valid mapping from scratch,
which caps exact ground truth at roughly ``n <= 6, p <= 6``.  This module
solves the same sixteen problems exactly but builds mappings *incrementally*
— interval by interval for pipelines, block by block for forks and
fork-joins — maintaining the partial objective as it goes and cutting
subtrees with admissible lower bounds:

* **capacity bound** (period): any split of the remaining work ``W`` over
  the remaining processors of aggregate speed ``S`` has a group of period at
  least ``W / S`` (a replicated group's capacity ``k * min_speed`` and a
  data-parallel group's capacity ``sum_speed`` both total at most ``S``
  over disjoint groups);
* **partial-sum bound** (latency): assigned groups' delays only grow, and
  the remaining work contributes at least ``W / S`` more delay;
* **aggregate branch bound** (fork latency, the ``P || Cmax`` average-load
  bound): the unassigned blocks are disjoint groups whose per-group speed
  denominators total at most the remaining pool speed ``S``, so the
  slowest of them has delay at least ``sum(remaining loads) / S`` — the
  mediant generalization of ``Cmax >= total_work / m`` to heterogeneous
  pools, strictly tighter than the single-heaviest-block bound whenever
  two or more blocks remain;
* **replicated-delay floor** (fork latency): a replicated group's delay
  is its load over its slowest processor, so at least its load over the
  fastest processor still available.  A block that cannot be
  data-parallel — every block without data-parallelism, and a root or
  join block that holds branches — is bounded by that speed instead of
  the whole pool's ``S``: the platform's fastest processor while the
  partition grows, the fastest speed class left while processors are
  assigned.  A fork's replicated root block is bounded by its own load
  the same way, and a replicated root pins ``t0 >= w0 / max_speed``;
* **speed-multiset canonicalization**: two processor subsets with the same
  multiset of speeds yield identical costs, so subsets are enumerated as
  per-speed-class counts (on a homogeneous platform this collapses the
  ``2^p`` subsets per group to ``p`` sizes);
* **replicated dominance fill**: a replicated group's period and delay
  depend only on ``(k, min_speed)``; among all subsets with those
  parameters, taking the *slowest* available processors of speed >=
  ``min_speed`` leaves a pointwise-fastest pool for the remaining groups
  and therefore dominates — one canonical subset per ``(k, min class)``
  instead of every count vector (data-parallel groups, whose cost depends
  on ``sum_speed``, still enumerate all canonical count vectors).

Sweep-aware solving: every call runs against a
:class:`~repro.algorithms.solve_context.SolveContext` (an ephemeral one
when the caller passes none).  The context caches the instance-level
tables — prefix sums, the speed-pool template, the incumbent seeds — and,
for pipelines, the per-``(stage, remaining pool)`` child expansions of the
search, so the repeated solves of a bi-criteria threshold sweep replay
dictionary hits instead of regenerating candidates.  Reuse is
behaviour-preserving: a context-backed solve returns bit-identical
solutions to a cold one.

Fork/fork-join Phase B prices its *leaf* level (the last unassigned
block) in one loop instead of recursing once per leaf: each child is a
complete assignment, skipped when it breaks a threshold and accepted when
it beats the incumbent by more than ``FLOAT_TOL``, so the last accepted
leaf wins exactly as it would in the recursion.

Bi-criteria thresholds prune with the same bounds; both the objective
incumbent and the threshold feasibility use the global ``FLOAT_TOL``
semantics of the flat enumerator, so the two engines agree to tolerance
(pinned down by ``tests/algorithms/test_bnb_equivalence.py``, which compares
against the exhaustive enumeration oracle on hundreds of random instances).

See ``PERFORMANCE.md`` at the repository root for the bound derivations and
measured speedups (>=10x at ``n = p = 7``; ``n = 9, p = 8`` pipelines solve
in seconds).
"""

from __future__ import annotations

from ..chains.partition import prefix_sums
from ..core.application import ForkApplication, ForkJoinApplication
from ..core.costs import FLOAT_TOL, evaluate
from ..core.exceptions import InfeasibleProblemError
from ..core.mapping import (
    AssignmentKind,
    ForkJoinMapping,
    ForkMapping,
    GroupAssignment,
    PipelineMapping,
)
from ..core.validation import is_valid
from .budget import CHECK_EVERY, Budget, BudgetExhaustedError, BudgetMeter, _BudgetStop
from .problem import Objective, ProblemSpec, Solution
from .solve_context import SolveContext

__all__ = ["optimal", "root_lower_bound"]

_INF = float("inf")
_REPL = AssignmentKind.REPLICATED
_DP = AssignmentKind.DATA_PARALLEL


# ----------------------------------------------------------------------
# processor pool with speed-class canonicalization
# ----------------------------------------------------------------------
class _SpeedPool:
    """Remaining processors, grouped into equal-speed classes.

    Classes are sorted by *ascending* speed; within a class processors are
    interchangeable (identical costs), so subsets are described by a count
    per class.  ``take``/``restore`` consume indices stack-wise so the
    recursion can reconstruct concrete processor sets for the incumbent.
    """

    def __init__(self, platform) -> None:
        if platform is None:  # cloning: caller fills the slots
            return
        by_speed: dict[float, list[int]] = {}
        for proc in platform.processors:
            by_speed.setdefault(proc.speed, []).append(proc.index)
        self.speeds: list[float] = sorted(by_speed)
        self.indices: list[list[int]] = [by_speed[s] for s in self.speeds]
        self.sizes: list[int] = [len(lst) for lst in self.indices]
        self.avail: list[int] = list(self.sizes)
        self.classes: int = len(self.speeds)
        self.total_avail: int = sum(self.sizes)
        self.total_speed: float = sum(
            s * c for s, c in zip(self.speeds, self.sizes)
        )

    def clone(self) -> "_SpeedPool":
        """A fresh full pool sharing the immutable class structure.

        ``speeds`` / ``indices`` / ``sizes`` are never mutated, so clones
        share them; only the availability state is per-solve.  This is
        what lets a :class:`SolveContext` hand the same pool template to
        every solve of a sweep.
        """
        pool = _SpeedPool(None)
        pool.speeds = self.speeds
        pool.indices = self.indices
        pool.sizes = self.sizes
        pool.avail = list(self.sizes)
        pool.classes = self.classes
        pool.total_avail = sum(self.sizes)
        pool.total_speed = sum(
            s * c for s, c in zip(self.speeds, self.sizes)
        )
        return pool

    def take(self, counts: tuple[int, ...]) -> tuple[int, ...]:
        """Consume ``counts[c]`` processors per class; return their indices."""
        picked: list[int] = []
        for c, cnt in enumerate(counts):
            if cnt:
                pos = self.sizes[c] - self.avail[c]
                picked.extend(self.indices[c][pos : pos + cnt])
                self.avail[c] -= cnt
                self.total_avail -= cnt
                self.total_speed -= cnt * self.speeds[c]
        return tuple(sorted(picked))

    def restore(self, counts: tuple[int, ...]) -> None:
        for c, cnt in enumerate(counts):
            if cnt:
                self.avail[c] += cnt
                self.total_avail += cnt
                self.total_speed += cnt * self.speeds[c]

    def take_nz(self, nz) -> tuple[int, ...]:
        """:meth:`take` over pre-extracted ``(class, count)`` pairs.

        The pipeline engine caches the nonzero pairs with each child, so
        the hot take/restore path touches only the 1-2 classes a group
        actually uses instead of scanning every class.
        """
        picked: list[int] = []
        for c, cnt in nz:
            pos = self.sizes[c] - self.avail[c]
            picked.extend(self.indices[c][pos : pos + cnt])
            self.avail[c] -= cnt
            self.total_avail -= cnt
            self.total_speed -= cnt * self.speeds[c]
        return tuple(sorted(picked))

    def restore_nz(self, nz) -> None:
        for c, cnt in nz:
            self.avail[c] += cnt
            self.total_avail += cnt
            self.total_speed += cnt * self.speeds[c]

    # ------------------------------------------------------------------
    def fastest(self) -> float:
        """Speed of the fastest remaining processor (0.0 when none is left)."""
        for c in range(self.classes - 1, -1, -1):
            if self.avail[c]:
                return self.speeds[c]
        return 0.0

    def best_repl_capacity(self) -> float:
        """Best ``k * min_speed`` of any subset of the remaining pool.

        The optimum takes a full suffix of the fastest classes (growing the
        subset within a class keeps the min and raises ``k``).
        """
        best, k = 0.0, 0
        for c in range(self.classes - 1, -1, -1):
            a = self.avail[c]
            if a:
                k += a
                cap = k * self.speeds[c]
                if cap > best:
                    best = cap
        return best

    def repl_choices(self, k_max: int):
        """Canonical replicated subsets: one per ``(min class, k)``.

        For each minimum class ``c`` the fill takes the slowest available
        processors of speed >= ``speeds[c]`` (dominance: any other subset
        with the same ``(k, min)`` leaves a pointwise-slower pool).
        Yields ``(counts, k, min_speed, sum_speed)``.
        """
        out = []
        for c in range(self.classes):
            if self.avail[c] == 0:
                continue
            counts = [0] * self.classes
            k, ssum, cc = 0, 0.0, c
            while k < k_max and cc < self.classes:
                if counts[cc] < self.avail[cc]:
                    counts[cc] += 1
                    k += 1
                    ssum += self.speeds[cc]
                    out.append((tuple(counts), k, self.speeds[c], ssum))
                else:
                    cc += 1
        return out

    def dp_choices(self, k_max: int):
        """All canonical count vectors with ``2 <= k <= k_max``.

        Data-parallel cost depends on ``sum_speed``, so no single fill
        dominates; the per-class counts keep this to
        ``prod_c (avail_c + 1)`` candidates instead of ``2^p``.
        Yields ``(counts, k, sum_speed)``.
        """
        out = []
        counts = [0] * self.classes

        def rec(c: int, k: int, ssum: float) -> None:
            if c == self.classes:
                if k >= 2:
                    out.append((tuple(counts), k, ssum))
                return
            top = min(self.avail[c], k_max - k)
            for cnt in range(top + 1):
                counts[c] = cnt
                rec(c + 1, k + cnt, ssum + cnt * self.speeds[c])
            counts[c] = 0

        rec(0, 0, 0.0)
        return out


# ----------------------------------------------------------------------
# shared search state
# ----------------------------------------------------------------------
class _Search:
    """Incumbent + counters + threshold tolerances for one solve."""

    def __init__(self, objective, period_bound, latency_bound,
                 meter: BudgetMeter | None = None) -> None:
        self.objective = objective
        self.period_cap = (
            None if period_bound is None else period_bound * (1 + FLOAT_TOL)
        )
        self.latency_cap = (
            None if latency_bound is None else latency_bound * (1 + FLOAT_TOL)
        )
        self.best_value = _INF
        self.best_groups: list[tuple] | None = None
        self.nodes = 0
        self.pruned = 0
        self.memo_hits = 0  # context child-expansion replays (pipeline)
        # budget plumbing: the hot loops gate on a local `metered` flag,
        # so the unbudgeted path pays one bool test per node
        self.meter = meter
        self.next_check = CHECK_EVERY if meter is not None else _INF

    def checkpoint(self) -> None:
        """Amortized budget check (call when ``nodes >= next_check``).

        Re-arms at a fixed node-count stride, so a ``max_nodes`` budget
        stops at the same deterministic point on every run.
        """
        self.next_check = self.nodes + CHECK_EVERY
        if self.meter.exhausted(self.nodes):
            raise _BudgetStop(self.meter.reason)

    def value_of(self, period: float, latency: float) -> float:
        return period if self.objective is Objective.PERIOD else latency

    def feasible(self, period: float, latency: float) -> bool:
        if self.period_cap is not None and period > self.period_cap:
            return False
        if self.latency_cap is not None and latency > self.latency_cap:
            return False
        return True

    def cut(self, lb_period: float, lb_latency: float) -> bool:
        """True when the subtree below these lower bounds is hopeless."""
        if self.period_cap is not None and lb_period > self.period_cap:
            return True
        if self.latency_cap is not None and lb_latency > self.latency_cap:
            return True
        return self.value_of(lb_period, lb_latency) >= self.best_value - FLOAT_TOL

    def offer(self, period: float, latency: float, groups) -> None:
        if not self.feasible(period, latency):
            return
        value = self.value_of(period, latency)
        if value < self.best_value - FLOAT_TOL:
            self.best_value = value
            self.best_groups = list(groups)


def _seed_incumbent(spec: ProblemSpec, search: _Search,
                    context: SolveContext) -> None:
    """Prime the incumbent with a few cheap constructive mappings.

    A finite starting upper bound is what makes the capacity bounds bite
    from the first node on.  All seeds are replicated-only (always valid).
    The evaluated ``(period, latency, groups)`` triples are cached on the
    context — they are threshold-independent — so a sweep pays the mapping
    construction and pricing once.
    """
    state = context.table("bnb-seeds")
    offers = state.get("offers")
    if offers is None:
        app, platform = spec.application, spec.platform
        p = platform.p
        if isinstance(app, ForkApplication):
            stage_ids = [stage.index for stage in app.all_stages]
            cls = (
                ForkJoinMapping if isinstance(app, ForkJoinApplication)
                else ForkMapping
            )
        else:
            stage_ids = [stage.index for stage in app.stages]
            cls = PipelineMapping

        candidates: list[tuple[tuple, ...]] = [
            # everything in one group on the whole platform
            ((tuple(stage_ids), tuple(range(p)), _REPL),),
            # everything on the single fastest processor
            ((tuple(stage_ids), (platform.fastest.index,), _REPL),),
        ]
        if cls is not PipelineMapping and len(stage_ids) <= p:
            # one group per stage, heaviest work on fastest processor
            order = platform.sorted_by_speed(descending=True)
            works = {stage.index: stage.work for stage in app.all_stages}
            by_load = sorted(stage_ids, key=lambda i: -works[i])
            candidates.append(
                tuple(
                    ((i,), (order[t].index,), _REPL)
                    for t, i in enumerate(by_load)
                )
            )
        offers = []
        for groups in candidates:
            mapping = cls(
                application=app,
                platform=platform,
                groups=tuple(
                    GroupAssignment(stages=s, processors=pr, kind=kind)
                    for s, pr, kind in groups
                ),
            )
            period, latency = evaluate(mapping)
            offers.append((period, latency, groups))
        state["offers"] = offers
    for period, latency, groups in offers:
        search.offer(period, latency, groups)


# ----------------------------------------------------------------------
# pipeline engine: interval-by-interval
# ----------------------------------------------------------------------
def _pipeline_state(spec: ProblemSpec, context: SolveContext) -> dict:
    """Instance-level pipeline tables, built once per context."""
    state = context.table("bnb-pipeline")
    if not state:
        app = spec.application
        state["n"] = app.n
        state["prefix"] = prefix_sums(app.works)
        state["total"] = state["prefix"][app.n]
        state["overheads"] = [stage.dp_overhead for stage in app.stages]
        state["pool"] = _SpeedPool(spec.platform)
        state["children"] = {}
    return state


def _pipeline_children(
    pool: _SpeedPool, stage: int, n: int, prefix, overheads, allow_dp: bool
):
    """Child expansion of one ``(stage, remaining pool)`` search node.

    Children are generated in the engine's canonical order (interval
    length ascending; replicated fills, then data-parallel count vectors).
    Each child is ``(g_period, g_delay, length, nz_counts, kind)`` with
    ``nz_counts`` the nonzero ``(class, count)`` pairs for the fast
    take/restore path.
    """
    kids: list[tuple] = []
    for length in range(1, n - stage + 2):
        load = prefix[stage + length - 1] - prefix[stage - 1]
        reserve = 1 if stage + length <= n else 0
        k_max = pool.total_avail - reserve
        if k_max < 1:
            continue
        for counts, k, mins, _sums in pool.repl_choices(k_max):
            nz = tuple((c, cnt) for c, cnt in enumerate(counts) if cnt)
            kids.append((load / (k * mins), load / mins, length, nz, _REPL))
        if allow_dp and length == 1 and k_max >= 2:
            f = overheads[stage - 1]
            for counts, _k, sums in pool.dp_choices(k_max):
                nz = tuple((c, cnt) for c, cnt in enumerate(counts) if cnt)
                t = f + load / sums
                kids.append((t, t, length, nz, _DP))
    return kids


def _pipeline_node_views(
    state: dict, pool: _SpeedPool, stage: int, allow_dp: bool,
    value_col: int, search: _Search,
):
    """The child expansion of a node, pre-sorted for one objective.

    The expansion (and its two sorted views) depends only on
    ``(stage, remaining pool)`` — never on the threshold or the partial
    mapping — so it lives on the :class:`SolveContext` and every solve of
    a sweep shares it.  Sorting ascending by the objective column makes
    the child value ``max(cur_period, g_period)`` / ``cur_latency +
    g_delay`` non-decreasing along the visit order: a strong incumbent
    appears early *and* the node loop may stop at the first child whose
    value cannot improve the incumbent (everything later is at least as
    bad — the same children the legacy per-child cut skipped one by one).
    """
    key = (stage, tuple(pool.avail))
    views = state["children"].get(key)
    if views is None:
        views = {}
        views["gen"] = _pipeline_children(
            pool, stage, state["n"], state["prefix"], state["overheads"],
            allow_dp,
        )
        state["children"][key] = views
    else:
        search.memo_hits += 1  # same cost class as the nodes counter
    view = views.get(value_col)
    if view is None:
        view = tuple(sorted(views["gen"], key=lambda ch: ch[value_col]))
        views[value_col] = view
    return view


def _solve_pipeline(
    spec: ProblemSpec, search: _Search, context: SolveContext
) -> None:
    state = _pipeline_state(spec, context)
    allow_dp = spec.allow_data_parallel
    n = state["n"]
    prefix = state["prefix"]
    total = state["total"]
    children_memo = state  # views fetched via _pipeline_node_views
    pool = state["pool"].clone()
    groups: list[tuple] = []  # (stages, processors, kind)
    by_period = search.objective is Objective.PERIOD
    value_col = 0 if by_period else 1
    period_cap = search.period_cap
    latency_cap = search.latency_cap
    tol = FLOAT_TOL
    metered = search.meter is not None

    def rec(stage: int, cur_period: float, cur_latency: float) -> None:
        search.nodes += 1
        if metered and search.nodes >= search.next_check:
            search.checkpoint()
        if stage > n:
            search.offer(cur_period, cur_latency, groups)
            return
        rem_speed = pool.total_speed
        if pool.total_avail == 0:
            return
        rest = (total - prefix[stage - 1]) / rem_speed
        if search.cut(max(cur_period, rest), cur_latency + rest):
            search.pruned += 1
            return
        view = _pipeline_node_views(
            children_memo, pool, stage, allow_dp, value_col, search
        )
        for pos, (g_period, g_delay, length, nz, kind) in enumerate(view):
            new_period = cur_period if g_period <= cur_period else g_period
            new_latency = cur_latency + g_delay
            # monotone objective column: nothing later can improve either
            value = new_period if by_period else new_latency
            if value >= search.best_value - tol:
                search.pruned += len(view) - pos
                break
            if period_cap is not None and new_period > period_cap:
                search.pruned += 1
                continue
            if latency_cap is not None and new_latency > latency_cap:
                search.pruned += 1
                continue
            procs = pool.take_nz(nz)
            groups.append(
                (tuple(range(stage, stage + length)), procs, kind)
            )
            rec(stage + length, new_period, new_latency)
            groups.pop()
            pool.restore_nz(nz)

    rec(1, 0.0, 0.0)


# ----------------------------------------------------------------------
# fork / fork-join engine: partition blocks, then assign block-by-block
# ----------------------------------------------------------------------
class _Block:
    """One block of the stage partition, with cached load decomposition."""

    __slots__ = (
        "stages", "load", "overhead", "branch_load", "branch_overhead",
        "has_root", "has_join",
    )

    def __init__(self) -> None:
        self.stages: list[int] = []
        self.load = 0.0
        self.overhead = 0.0
        self.branch_load = 0.0
        self.branch_overhead = 0.0
        self.has_root = False
        self.has_join = False


def _fork_state(spec: ProblemSpec, context: SolveContext) -> dict:
    """Instance-level fork/fork-join tables, built once per context."""
    state = context.table("bnb-fork")
    if not state:
        app, platform = spec.application, spec.platform
        allow_dp = spec.allow_data_parallel
        is_forkjoin = isinstance(app, ForkJoinApplication)
        join_index = app.n + 1 if is_forkjoin else None
        stages = app.all_stages
        works = {stage.index: stage.work for stage in stages}
        overheads = {stage.index: stage.dp_overhead for stage in stages}
        total_speed = platform.total_speed
        max_speed = platform.fastest.speed
        p = platform.p
        # optimistic t0: a replicated root runs at <= max_speed, a
        # data-parallel (singleton) root at <= total_speed
        t0_floor = works[0] / (total_speed if allow_dp else max_speed)
        # best single-group capacities on the *full* platform (Phase A bound)
        desc = sorted(platform.speeds, reverse=True)
        cap_full = 0.0
        for k in range(1, p + 1):
            cap_full = max(cap_full, k * desc[k - 1])
        if allow_dp:
            cap_full = max(cap_full, total_speed)
        # process the root first, then heavier stages first (tighter bounds)
        order = [0] + sorted(
            (i for i in works if i != 0), key=lambda i: -works[i]
        )
        state.update(
            is_forkjoin=is_forkjoin,
            join_index=join_index,
            works=works,
            overheads=overheads,
            w0=works[0],
            f0=overheads[0],
            w_join=works[join_index] if is_forkjoin else 0.0,
            f_join=overheads[join_index] if is_forkjoin else 0.0,
            total_speed=total_speed,
            max_speed=max_speed,
            total_work=sum(works.values()),
            t0_floor=t0_floor,
            cap_full=cap_full,
            order=order,
            max_blocks=min(len(order), p),
            pool=_SpeedPool(platform),
        )
    return state


def _solve_fork_like(
    spec: ProblemSpec, search: _Search, context: SolveContext
) -> None:
    state = _fork_state(spec, context)
    allow_dp = spec.allow_data_parallel
    is_forkjoin = state["is_forkjoin"]
    join_index = state["join_index"]
    works = state["works"]
    overheads = state["overheads"]
    w0 = state["w0"]
    f0 = state["f0"]
    w_join = state["w_join"]
    f_join = state["f_join"]
    total_speed = state["total_speed"]
    max_speed = state["max_speed"]
    total_work = state["total_work"]
    t0_floor = state["t0_floor"]
    t0_repl = w0 / max_speed  # t0 of a replicated root
    cap_full = state["cap_full"]
    order = state["order"]
    max_blocks = state["max_blocks"]
    pool_template = state["pool"]
    by_period = search.objective is Objective.PERIOD
    latency_objective = (
        search.objective is Objective.LATENCY or search.latency_cap is not None
    )
    metered = search.meter is not None
    blocks: list[_Block] = []

    def repl_only(b: _Block) -> bool:
        """The block cannot be data-parallel (nor become so as it grows):
        its delay is its load over its slowest processor, at least the
        load over the fastest one."""
        return not allow_dp or (
            len(b.stages) > 1 and (b.has_root or b.has_join)
        )

    # ----- Phase B: assign processors to the blocks of a complete partition
    def assign_blocks(partition: list[_Block]) -> None:
        root_first = sorted(
            partition, key=lambda b: (not b.has_root, -b.load)
        )
        q = len(root_first)
        pool = pool_template.clone()
        # suffix tables over the fixed block order; the *_sum tables feed
        # the aggregate (P || Cmax average-load) latency bound, which
        # dominates the old per-block-max bound (sum >= max, same S)
        suf_load_sum = [0.0] * (q + 1)
        suf_load_max = [0.0] * (q + 1)
        suf_nonroot_sum = [0.0] * (q + 1)
        suf_branch_sum = [0.0] * (q + 1)
        # the replicated-delay floor: the heaviest delay-relevant load
        # (fork: non-root load, fork-join: branch load) among the
        # unassigned blocks that cannot be data-parallel
        suf_repl_max = [0.0] * (q + 1)
        for i in range(q - 1, -1, -1):
            b = root_first[i]
            suf_load_sum[i] = suf_load_sum[i + 1] + b.load
            suf_load_max[i] = max(suf_load_max[i + 1], b.load)
            suf_nonroot_sum[i] = suf_nonroot_sum[i + 1] + (
                0.0 if b.has_root else b.load
            )
            suf_branch_sum[i] = suf_branch_sum[i + 1] + b.branch_load
            relevant = b.branch_load if is_forkjoin else (
                0.0 if b.has_root else b.load
            )
            suf_repl_max[i] = (
                max(suf_repl_max[i + 1], relevant)
                if repl_only(b) else suf_repl_max[i + 1]
            )
        root_repl = repl_only(root_first[0])
        # a fork's replicated root delays by its whole load
        root_repl_load = (
            root_first[0].load if root_repl and not is_forkjoin else 0.0
        )
        join_repl = is_forkjoin and any(
            b.has_join and repl_only(b) for b in root_first
        )
        chosen: list[tuple] = []

        def score_children(
            i, cur_period, t0, root_delay, other_max, done_max, join_time
        ):
            """The scored child states of block ``i`` (legacy order + sort)."""
            block = root_first[i]
            reserve = q - i - 1
            k_max = pool.total_avail - reserve
            if k_max < 1:
                return None
            size = len(block.stages)
            children = []
            for counts, k, mins, sums in pool.repl_choices(k_max):
                children.append((counts, k, mins, sums, _REPL))
            dp_ok = (
                allow_dp
                and k_max >= 2
                and not (block.has_root and size > 1)
                and not (block.has_join and size > 1)
            )
            if dp_ok:
                for counts, k, sums in pool.dp_choices(k_max):
                    children.append((counts, k, 0.0, sums, _DP))

            scored = []
            for counts, k, mins, sums, kind in children:
                if kind is _DP:
                    g_period = block.overhead + block.load / sums
                    g_delay = g_period
                else:
                    g_period = block.load / (k * mins)
                    g_delay = block.load / mins
                new_period = max(cur_period, g_period)
                n_t0, n_root, n_other = t0, root_delay, other_max
                n_done, n_join = done_max, join_time
                if block.has_root:
                    n_root = g_delay
                    n_t0 = (
                        (f0 + w0 / sums) if kind is _DP else w0 / mins
                    )
                if is_forkjoin:
                    if kind is _DP:
                        phase = (
                            block.branch_overhead + block.branch_load / sums
                            if block.branch_load > 0.0
                            else 0.0
                        )
                    else:
                        phase = block.branch_load / mins
                    done = (
                        n_t0 + phase
                        if (block.has_root or block.branch_load > 0.0)
                        else n_t0
                    )
                    n_done = max(done_max, done)
                    if block.has_join:
                        if kind is _DP:
                            n_join = (
                                (f_join + w_join / sums) if w_join > 0.0 else 0.0
                            )
                        else:
                            n_join = w_join / mins
                elif not block.has_root:
                    n_other = max(other_max, g_delay)
                score = search.value_of(new_period, g_delay)
                scored.append(
                    (score, counts, kind, new_period,
                     n_t0, n_root, n_other, n_done, n_join)
                )
            scored.sort(key=lambda ch: ch[0])
            return block, scored

        def leaf_latency(n_t0, n_root, n_other, n_done, n_join) -> float:
            if is_forkjoin:
                return n_done + n_join
            if n_other == -_INF:
                return n_root
            return max(n_root, n_t0 + n_other)

        def assign_last_block(
            cur_period, t0, root_delay, other_max, done_max, join_time
        ) -> None:
            """Offer every leaf of the final block to the incumbent in turn.

            Every child of the last block is a complete assignment, so
            instead of recursing once per child this loop prices each one
            where it stands: a leaf that breaks a threshold cap is skipped,
            and one whose value beats the incumbent by more than
            ``FLOAT_TOL`` replaces it.  Only the last accepted leaf's
            processors are materialized.
            """
            got = score_children(
                q - 1, cur_period, t0, root_delay, other_max,
                done_max, join_time,
            )
            if got is None:
                return
            block, scored = got
            if not scored:
                return
            search.nodes += len(scored)  # the leaves the recursion would visit
            if metered and search.nodes >= search.next_check:
                search.checkpoint()
            period_cap, latency_cap = search.period_cap, search.latency_cap
            best = search.best_value
            pick = None
            for ch in scored:
                period = ch[3]
                if period_cap is not None and period > period_cap:
                    continue
                latency = leaf_latency(ch[4], ch[5], ch[6], ch[7], ch[8])
                if latency_cap is not None and latency > latency_cap:
                    continue
                value = period if by_period else latency
                if value < best - FLOAT_TOL:
                    best, pick = value, ch
            if pick is None:
                return
            counts, kind = pick[1], pick[2]
            procs = pool.take(counts)
            pool.restore(counts)
            search.best_value = best
            search.best_groups = [
                *chosen, (tuple(sorted(block.stages)), procs, kind)
            ]

        # running state: cur_period; fork: t0/root_delay/other_max;
        # fork-join: t0/done_max/join_time
        def rec(
            i: int,
            cur_period: float,
            t0: float,
            root_delay: float,
            other_max: float,
            done_max: float,
            join_time: float,
        ) -> None:
            search.nodes += 1
            if metered and search.nodes >= search.next_check:
                search.checkpoint()
            if i == q:
                latency = leaf_latency(
                    t0, root_delay, other_max, done_max, join_time
                )
                search.offer(cur_period, latency, chosen)
                return
            rem_speed = pool.total_speed
            if pool.total_avail < q - i or rem_speed <= 0.0:
                return
            # admissible bounds over the unassigned suffix
            lb_period = max(
                cur_period,
                suf_load_max[i] / pool.best_repl_capacity()
                if not allow_dp
                else suf_load_max[i] / max(pool.best_repl_capacity(), rem_speed),
                suf_load_sum[i] / rem_speed,
            )
            lb_latency = 0.0
            if latency_objective:
                # a replicated block runs at most at the fastest speed left
                fastest = pool.fastest()
                if is_forkjoin:
                    if join_time >= 0.0:
                        join_floor = join_time
                    else:
                        join_floor = w_join / (
                            fastest if join_repl else rem_speed
                        )
                    # max completion >= t0 + sum of remaining branch loads
                    # / S (mediant bound: disjoint groups' speed
                    # denominators total at most S), which dominates the
                    # single-heaviest bound
                    lb_latency = (
                        max(
                            done_max,
                            t0 + suf_branch_sum[i] / rem_speed,
                            t0 + suf_repl_max[i] / fastest,
                        )
                        + join_floor
                    )
                else:
                    partial = (
                        root_delay
                        if other_max == -_INF
                        else max(root_delay, t0 + other_max)
                    )
                    lb_latency = max(
                        partial,
                        t0 + suf_nonroot_sum[i] / rem_speed
                        if suf_nonroot_sum[i] > 0.0
                        else partial,
                        t0 + suf_repl_max[i] / fastest
                        if suf_repl_max[i] > 0.0
                        else partial,
                    )
                    if i == 0 and root_repl_load:
                        lb_latency = max(lb_latency, root_repl_load / fastest)
            if search.cut(lb_period, lb_latency):
                search.pruned += 1
                return
            if i == q - 1:
                assign_last_block(
                    cur_period, t0, root_delay, other_max, done_max, join_time
                )
                return
            got = score_children(
                i, cur_period, t0, root_delay, other_max, done_max, join_time
            )
            if got is None:
                return
            block, scored = got
            for (_s, counts, kind, new_period,
                 n_t0, n_root, n_other, n_done, n_join) in scored:
                procs = pool.take(counts)
                chosen.append((tuple(sorted(block.stages)), procs, kind))
                rec(i + 1, new_period, n_t0, n_root, n_other, n_done, n_join)
                chosen.pop()
                pool.restore(counts)

        # the root block is assigned first, so t0/root_delay are pinned at
        # i = 1; before that they carry harmless optimistic floors
        rec(0, 0.0, t0_repl if root_repl else t0_floor, 0.0, -_INF, 0.0, -1.0)

    # ----- Phase A: enumerate stage partitions (restricted growth)
    def grow(idx: int) -> None:
        search.nodes += 1
        if metered and search.nodes >= search.next_check:
            search.checkpoint()
        if idx == len(order):
            assign_blocks(blocks)
            return
        # bounds from partial block loads (loads only grow)
        max_load = max((b.load for b in blocks), default=0.0)
        lb_period = max(max_load / cap_full, total_work / total_speed)
        lb_latency = 0.0
        if latency_objective:
            # delay floors per block: load / S when the block may still be
            # data-parallel, load / max_speed when it must be replicated
            t0 = t0_floor
            root_floor = dp_top = repl_top = 0.0
            join_speed = max_speed if not allow_dp else total_speed
            for b in blocks:
                repl = repl_only(b)
                if b.has_root and repl:
                    t0 = t0_repl
                    root_floor = b.load / max_speed
                if b.has_join and repl:
                    join_speed = max_speed
                load = b.branch_load if is_forkjoin else (
                    0.0 if b.has_root else b.load
                )
                if repl:
                    repl_top = max(repl_top, load)
                else:
                    dp_top = max(dp_top, load)
            delay = max(dp_top / total_speed, repl_top / max_speed)
            if is_forkjoin:
                lb_latency = t0 + delay + w_join / join_speed
            else:
                lb_latency = max(root_floor, t0 + delay)
        if search.cut(lb_period, lb_latency):
            search.pruned += 1
            return
        s = order[idx]
        w = works[s]
        f = overheads[s]
        is_branch = s != 0 and s != join_index
        for b in blocks:
            b.stages.append(s)
            b.load += w
            b.overhead += f
            if is_branch:
                b.branch_load += w
                b.branch_overhead += f
            if s == 0:
                b.has_root = True
            if s == join_index:
                b.has_join = True
            grow(idx + 1)
            if s == 0:
                b.has_root = False
            if s == join_index:
                b.has_join = False
            if is_branch:
                b.branch_load -= w
                b.branch_overhead -= f
            b.load -= w
            b.overhead -= f
            b.stages.pop()
        if len(blocks) < max_blocks:
            nb = _Block()
            nb.stages.append(s)
            nb.load = w
            nb.overhead = f
            if is_branch:
                nb.branch_load = w
                nb.branch_overhead = f
            nb.has_root = s == 0
            nb.has_join = s == join_index
            blocks.append(nb)
            grow(idx + 1)
            blocks.pop()

    grow(0)


# ----------------------------------------------------------------------
# public entry point
# ----------------------------------------------------------------------
def root_lower_bound(spec: ProblemSpec, objective: Objective) -> float:
    """Root-relaxation lower bound on the optimal objective value.

    The same admissible bounds the engines apply at their root node,
    evaluated in closed form: disjoint groups' speed denominators total
    at most the platform speed ``S``, so any mapping has period and
    total-delay at least ``total_work / S``.  A fork's root stage, its
    heaviest branch and a fork-join's join stage each run on at most
    ``max_speed`` (``S`` with data-parallelism, through a data-parallel
    group); the heaviest branch finishes after the root, and the join
    starts after it.  Valid for the bi-criteria problems too (thresholds
    only shrink the feasible set).
    """
    app, platform = spec.application, spec.platform
    total_speed = platform.total_speed
    if isinstance(app, ForkApplication):
        works = {stage.index: stage.work for stage in app.all_stages}
        if objective is Objective.PERIOD:
            return sum(works.values()) / total_speed
        speed = (
            total_speed if spec.allow_data_parallel else platform.fastest.speed
        )
        heaviest = max(branch.work for branch in app.branches)
        bound = works[0] / speed + heaviest / speed
        if isinstance(app, ForkJoinApplication):
            return bound + works[app.n + 1] / speed
        return bound
    return sum(stage.work for stage in app.stages) / total_speed


def optimal(
    spec: ProblemSpec,
    objective: Objective,
    period_bound: float | None = None,
    latency_bound: float | None = None,
    context: SolveContext | None = None,
    budget: Budget | None = None,
) -> Solution:
    """Branch-and-bound exact optimum (same contract as the enumerator).

    Minimizes ``objective``; ``period_bound`` / ``latency_bound`` turn the
    call into the paper's bi-criteria problems.  ``context`` (a
    :class:`~repro.algorithms.solve_context.SolveContext` of this instance)
    shares the search tables across the repeated solves of a threshold
    sweep; the result is bit-identical with or without one.  Raises
    :class:`InfeasibleProblemError` when no valid mapping meets the bounds.

    ``budget`` (:class:`~repro.algorithms.budget.Budget`) caps the search
    effort.  A solve that completes within budget is exact
    (``meta["status"] == "optimal"``); an exhausted budget returns the
    best incumbent found so far with ``meta["status"] ==
    "budget_exhausted"`` plus ``lower_bound`` / ``gap`` /
    ``budget_reason`` meta fields — see :mod:`repro.algorithms.budget`
    for the anytime/determinism semantics.  If the budget runs out with
    no incumbent (infeasibly tight thresholds), raises
    :class:`~repro.algorithms.budget.BudgetExhaustedError`.
    """
    context = SolveContext(spec) if context is None else context.require(spec)
    meter = (
        BudgetMeter(budget)
        if budget is not None and budget.is_bounded else None
    )
    search = _Search(objective, period_bound, latency_bound, meter)
    _seed_incumbent(spec, search, context)
    app = spec.application
    status = "optimal"
    try:
        if isinstance(app, ForkApplication):
            _solve_fork_like(spec, search, context)
        else:
            _solve_pipeline(spec, search, context)
    except _BudgetStop:
        status = "budget_exhausted"
    mapping_cls = PipelineMapping
    if isinstance(app, ForkApplication):
        mapping_cls = (
            ForkJoinMapping if isinstance(app, ForkJoinApplication) else ForkMapping
        )
    if search.best_groups is None:
        if status == "budget_exhausted":
            raise BudgetExhaustedError(
                f"budget exhausted ({meter.reason}) after {search.nodes} "
                f"nodes with no feasible incumbent "
                f"(period<={period_bound}, latency<={latency_bound}): "
                "neither solved nor proven infeasible within this budget",
                nodes=search.nodes,
                reason=meter.reason,
            )
        raise InfeasibleProblemError(
            f"no valid mapping satisfies the bounds (period<={period_bound}, "
            f"latency<={latency_bound})"
        )
    mapping = mapping_cls(
        application=app,
        platform=spec.platform,
        groups=tuple(
            GroupAssignment(stages=s, processors=procs, kind=kind)
            for s, procs, kind in search.best_groups
        ),
    )
    assert is_valid(mapping, spec.allow_data_parallel)
    meta = {
        "algorithm": "bnb",
        "nodes": search.nodes,
        "pruned": search.pruned,
        "memo_hits": search.memo_hits,
        "status": status,
    }
    if status == "budget_exhausted":
        lower = root_lower_bound(spec, objective)
        meta["lower_bound"] = lower
        meta["budget"] = meter.budget.to_dict()
        meta["budget_reason"] = meter.reason
    solution = Solution.from_mapping(mapping, **meta)
    # verified wrapper contract: the incremental value must match the
    # authoritative cost model on the returned mapping (the incumbent is
    # always a fully-priced mapping, budgeted stop or not)
    value = solution.period if objective is Objective.PERIOD else solution.latency
    scale = max(1.0, abs(value))
    assert abs(value - search.best_value) <= 1e-6 * scale, (
        f"bnb incremental value {search.best_value} drifted from "
        f"evaluate() value {value}"
    )
    if status == "budget_exhausted":
        lower = meta["lower_bound"]
        solution.meta["gap"] = (
            (value - lower) / lower if lower > 0.0
            else (0.0 if value <= FLOAT_TOL else _INF)
        )
    return solution
