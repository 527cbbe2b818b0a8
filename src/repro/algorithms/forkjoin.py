"""Fork-join graphs (Section 6.3): every fork result extends.

* :func:`min_period_hom_platform` — replicate-all is still optimal on
  homogeneous platforms (Theorem 10 extension), for any fork-join.
* :func:`solve_hom_platform` — homogeneous fork-join on a homogeneous
  platform: the Theorem 11 dynamic programs gain two outer loops, over the
  branches co-located with the join stage and over its processor count (the
  paper sketches exactly this extension, raising the complexity by
  ``O(n p)``).
* :func:`solve_het_platform` — homogeneous fork-join on a heterogeneous
  platform without data-parallelism: the Theorem 14 block DP gains a second
  special block for the join stage (one more loop, ``O(p)`` extra as in the
  paper's ``O(p^6)`` bound).  A feasibility test tries ``O(p^2)`` root/join
  placements at ``O(p^2)`` each, plus ``O(p^3)`` per plain-block interval
  table it needs.  The solve builds each table once per distinct capacity
  table and reuses it across placements and binary-search steps: one
  table per test on a period solve, at most ``O(p^2)`` under a latency
  bound.

Latency model (see :func:`repro.core.costs.forkjoin_latency`): all branch
stages must complete before the join work starts; the join group first
processes its own branch stages.  On a homogeneous platform the latency of
a plan is therefore::

    max(t0 + n0 w/s, t0 + nj w/s, t0 + max_rest m w/s) + wj/s_join

with ``t0`` the root completion time — minimizing the *largest group branch
count* under the processor budget, which the DPs below do.
"""

from __future__ import annotations

import itertools

from ..core.application import ForkJoinApplication
from ..core.costs import FLOAT_TOL
from ..core.exceptions import (
    InfeasibleProblemError,
    UnsupportedVariantError,
)
from ..core.mapping import AssignmentKind, ForkJoinMapping, GroupAssignment
from ..core.platform import Platform
from .fork_hom_platform import _rest_dp, _rest_groups_from_dp
from .problem import Objective, Solution
from .search import (
    block_capacities,
    ceil_div_tol,
    floor_div_tol,
    smallest_feasible,
    unique_sorted,
)

__all__ = [
    "min_period_hom_platform",
    "solve_hom_platform",
    "solve_het_platform",
]

INF = float("inf")


def min_period_hom_platform(
    app: ForkJoinApplication, platform: Platform, allow_data_parallel: bool = True
) -> Solution:
    """Replicate all stages (root, branches, join) over all processors."""
    if not platform.is_homogeneous:
        raise UnsupportedVariantError(
            "replicate-all is only optimal on homogeneous platforms; use "
            "solve_het_platform for heterogeneous ones"
        )
    del allow_data_parallel
    group = GroupAssignment(
        stages=tuple(range(app.n + 2)),
        processors=tuple(range(platform.p)),
        kind=AssignmentKind.REPLICATED,
    )
    mapping = ForkJoinMapping(application=app, platform=platform, groups=(group,))
    return Solution.from_mapping(mapping, algorithm="thm10-forkjoin")


# ======================================================================
# homogeneous platform (Theorem 11 extension)
# ======================================================================
def _require_hom_forkjoin(app: ForkJoinApplication) -> tuple[float, float, float]:
    if not app.is_homogeneous:
        raise UnsupportedVariantError(
            "the polynomial fork-join algorithms require equal branch works "
            "(Theorem 12 makes the heterogeneous case NP-hard); use "
            "repro.algorithms.exact"
        )
    return app.root.work, app.branches[0].work, app.join.work


class _Plan:
    """root group, optional join group, rest groups; all counts/kinds."""

    __slots__ = ("latency", "n0", "q0", "root_kind", "join_in_root",
                 "nj", "qj", "join_kind", "rest")

    def __init__(self, latency, n0, q0, root_kind, join_in_root, nj, qj,
                 join_kind, rest):
        self.latency = latency
        self.n0, self.q0, self.root_kind = n0, q0, root_kind
        self.join_in_root = join_in_root
        self.nj, self.qj, self.join_kind = nj, qj, join_kind
        self.rest = rest  # list of (branch_count, proc_count, kind)


def _best_plan_hom(
    app: ForkJoinApplication,
    platform: Platform,
    K: float,
    allow_dp: bool,
) -> _Plan | None:
    if allow_dp and any(s.dp_overhead > 0 for s in app.all_stages):
        raise UnsupportedVariantError(
            "the fork-join closed forms assume zero Amdahl overhead; use "
            "repro.algorithms.brute_force for small instances with overheads"
        )
    w0, w, wj = _require_hom_forkjoin(app)
    s = platform.processors[0].speed
    n, p = app.n, platform.p
    best: _Plan | None = None

    def consider(plan: _Plan) -> None:
        nonlocal best
        if best is None or plan.latency < best.latency - FLOAT_TOL:
            best = plan

    def fits(value: float) -> bool:
        return value <= K * (1 + FLOAT_TOL)

    D = back = None
    if not allow_dp:
        D, back = _rest_dp(n, p, w, s, K)

    def rest_plans(rest: int, qr: int):
        """Yield (max_rest_delay, groups) choices for the leftover branches."""
        if rest == 0:
            yield 0.0, []
            return
        if qr < 1:
            return
        if allow_dp:
            cost = rest * w / (qr * s)
            if fits(cost):
                yield cost, [(rest, qr, AssignmentKind.DATA_PARALLEL)]
            return
        d = D[rest][qr]
        if d < INF:
            yield d, [
                (m, k, AssignmentKind.REPLICATED)
                for m, k in _rest_groups_from_dp(back, rest, qr)
            ]

    # --- case A: join inside the root group (replicated) -----------------
    for n0 in range(n + 1):
        root_work = w0 + n0 * w + wj
        q0 = 1 if K == INF else max(1, ceil_div_tol(root_work, K * s))
        if q0 > p:
            continue
        t0 = w0 / s
        for d, rest in rest_plans(n - n0, p - q0):
            branches_done = max(t0 + n0 * w / s, t0 + d if n - n0 else 0.0)
            latency = max(branches_done, t0 + n0 * w / s) + wj / s
            consider(
                _Plan(latency, n0, q0, AssignmentKind.REPLICATED, True,
                      0, 0, None, rest)
            )

    # --- case B: join in its own group ------------------------------------
    root_options = []
    for n0 in range(n + 1):
        root_work = w0 + n0 * w
        q0 = 1 if K == INF else max(1, ceil_div_tol(root_work, K * s))
        if q0 <= p:
            root_options.append((AssignmentKind.REPLICATED, n0, q0, w0 / s))
    if allow_dp:
        for q0 in range(1, p):
            if fits(w0 / (q0 * s)):
                root_options.append(
                    (AssignmentKind.DATA_PARALLEL, 0, q0, w0 / (q0 * s))
                )

    join_options = []
    for nj in range(n + 1):
        join_work = nj * w + wj
        qj = 1 if K == INF else max(1, ceil_div_tol(join_work, K * s))
        join_options.append((AssignmentKind.REPLICATED, nj, qj, s))
    if allow_dp:
        for qj in range(2, p):
            if fits(wj / (qj * s)):
                join_options.append((AssignmentKind.DATA_PARALLEL, 0, qj, qj * s))

    for (rk, n0, q0, t0), (jk, nj, qj, s_join) in itertools.product(
        root_options, join_options
    ):
        if n0 + nj > n or q0 + qj > p:
            continue
        for d, rest in rest_plans(n - n0 - nj, p - q0 - qj):
            branches_done = max(
                t0 + n0 * w / s,
                t0 + nj * w / s,
                t0 + d if n - n0 - nj else t0,
            )
            latency = branches_done + wj / s_join
            consider(_Plan(latency, n0, q0, rk, False, nj, qj, jk, rest))
    return best


def _mapping_from_plan_hom(
    app: ForkJoinApplication, platform: Platform, plan: _Plan
) -> ForkJoinMapping:
    groups: list[GroupAssignment] = []
    next_branch, next_proc = 1, 0
    join_index = app.n + 1

    root_stages = [0, *range(next_branch, next_branch + plan.n0)]
    next_branch += plan.n0
    if plan.join_in_root:
        root_stages.append(join_index)
    groups.append(
        GroupAssignment(
            stages=tuple(root_stages),
            processors=tuple(range(next_proc, next_proc + plan.q0)),
            kind=plan.root_kind,
        )
    )
    next_proc += plan.q0

    if not plan.join_in_root:
        join_stages = list(range(next_branch, next_branch + plan.nj))
        next_branch += plan.nj
        join_stages.append(join_index)
        groups.append(
            GroupAssignment(
                stages=tuple(join_stages),
                processors=tuple(range(next_proc, next_proc + plan.qj)),
                kind=plan.join_kind,
            )
        )
        next_proc += plan.qj

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
    return ForkJoinMapping(application=app, platform=platform, groups=tuple(groups))


def _period_candidates_hom(app: ForkJoinApplication, platform: Platform):
    w0, w, wj = app.root.work, app.branches[0].work, app.join.work
    s = platform.processors[0].speed
    n, p = app.n, platform.p
    values = []
    for k in range(1, p + 1):
        for m in range(n + 1):
            values.append((w0 + m * w) / (k * s))
            values.append((w0 + m * w + wj) / (k * s))
            values.append((m * w + wj) / (k * s))
            if m:
                values.append(m * w / (k * s))
        values.append(w0 / (k * s))
        values.append(wj / (k * s))
    return unique_sorted(values)


def solve_hom_platform(
    app: ForkJoinApplication,
    platform: Platform,
    objective: Objective,
    period_bound: float | None = None,
    latency_bound: float | None = None,
    allow_data_parallel: bool = True,
) -> Solution:
    """Homogeneous fork-join on a homogeneous platform: latency/bi-criteria.

    ``objective = PERIOD`` without a latency bound is the replicate-all case
    (use :func:`min_period_hom_platform`); with a latency bound we binary
    search the candidate periods.
    """
    if not platform.is_homogeneous:
        raise UnsupportedVariantError("use solve_het_platform")

    if objective is Objective.LATENCY:
        K = INF if period_bound is None else period_bound
        plan = _best_plan_hom(app, platform, K, allow_data_parallel)
        if plan is None:
            raise InfeasibleProblemError(
                f"no mapping achieves period <= {period_bound}"
            )
        mapping = _mapping_from_plan_hom(app, platform, plan)
        return Solution.from_mapping(mapping, algorithm="thm11-forkjoin")

    if latency_bound is None:
        return min_period_hom_platform(app, platform, allow_data_parallel)

    def feasible(period: float) -> bool:
        plan = _best_plan_hom(
            app, platform, period * (1 + FLOAT_TOL), allow_data_parallel
        )
        return plan is not None and plan.latency <= latency_bound * (1 + FLOAT_TOL)

    period = smallest_feasible(
        _period_candidates_hom(app, platform), feasible, what="period"
    )
    plan = _best_plan_hom(
        app, platform, period * (1 + FLOAT_TOL), allow_data_parallel
    )
    assert plan is not None
    mapping = _mapping_from_plan_hom(app, platform, plan)
    return Solution.from_mapping(mapping, algorithm="thm11-forkjoin-binary-search")


# ======================================================================
# heterogeneous platform, no data-parallelism (Theorem 14 extension)
# ======================================================================
class _HetEngine:
    """Feasibility under (K, L) with a root block and a join block.

    Processors are sorted by non-decreasing speed; groups are consecutive
    blocks (Lemma 4 extended as the paper sketches in Section 6.3).  The two
    special blocks may coincide (root and join in one group).

    One engine serves one solve.  It memoizes the plain-block interval
    tables by ``(K, budget)`` and then by the capacity table they depend
    on, so the ``p + p (p - 1)`` root/join placements of a feasibility
    test share one table whenever their budgets agree (always on period
    solves, where every budget is infinite), and so do the binary-search
    steps whose bounds leave the capacities unchanged.
    """

    def __init__(self, app: ForkJoinApplication, platform: Platform) -> None:
        self.app, self.platform = app, platform
        self.w0, self.w, self.wj = _require_hom_forkjoin(app)
        self.order = platform.sorted_by_speed(descending=False)
        self.speeds = [proc.speed for proc in self.order]
        self.n, self.p = app.n, platform.p
        self._by_bounds: dict[tuple[float, float], tuple] = {}
        self._by_caps: dict[tuple, tuple] = {}

    # -- capacities --------------------------------------------------------
    def _cap_from_limit(self, limit: float) -> int:
        if limit == INF:
            return self.n
        if limit < -FLOAT_TOL:
            return -1
        return min(self.n, max(0, floor_div_tol(limit, self.w)))

    def _cap_root(self, i: int, k: int, K: float, Lp: float) -> int:
        """Root-only block: period (w0+mw)/(k s) <= K, done (w0+mw)/s <= L'."""
        limit = INF
        if K != INF:
            limit = K * k * self.speeds[i] - self.w0
        if Lp != INF:
            limit = min(limit, Lp * self.speeds[i] - self.w0)
        return self._cap_from_limit(limit)

    def _cap_join(self, i: int, k: int, K: float, Lp: float, t0: float) -> int:
        """Join-only block: period (mw+wj)/(k s) <= K, t0 + mw/s <= L'."""
        limit = INF
        if K != INF:
            limit = K * k * self.speeds[i] - self.wj
        if Lp != INF:
            limit = min(limit, (Lp - t0) * self.speeds[i])
        return self._cap_from_limit(limit)

    def _cap_rootjoin(self, i: int, k: int, K: float, Lp: float) -> int:
        """Combined block: period (w0+mw+wj)/(k s) <= K, (w0+mw)/s <= L'."""
        limit = INF
        if K != INF:
            limit = K * k * self.speeds[i] - self.w0 - self.wj
        if Lp != INF:
            limit = min(limit, Lp * self.speeds[i] - self.w0)
        return self._cap_from_limit(limit)

    # -- interval DP over plain blocks --------------------------------------
    def _tables(self, K: float, budget: float):
        """``(caps, M, split)`` for plain blocks under ``(K, budget)``."""
        got = self._by_bounds.get((K, budget))
        if got is None:
            caps = block_capacities(self.speeds, self.n, self.w, K, budget)
            got = self._by_caps.get(caps)
            if got is None:
                got = self._by_caps[caps] = (caps, *self._interval_table(caps))
            self._by_bounds[(K, budget)] = got
        return got

    def _interval_table(self, caps):
        """``M[a][b]`` = max branches over procs ``a..b`` in plain blocks
        (with the usual split trick this is an O(p^3) prefix-style DP)."""
        p = self.p
        M = [[0] * (p + 1) for _ in range(p + 2)]
        split = [[-1] * (p + 1) for _ in range(p + 2)]
        for a in range(p - 1, -1, -1):
            row = caps[a]
            for b in range(a, p):
                best, arg = -1, a
                for e in range(a, b + 1):
                    value = row[e - a] + (M[e + 1][b] if e + 1 <= b else 0)
                    if value > best:
                        best, arg = value, e
                M[a][b] = best
                split[a][b] = arg
        return M, split

    # -- search --------------------------------------------------------------
    def _search(self, K: float, L: float):
        """Find a feasible block layout; returns a description or ``None``."""
        p, n = self.p, self.n

        def segment(M, a: int, b: int) -> int:
            return M[a][b] if a <= b else 0

        # combined root+join block
        for i in range(p):
            Lp = INF if L == INF else L - self.wj / self.speeds[i]
            t0 = self.w0 / self.speeds[i]
            budget = INF if Lp == INF else Lp - t0
            caps, M, split = self._tables(K, budget)
            for j in range(i, p):
                cap = self._cap_rootjoin(i, j - i + 1, K, Lp)
                if cap < 0:
                    continue
                if segment(M, 0, i - 1) + cap + segment(M, j + 1, p - 1) >= n:
                    return {
                        "combined": (i, j, cap),
                        "segments": [(0, i - 1), (j + 1, p - 1)],
                        "tables": (caps, split),
                    }
        # separate blocks, both orders on the speed line
        for i0 in range(p):
            t0 = self.w0 / self.speeds[i0]
            for ij in range(p):
                if ij == i0:
                    continue
                Lp = INF if L == INF else L - self.wj / self.speeds[ij]
                budget = INF if Lp == INF else Lp - t0
                caps, M, split = self._tables(K, budget)
                lo, hi = min(i0, ij), max(i0, ij)
                # the root and join capacities per block end, in one loop
                # each: the lower block ends in [lo, hi), the upper in [hi, p)
                root = [
                    self._cap_root(i0, e - i0 + 1, K, Lp)
                    for e in range(i0, hi if i0 < ij else p)
                ]
                join = [
                    self._cap_join(ij, e - ij + 1, K, Lp, t0)
                    for e in range(ij, hi if ij < i0 else p)
                ]
                head = segment(M, 0, lo - 1)
                for j_lo in range(lo, hi):
                    for j_hi in range(hi, p):
                        if i0 < ij:
                            root_span, join_span = (i0, j_lo), (ij, j_hi)
                        else:
                            join_span, root_span = (ij, j_lo), (i0, j_hi)
                        cap0 = root[root_span[1] - i0]
                        capj = join[join_span[1] - ij]
                        if cap0 < 0 or capj < 0:
                            continue
                        total = (
                            head
                            + cap0
                            + capj
                            + segment(M, j_lo + 1, hi - 1)
                            + segment(M, j_hi + 1, p - 1)
                        )
                        if total >= n:
                            return {
                                "root": (*root_span, cap0),
                                "join": (*join_span, capj),
                                "segments": [
                                    (0, lo - 1),
                                    (j_lo + 1, hi - 1),
                                    (j_hi + 1, p - 1),
                                ],
                                "tables": (caps, split),
                            }
        return None

    def feasible(self, K: float, L: float) -> bool:
        return self._search(K, L) is not None

    # -- reconstruction --------------------------------------------------------
    def build(self, K: float, L: float) -> ForkJoinMapping:
        found = self._search(K, L)
        if found is None:
            raise InfeasibleProblemError(
                f"no mapping achieves period <= {K} and latency <= {L}"
            )
        caps, split = found["tables"]
        blocks: list[tuple[int, int, int, str]] = []
        if "combined" in found:
            i, j, cap = found["combined"]
            blocks.append((i, j, cap, "root+join"))
        else:
            blocks.append((*found["root"], "root"))
            blocks.append((*found["join"], "join"))
        for a, b in found["segments"]:
            pos = a
            while pos <= b:
                e = split[pos][b]
                blocks.append((pos, e, caps[pos][e - pos], "plain"))
                pos = e + 1

        # special blocks first so they always receive their stages
        priority = {"root+join": 0, "root": 0, "join": 0, "plain": 1}
        blocks.sort(key=lambda blk: priority[blk[3]])
        remaining = self.n
        next_branch = 1
        join_index = self.n + 1
        groups = []
        for start, end, cap, role in blocks:
            take = min(remaining, max(cap, 0))
            remaining -= take
            stages = list(range(next_branch, next_branch + take))
            next_branch += take
            if role in ("root", "root+join"):
                stages.insert(0, 0)
            if role in ("join", "root+join"):
                stages.append(join_index)
            if not stages:
                continue
            procs = tuple(
                sorted(self.order[t].index for t in range(start, end + 1))
            )
            groups.append(
                GroupAssignment(
                    stages=tuple(stages),
                    processors=procs,
                    kind=AssignmentKind.REPLICATED,
                )
            )
        if remaining > 0:
            raise InfeasibleProblemError("internal: reconstruction failed")
        return ForkJoinMapping(
            application=self.app, platform=self.platform, groups=tuple(groups)
        )

    # -- candidates ---------------------------------------------------------
    def period_candidates(self):
        values = []
        for i in range(self.p):
            s = self.speeds[i]
            for k in range(1, self.p - i + 1):
                for m in range(self.n + 1):
                    base = m * self.w
                    values.append((base + self.w0) / (k * s))
                    values.append((base + self.wj) / (k * s))
                    values.append((base + self.w0 + self.wj) / (k * s))
                    if m:
                        values.append(base / (k * s))
        return unique_sorted(values)

    def latency_candidates(self):
        # candidates depend on speed values only, so loop over distinct ones
        speeds = set(self.speeds)
        w0, w, wj = self.w0, self.w, self.wj
        values = set()
        for s0 in speeds:
            t0 = w0 / s0
            for sj in speeds:
                tj = wj / sj
                values.update(
                    (w0 + m * w) / s0 + tj for m in range(self.n + 1)
                )
                values.update(
                    t0 + m * w / s + tj
                    for m in range(1, self.n + 1)
                    for s in speeds
                )
        return unique_sorted(values)


def solve_het_platform(
    app: ForkJoinApplication,
    platform: Platform,
    objective: Objective,
    period_bound: float | None = None,
    latency_bound: float | None = None,
) -> Solution:
    """Homogeneous fork-join on a heterogeneous platform (no data-par)."""
    engine = _HetEngine(app, platform)
    K = INF if period_bound is None else period_bound * (1 + FLOAT_TOL)
    L = INF if latency_bound is None else latency_bound * (1 + FLOAT_TOL)

    if objective is Objective.PERIOD:
        value = smallest_feasible(
            engine.period_candidates(),
            lambda cand: engine.feasible(cand * (1 + FLOAT_TOL), L),
            what="period",
        )
        K = value * (1 + FLOAT_TOL)
    else:
        value = smallest_feasible(
            engine.latency_candidates(),
            lambda cand: engine.feasible(K, cand * (1 + FLOAT_TOL)),
            what="latency",
        )
        L = value * (1 + FLOAT_TOL)

    mapping = engine.build(K, L)
    return Solution.from_mapping(mapping, algorithm="thm14-forkjoin")
