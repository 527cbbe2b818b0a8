"""Homogeneous fork on **heterogeneous platforms** without data-parallelism
— Theorem 14 (``Poly (str)`` / ``Poly (*)`` entries of Table 1, lower half).

Structure (paper Lemma 4): sort processors by non-decreasing speed; there is
an optimal solution whose groups are consecutive *blocks* of this order, one
of which — starting at position ``q0`` — holds the root :math:`S_0`.  Block
costs only depend on the block size and its minimum speed (its first
processor), so feasibility under a period bound ``K`` and latency bound
``L`` reduces to a prefix/suffix DP around the root block:

* root block ``[i0..j0]`` (k0 processors, min speed ``s0``) holding ``m0``
  branches: needs ``(w0 + m0 w)/(k0 s0) <= K`` and delay
  ``(w0 + m0 w)/s0 <= L``;
* any other block ``[i..j]`` holding ``m`` branches starts once the root
  completes, at ``t0 = w0/s0``: needs ``m w/(k s_i) <= K`` and
  ``t0 + m w/s_i <= L``.

Maximizing the branch count handled by each side of the root block is a
prefix (resp. suffix) DP; the instance is feasible when some choice of the
root block reaches ``n`` branches in total.  The tables depend on the
bounds only through the plain-block capacities, so one solve builds each
prefix/suffix pair once per distinct capacity table and reuses it across
root positions (one pair per feasibility test on a period solve, where
every root shares ``L = inf``) and across binary-search steps.  The
optimum is found by an exact binary search over the finite candidate
sets of achievable group periods / latencies (see
:mod:`repro.algorithms.search`), replacing the paper's epsilon binary
search.

Heterogeneous forks are NP-hard on heterogeneous platforms for both
objectives (Theorem 15); use :mod:`repro.algorithms.exact`.
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
from .problem import Objective, Solution
from .search import (
    block_capacities,
    floor_div_tol,
    smallest_feasible,
    unique_sorted,
)

__all__ = [
    "min_period_homogeneous",
    "min_latency_homogeneous",
    "min_latency_given_period_homogeneous",
    "min_period_given_latency_homogeneous",
    "solve_homogeneous",
]

INF = float("inf")


def _require_homogeneous_fork(app: ForkApplication) -> tuple[float, float]:
    if not app.is_homogeneous:
        raise UnsupportedVariantError(
            "Theorem 14 requires a homogeneous fork; heterogeneous forks on "
            "heterogeneous platforms are NP-hard (Theorem 15) — use "
            "repro.algorithms.exact or repro.heuristics"
        )
    return app.root.work, app.branches[0].work


class _Engine:
    """Feasibility tester / reconstructor for one (application, platform).

    One engine serves one solve; it memoizes the prefix/suffix tables by
    ``(K, L0)`` and then by the capacity table they depend on.
    """

    def __init__(self, app: ForkApplication, platform: Platform) -> None:
        self.app = app
        self.platform = platform
        self.w0, self.w = _require_homogeneous_fork(app)
        self.order = platform.sorted_by_speed(descending=False)
        self.speeds = [proc.speed for proc in self.order]
        self.n = app.n
        self.p = platform.p
        self._by_bounds: dict[tuple[float, float], tuple] = {}
        self._by_caps: dict[tuple, tuple] = {}

    # -- block capacities ------------------------------------------------
    def _cap_root(self, i0: int, k0: int, K: float, L: float) -> int | None:
        """Max branches of the root block, or None when even ``m0 = 0`` fails."""
        limit = INF
        if K != INF:
            limit = K * k0 * self.speeds[i0]
        if L != INF:
            limit = min(limit, L * self.speeds[i0])
        if limit == INF:
            return self.n
        slack = limit - self.w0
        if slack < -FLOAT_TOL * max(1.0, limit):
            return None
        return min(self.n, max(0, floor_div_tol(slack, self.w)))

    # -- prefix/suffix DPs ------------------------------------------------
    def _tables(self, K: float, L0: float):
        """``(caps, prefix tables, suffix tables)`` under ``(K, L0)``."""
        got = self._by_bounds.get((K, L0))
        if got is None:
            caps = block_capacities(self.speeds, self.n, self.w, K, L0)
            got = self._by_caps.get(caps)
            if got is None:
                got = self._by_caps[caps] = (
                    caps, self._prefix(caps), self._suffix(caps)
                )
            self._by_bounds[(K, L0)] = got
        return got

    def _prefix(self, caps) -> tuple[list[int], list[int]]:
        """``F[j]`` = max branches over non-root blocks covering ``0..j-1``."""
        p = self.p
        F = [0] * (p + 1)
        split = [0] * (p + 1)
        for j in range(1, p + 1):
            best, arg = -1, 0
            for i in range(j):
                value = F[i] + caps[i][j - i - 1]
                if value > best:
                    best, arg = value, i
            F[j], split[j] = best, arg
        return F, split

    def _suffix(self, caps) -> tuple[list[int], list[int]]:
        """``S[j]`` = max branches over non-root blocks covering ``j..p-1``."""
        p = self.p
        S = [0] * (p + 2)
        split = [0] * (p + 2)
        for j in range(p - 1, -1, -1):
            best, arg = -1, p - 1
            row = caps[j]
            for e in range(j, p):
                value = row[e - j] + S[e + 1]
                if value > best:
                    best, arg = value, e
            S[j], split[j] = best, arg
        return S, split

    # -- feasibility -------------------------------------------------------
    def feasible(self, K: float, L: float) -> bool:
        return self._search(K, L) is not None

    def _search(self, K: float, L: float):
        """Return ``(i0, j0, caps, prefix tables, suffix tables)`` or None."""
        for i0 in range(self.p):
            t0 = self.w0 / self.speeds[i0]
            L0 = INF if L == INF else L - t0
            caps, (F, fsplit), (S, ssplit) = self._tables(K, L0)
            for j0 in range(i0, self.p):
                cap0 = self._cap_root(i0, j0 - i0 + 1, K, L)
                if cap0 is None:
                    continue
                if F[i0] + cap0 + S[j0 + 1] >= self.n:
                    return i0, j0, caps, (F, fsplit), (S, ssplit)
        return None

    # -- reconstruction ----------------------------------------------------
    def build(self, K: float, L: float) -> ForkMapping:
        found = self._search(K, L)
        if found is None:
            raise InfeasibleProblemError(
                f"no mapping achieves period <= {K} and latency <= {L}"
            )
        i0, j0, caps, (F, fsplit), (S, ssplit) = found

        # blocks as (start, end, capacity, is_root)
        blocks: list[tuple[int, int, int, bool]] = []
        j = i0
        while j > 0:
            i = fsplit[j]
            blocks.append((i, j - 1, caps[i][j - i - 1], False))
            j = i
        root_cap = self._cap_root(i0, j0 - i0 + 1, K, L)
        assert root_cap is not None
        blocks.append((i0, j0, root_cap, True))
        j = j0 + 1
        while j < self.p:
            e = ssplit[j]
            blocks.append((j, e, caps[j][e - j], False))
            j = e + 1

        # distribute the n branches greedily (identical branches: any split
        # respecting the capacities is optimal); root block served first so
        # it is never dropped.
        blocks.sort(key=lambda b: not b[3])
        remaining = self.n
        groups: list[GroupAssignment] = []
        next_branch = 1
        for start, end, cap, is_root in blocks:
            take = min(remaining, cap)
            remaining -= take
            stages = list(range(next_branch, next_branch + take))
            next_branch += take
            if is_root:
                stages = [0, *stages]
            if not stages:
                continue
            procs = tuple(sorted(self.order[t].index for t in range(start, end + 1)))
            groups.append(
                GroupAssignment(
                    stages=tuple(stages),
                    processors=procs,
                    kind=AssignmentKind.REPLICATED,
                )
            )
        if remaining > 0:
            raise InfeasibleProblemError("internal: reconstruction failed")
        return ForkMapping(
            application=self.app, platform=self.platform, groups=tuple(groups)
        )

    # -- candidate sets ------------------------------------------------------
    def period_candidates(self) -> list[float]:
        values = []
        for i in range(self.p):
            s = self.speeds[i]
            for k in range(1, self.p - i + 1):
                for m in range(1, self.n + 1):
                    values.append(m * self.w / (k * s))
                for m0 in range(self.n + 1):
                    values.append((self.w0 + m0 * self.w) / (k * s))
        return unique_sorted(values)

    def latency_candidates(self) -> list[float]:
        values = []
        for i0 in range(self.p):
            s0 = self.speeds[i0]
            for m0 in range(self.n + 1):
                values.append((self.w0 + m0 * self.w) / s0)
            t0 = self.w0 / s0
            for i in range(self.p):
                if i == i0:
                    continue
                for m in range(1, self.n + 1):
                    values.append(t0 + m * self.w / self.speeds[i])
        return unique_sorted(values)


def solve_homogeneous(
    app: ForkApplication,
    platform: Platform,
    objective: Objective,
    period_bound: float | None = None,
    latency_bound: float | None = None,
) -> Solution:
    """Theorem 14: optimal mapping of a homogeneous fork, all objectives.

    Mono-criterion problems leave the other bound ``None``; bi-criteria
    problems provide it.  Complexity: ``O(n p^2)`` candidates, hence
    ``O(log(n p))`` feasibility tests, each ``O(p^3)``: ``p`` root
    positions with ``O(p^2)`` capacity work each, plus the ``O(p^2)``
    prefix/suffix DPs of every distinct capacity table.
    """
    engine = _Engine(app, platform)
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
    return Solution.from_mapping(mapping, algorithm="thm14-binary-search-dp")


def min_period_homogeneous(app: ForkApplication, platform: Platform) -> Solution:
    """Theorem 14, period objective, no latency bound."""
    return solve_homogeneous(app, platform, Objective.PERIOD)


def min_latency_homogeneous(app: ForkApplication, platform: Platform) -> Solution:
    """Theorem 14, latency objective, no period bound."""
    return solve_homogeneous(app, platform, Objective.LATENCY)


def min_latency_given_period_homogeneous(
    app: ForkApplication, platform: Platform, period_bound: float
) -> Solution:
    """Theorem 14, bi-criteria: min latency under a period bound."""
    return solve_homogeneous(
        app, platform, Objective.LATENCY, period_bound=period_bound
    )


def min_period_given_latency_homogeneous(
    app: ForkApplication, platform: Platform, latency_bound: float
) -> Solution:
    """Theorem 14, bi-criteria: min period under a latency bound."""
    return solve_homogeneous(
        app, platform, Objective.PERIOD, latency_bound=latency_bound
    )
