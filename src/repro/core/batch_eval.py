"""Vectorized batch evaluation of candidate mappings (numpy kernel).

:func:`repro.core.costs.evaluate` prices one mapping at a time, rebuilding
the per-stage work/overhead tables and walking the groups in Python on every
call.  That is the right single source of truth, but it is far too slow for
callers that score *many* candidate mappings of the same instance — the
local-search neighbourhood (hundreds of candidates per round), the random
baseline portfolio, and the branch-and-bound benchmarks.

:class:`BatchEvaluator` precomputes the instance tables once and evaluates a
whole list of mappings in a handful of numpy operations:

1. all groups of all candidate mappings are flattened into parallel arrays
   ``(work, dp_overhead, min_speed, sum_speed, k, is_dp)`` — per-subset and
   per-stage-set lookups are memoized across candidates, so repeated groups
   (the common case in a neighbourhood) cost one dict hit;
2. per-group periods and delays are computed in one vectorized shot::

       period = where(is_dp, overhead + work / sum_speed,
                             work / (k * min_speed))
       delay  = where(is_dp, overhead + work / sum_speed, work / min_speed)

3. per-mapping aggregation uses ``np.maximum.reduceat`` / ``np.add.reduceat``
   over the flattened group arrays (mappings hold contiguous group runs).

The formulas mirror :mod:`repro.core.costs` exactly — including the fork
flexible model, the fork-join branch/join phases and the Amdahl
``dp_overhead`` extension — and the equivalence is pinned down by the
property tests in ``tests/core/test_batch_eval.py``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .application import ForkApplication, ForkJoinApplication
from .costs import FLOAT_TOL, evaluate
from .exceptions import ReproError
from .mapping import AssignmentKind, ForkJoinMapping, ForkMapping, PipelineMapping

__all__ = [
    "BatchEvaluator",
    "batch_evaluate",
    "feasible_argmin",
]


def feasible_argmin(
    periods: np.ndarray,
    latencies: np.ndarray,
    values: np.ndarray,
    period_bound: float | None = None,
    latency_bound: float | None = None,
) -> int | None:
    """Index of the smallest feasible value, or ``None`` when none is.

    Shared selection step of the batch-scored heuristics: candidates whose
    period/latency exceed a threshold (with the global ``FLOAT_TOL``
    semantics) are masked out before the argmin.
    """
    infeasible = np.zeros(len(values), dtype=bool)
    if period_bound is not None:
        infeasible |= periods > period_bound * (1 + FLOAT_TOL)
    if latency_bound is not None:
        infeasible |= latencies > latency_bound * (1 + FLOAT_TOL)
    masked = np.where(infeasible, np.inf, values)
    pick = int(np.argmin(masked))
    return None if not np.isfinite(masked[pick]) else pick


class BatchEvaluator:
    """Evaluate arrays of candidate mappings of one ``(application, platform)``.

    All mappings passed to :meth:`evaluate` must share the application and
    platform given at construction (this is what lets the stage tables and
    processor-subset metrics be hoisted out of the per-candidate loop).
    """

    def __init__(self, application, platform) -> None:
        self.application = application
        self.platform = platform
        stages = (
            application.all_stages
            if isinstance(application, ForkApplication)
            else application.stages
        )
        self._works = {stage.index: stage.work for stage in stages}
        self._overheads = {stage.index: stage.dp_overhead for stage in stages}
        self._speeds = platform.speeds
        self._is_forkjoin = isinstance(application, ForkJoinApplication)
        self._is_fork = isinstance(application, ForkApplication)
        self._join_index = application.n + 1 if self._is_forkjoin else None
        # memo caches shared across evaluate() calls
        self._subset_cache: dict[tuple[int, ...], tuple[float, float, int]] = {}
        self._stageset_cache: dict[
            tuple[int, ...], tuple[float, float, float, float]
        ] = {}

    # ------------------------------------------------------------------
    # memoized per-group lookups
    # ------------------------------------------------------------------
    def _subset_metrics(self, procs: tuple[int, ...]) -> tuple[float, float, int]:
        """(min_speed, sum_speed, k) of a processor subset, memoized."""
        got = self._subset_cache.get(procs)
        if got is None:
            speeds = [self._speeds[u] for u in procs]
            got = (min(speeds), sum(speeds), len(speeds))
            self._subset_cache[procs] = got
        return got

    def _stageset_metrics(
        self, stages: tuple[int, ...]
    ) -> tuple[float, float, float, float]:
        """(work, overhead, branch_work, branch_overhead) of a stage set.

        ``branch_*`` exclude the root and join stages (fork-join phases);
        they are zero-cost to compute for pipelines and plain forks too.
        """
        got = self._stageset_cache.get(stages)
        if got is None:
            work = sum(self._works[i] for i in stages)
            overhead = sum(self._overheads[i] for i in stages)
            branch = [
                i for i in stages if i != 0 and i != self._join_index
            ]
            branch_work = sum(self._works[i] for i in branch)
            branch_overhead = sum(self._overheads[i] for i in branch)
            got = (work, overhead, branch_work, branch_overhead)
            self._stageset_cache[stages] = got
        return got

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(self, mappings: Sequence) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(periods, latencies)`` arrays for the candidate mappings."""
        m = len(mappings)
        if m == 0:
            return np.empty(0), np.empty(0)

        counts = np.fromiter(
            (len(mp.groups) for mp in mappings), dtype=np.intp, count=m
        )
        total = int(counts.sum())
        work = np.empty(total)
        overhead = np.empty(total)
        branch_work = np.empty(total)
        branch_overhead = np.empty(total)
        min_speed = np.empty(total)
        sum_speed = np.empty(total)
        ks = np.empty(total)
        is_dp = np.zeros(total, dtype=bool)
        is_root = np.zeros(total, dtype=bool)
        is_join = np.zeros(total, dtype=bool)
        root_w0_term = np.empty(m)  # t0 of each mapping (fork shapes)
        join_time = np.empty(m)

        join_index = self._join_index
        j = 0
        for mi, mapping in enumerate(mappings):
            for group in mapping.groups:
                w, f, bw, bf = self._stageset_metrics(group.stages)
                ms, ss, k = self._subset_metrics(group.processors)
                dp = group.kind is AssignmentKind.DATA_PARALLEL
                work[j] = w
                overhead[j] = f
                branch_work[j] = bw
                branch_overhead[j] = bf
                min_speed[j] = ms
                sum_speed[j] = ss
                ks[j] = k
                is_dp[j] = dp
                if self._is_fork:
                    if 0 in group.stages:
                        is_root[j] = True
                        w0 = self._works[0]
                        if dp:
                            # a data-parallel root group holds S0 alone
                            root_w0_term[mi] = self._overheads[0] + w0 / ss
                        else:
                            root_w0_term[mi] = w0 / ms
                    if join_index is not None and join_index in group.stages:
                        is_join[j] = True
                        wj = self._works[join_index]
                        if dp:
                            join_time[mi] = (
                                (self._overheads[join_index] + wj / ss)
                                if wj > 0
                                else 0.0
                            )
                        else:
                            join_time[mi] = wj / ms
                j += 1

        starts = np.zeros(m, dtype=np.intp)
        np.cumsum(counts[:-1], out=starts[1:])

        dp_time = np.where(work > 0, overhead + work / sum_speed, 0.0)
        g_period = np.where(is_dp, dp_time, work / (ks * min_speed))
        g_delay = np.where(is_dp, dp_time, work / min_speed)

        periods = np.maximum.reduceat(g_period, starts)

        if not self._is_fork:
            latencies = np.add.reduceat(g_delay, starts)
            return periods, latencies

        t0 = root_w0_term  # per-mapping root completion time
        t0_g = np.repeat(t0, counts)  # broadcast to group granularity
        if self._is_forkjoin:
            # phase 2: every group runs its branch stages from t0
            dp_phase = np.where(
                branch_work > 0, branch_overhead + branch_work / sum_speed, 0.0
            )
            phase = np.where(is_dp, dp_phase, branch_work / min_speed)
            done = np.where(is_root | (branch_work > 0), t0_g + phase, t0_g)
            branches_done = np.maximum.reduceat(done, starts)
            latencies = branches_done + join_time
            return periods, latencies

        # plain fork: max(root delay, t0 + max non-root delay)
        root_delay = np.maximum.reduceat(
            np.where(is_root, g_delay, -np.inf), starts
        )
        others = np.maximum.reduceat(
            np.where(is_root, -np.inf, g_delay), starts
        )
        latencies = np.where(
            np.isneginf(others), root_delay, np.maximum(root_delay, t0 + others)
        )
        return periods, latencies

    # ------------------------------------------------------------------
    def cross_check(self, mappings: Sequence, rtol: float = 1e-9) -> None:
        """Assert the kernel agrees with :func:`repro.core.costs.evaluate`.

        Used by the simulator-validation benchmark and the property tests as
        a guard against formula drift between the scalar and vector paths.
        """
        periods, latencies = self.evaluate(mappings)
        for mapping, bp, bl in zip(mappings, periods, latencies):
            period, latency = evaluate(mapping)
            if not (
                np.isclose(bp, period, rtol=rtol)
                and np.isclose(bl, latency, rtol=rtol)
            ):
                raise ReproError(
                    f"batch evaluator disagrees with costs.evaluate: "
                    f"({bp}, {bl}) vs ({period}, {latency}) "
                    f"for {mapping.describe()}"
                )


def batch_evaluate(mappings: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """One-shot convenience: evaluate mappings sharing an instance.

    Builds a throwaway :class:`BatchEvaluator` from the first mapping; use
    the class directly when evaluating repeatedly for the same instance.
    """
    if not mappings:
        return np.empty(0), np.empty(0)
    first = mappings[0]
    if not isinstance(first, (PipelineMapping, ForkMapping, ForkJoinMapping)):
        raise ReproError(f"cannot batch-evaluate {type(first).__name__}")
    return BatchEvaluator(first.application, first.platform).evaluate(mappings)
