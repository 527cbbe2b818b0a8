"""Table 1 of the paper as executable data, plus the ``solve()`` façade.

:data:`TABLE` encodes the complexity status of every problem instance —
{pipeline, fork} x {hom/het application} x {hom/het platform} x {with/without
data-parallelism} x {period, latency, bi-criteria} — exactly as published
(including which entries the paper derives from more general/simpler cases,
kept in ``derived_from``).

:func:`classify` looks an instance up; :func:`solve` dispatches to the
matching polynomial algorithm, or — for NP-hard entries — optionally falls
back to the exact exponential solvers when ``exact_fallback=True``, else
raises :class:`NPHardError` naming the theorem, so callers know to reach for
:mod:`repro.algorithms.exact` or :mod:`repro.heuristics` deliberately.

Fork-join instances classify exactly like forks (Section 6.3: "the
complexity is not modified by the addition of the final stage").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..core.exceptions import ReproError
from . import (
    exact,
    fork_het_platform,
    fork_hom_platform,
    forkjoin,
    pipeline_het_platform,
    pipeline_hom_platform,
)
from .budget import Budget
from .problem import GraphKind, Objective, ProblemSpec, Solution

__all__ = [
    "Criterion",
    "ComplexityEntry",
    "NPHardError",
    "TABLE",
    "classify",
    "solve",
]


class NPHardError(ReproError):
    """The requested instance is NP-hard; no polynomial solver exists."""


class Criterion(enum.Enum):
    """Objective column of Table 1."""

    PERIOD = "P"
    LATENCY = "L"
    BICRITERIA = "both"


@dataclass(frozen=True)
class ComplexityEntry:
    """One cell of Table 1."""

    status: str  # "poly" or "np-hard"
    method: str  # "str", "DP", "*", "**", or "" for np-hard cells
    theorem: str  # the paper result establishing the entry
    derived_from: str = ""  # non-empty when the paper prints "-"

    @property
    def is_polynomial(self) -> bool:
        return self.status == "poly"

    def describe(self) -> str:
        if self.is_polynomial:
            tag = f"Poly ({self.method})" if self.method else "Poly"
        else:
            tag = "NP-hard" + (" (**)" if self.method == "**" else "")
        if self.derived_from:
            tag += f" [-: from {self.derived_from}]"
        return f"{tag} [{self.theorem}]"


def _key(graph: str, app_hom: bool, plat_hom: bool, dp: bool, crit: Criterion):
    return (graph, app_hom, plat_hom, dp, crit)


P, L, BOTH = Criterion.PERIOD, Criterion.LATENCY, Criterion.BICRITERIA

#: Table 1, fully expanded.  Keys: (graph, app_homogeneous,
#: platform_homogeneous, allow_data_parallel, criterion).
TABLE: dict[tuple, ComplexityEntry] = {}


def _fill(graph, app_hom, plat_hom, dp, entries) -> None:
    for crit, entry in zip((P, L, BOTH), entries):
        TABLE[_key(graph, app_hom, plat_hom, dp, crit)] = entry


# ---------------------------------------------------------------- pipelines
# Homogeneous platform, heterogeneous pipeline (general case)
_fill("pipeline", False, True, False, (
    ComplexityEntry("poly", "str", "Thm 1"),
    ComplexityEntry("poly", "str", "Thm 2"),
    ComplexityEntry("poly", "str", "Cor 1"),
))
_fill("pipeline", False, True, True, (
    ComplexityEntry("poly", "str", "Thm 1"),
    ComplexityEntry("poly", "DP", "Thm 3"),
    ComplexityEntry("poly", "DP", "Thm 4"),
))
# Homogeneous platform, homogeneous pipeline: derived ("-" in the paper)
_fill("pipeline", True, True, False, (
    ComplexityEntry("poly", "str", "Thm 1", "het. pipeline row"),
    ComplexityEntry("poly", "str", "Thm 2", "het. pipeline row"),
    ComplexityEntry("poly", "str", "Cor 1", "het. pipeline row"),
))
_fill("pipeline", True, True, True, (
    ComplexityEntry("poly", "str", "Thm 1", "het. pipeline row"),
    ComplexityEntry("poly", "DP", "Thm 3", "het. pipeline row"),
    ComplexityEntry("poly", "DP", "Thm 4", "het. pipeline row"),
))
# Heterogeneous platform, homogeneous pipeline
_fill("pipeline", True, False, False, (
    ComplexityEntry("poly", "*", "Thm 7"),
    ComplexityEntry("poly", "str", "Thm 6", "het. pipeline row"),
    ComplexityEntry("poly", "*", "Thm 8"),
))
_fill("pipeline", True, False, True, (
    ComplexityEntry("np-hard", "", "Thm 5"),
    ComplexityEntry("np-hard", "", "Thm 5"),
    ComplexityEntry("np-hard", "", "Thm 5"),
))
# Heterogeneous platform, heterogeneous pipeline
_fill("pipeline", False, False, False, (
    ComplexityEntry("np-hard", "**", "Thm 9"),
    ComplexityEntry("poly", "str", "Thm 6"),
    ComplexityEntry("np-hard", "**", "Thm 9"),
))
_fill("pipeline", False, False, True, (
    ComplexityEntry("np-hard", "", "Thm 5", "hom. pipeline row"),
    ComplexityEntry("np-hard", "", "Thm 5", "hom. pipeline row"),
    ComplexityEntry("np-hard", "", "Thm 5", "hom. pipeline row"),
))

# ---------------------------------------------------------------- forks
# Homogeneous platform, homogeneous fork
_fill("fork", True, True, False, (
    ComplexityEntry("poly", "str", "Thm 10", "het. fork row"),
    ComplexityEntry("poly", "DP", "Thm 11"),
    ComplexityEntry("poly", "DP", "Thm 11"),
))
_fill("fork", True, True, True, (
    ComplexityEntry("poly", "str", "Thm 10", "het. fork row"),
    ComplexityEntry("poly", "DP", "Thm 11"),
    ComplexityEntry("poly", "DP", "Thm 11"),
))
# Homogeneous platform, heterogeneous fork
_fill("fork", False, True, False, (
    ComplexityEntry("poly", "str", "Thm 10"),
    ComplexityEntry("np-hard", "", "Thm 12"),
    ComplexityEntry("np-hard", "", "Thm 12"),
))
_fill("fork", False, True, True, (
    ComplexityEntry("poly", "str", "Thm 10"),
    ComplexityEntry("np-hard", "", "Thm 12"),
    ComplexityEntry("np-hard", "", "Thm 12"),
))
# Heterogeneous platform, homogeneous fork
_fill("fork", True, False, False, (
    ComplexityEntry("poly", "*", "Thm 14"),
    ComplexityEntry("poly", "*", "Thm 14"),
    ComplexityEntry("poly", "*", "Thm 14"),
))
_fill("fork", True, False, True, (
    ComplexityEntry("np-hard", "", "Thm 13"),
    ComplexityEntry("np-hard", "", "Thm 13"),
    ComplexityEntry("np-hard", "", "Thm 13"),
))
# Heterogeneous platform, heterogeneous fork
_fill("fork", False, False, False, (
    ComplexityEntry("np-hard", "", "Thm 15"),
    ComplexityEntry("np-hard", "", "Thm 12 (hom. platform)"),
    ComplexityEntry("np-hard", "", "Thm 15"),
))
_fill("fork", False, False, True, (
    ComplexityEntry("np-hard", "", "Thm 15", "without data-par row"),
    ComplexityEntry("np-hard", "", "Thm 12", "without data-par row"),
    ComplexityEntry("np-hard", "", "Thm 15", "without data-par row"),
))


def classify(
    spec: ProblemSpec,
    objective: Objective,
    bicriteria: bool = False,
) -> ComplexityEntry:
    """Look up the Table 1 cell for a problem instance."""
    crit = Criterion.BICRITERIA if bicriteria else (
        Criterion.PERIOD if objective is Objective.PERIOD else Criterion.LATENCY
    )
    graph = "fork" if spec.graph_kind in (GraphKind.FORK, GraphKind.FORK_JOIN) \
        else "pipeline"
    return TABLE[
        _key(
            graph,
            spec.application_homogeneous,
            spec.platform_homogeneous,
            spec.allow_data_parallel,
            crit,
        )
    ]


# ======================================================================
# dispatch
# ======================================================================
def solve(
    spec: ProblemSpec,
    objective: Objective,
    period_bound: float | None = None,
    latency_bound: float | None = None,
    exact_fallback: bool = False,
    engine: str = "bnb",
    context=None,
    budget: Budget | None = None,
) -> Solution:
    """Solve a mapping problem with the matching paper algorithm.

    Polynomial instances route to the per-theorem solvers.  NP-hard
    instances raise :class:`NPHardError` unless ``exact_fallback=True``, in
    which case the (exponential) exact solvers of
    :mod:`repro.algorithms.exact` are used — only sensible for small
    instances.  ``engine`` selects the generic exact search strategy for
    the fallback: the pruned branch-and-bound engine (``"bnb"``, default),
    the flat enumeration oracle (``"enumerate"``), or the MILP
    formulation (``"milp"``, :mod:`repro.algorithms.milp`) over an
    optional PuLP/CBC or SciPy/HiGHS backend, which closes instances
    well past the combinatorial engines.  The one structured shortcut,
    the Theorem 12 ``P || Cmax`` reduction for fork latency on a
    homogeneous platform, serves its cell for ``bnb`` and ``enumerate``;
    every other NP-hard cell runs the engine named here, behind the size
    guard of :func:`repro.algorithms.exact.guarded_optimal`.

    ``context`` — a :class:`~repro.algorithms.solve_context.SolveContext`
    built for this instance — shares per-instance solver state across the
    repeated solves of a bi-criteria threshold sweep (the exact engines'
    search tables, the Theorem 8 DP memo); results are bit-identical with
    or without one.

    ``budget`` (:class:`~repro.algorithms.budget.Budget`) caps exact
    solves: a bounded budget lifts the exact size guard and, on
    exhaustion, the engine returns the best incumbent plus a proven lower
    bound with ``meta["status"] == "budget_exhausted"`` — see
    :mod:`repro.algorithms.budget`.  Polynomial solvers ignore budgets
    (they are fast by theorem), and a bounded budget routes the Theorem 12
    cell through the budget-aware engine rather than the ``P || Cmax``
    shortcut.
    """
    if context is not None:
        context.require(spec)
    bicriteria = (
        (objective is Objective.PERIOD and latency_bound is not None)
        or (objective is Objective.LATENCY and period_bound is not None)
    )
    entry = classify(spec, objective, bicriteria)
    if not entry.is_polynomial:
        if not exact_fallback:
            raise NPHardError(
                f"{spec.describe()}, objective {objective.value}"
                f"{' (bi-criteria)' if bicriteria else ''} is NP-hard "
                f"({entry.theorem}); pass exact_fallback=True for an "
                "exponential exact solve, or use repro.heuristics"
            )
        return _exact_dispatch(
            spec, objective, period_bound, latency_bound, engine, context,
            budget,
        )
    return _poly_dispatch(spec, objective, period_bound, latency_bound, context)


def _poly_dispatch(
    spec, objective, period_bound, latency_bound, context=None
) -> Solution:
    app, platform, dp = spec.application, spec.platform, spec.allow_data_parallel

    if spec.graph_kind is GraphKind.PIPELINE:
        if spec.platform_homogeneous:
            if objective is Objective.PERIOD and latency_bound is None:
                return pipeline_hom_platform.min_period(app, platform, dp)
            if objective is Objective.LATENCY:
                if period_bound is not None:
                    return pipeline_hom_platform.min_latency_given_period(
                        app, platform, period_bound, dp
                    )
                if dp:
                    return pipeline_hom_platform.min_latency_with_dp(app, platform)
                return pipeline_hom_platform.min_latency_no_dp(app, platform)
            return pipeline_hom_platform.min_period_given_latency(
                app, platform, latency_bound, dp
            )
        # heterogeneous platform, no data-parallelism (else NP-hard above)
        if objective is Objective.LATENCY and period_bound is None:
            return pipeline_het_platform.min_latency_no_dp(app, platform)
        if objective is Objective.PERIOD and latency_bound is None:
            return pipeline_het_platform.min_period_homogeneous(app, platform)
        if objective is Objective.LATENCY:
            return pipeline_het_platform.min_latency_given_period_homogeneous(
                app, platform, period_bound, context=context
            )
        return pipeline_het_platform.min_period_given_latency_homogeneous(
            app, platform, latency_bound, context=context
        )

    # forks and fork-joins
    is_forkjoin = spec.graph_kind is GraphKind.FORK_JOIN
    if spec.platform_homogeneous:
        if objective is Objective.PERIOD and latency_bound is None:
            if is_forkjoin:
                return forkjoin.min_period_hom_platform(app, platform, dp)
            return fork_hom_platform.min_period(app, platform, dp)
        if is_forkjoin:
            return forkjoin.solve_hom_platform(
                app, platform, objective, period_bound, latency_bound, dp
            )
        if objective is Objective.LATENCY:
            if period_bound is not None:
                return fork_hom_platform.min_latency_given_period(
                    app, platform, period_bound, dp
                )
            return fork_hom_platform.min_latency(app, platform, dp)
        return fork_hom_platform.min_period_given_latency(
            app, platform, latency_bound, dp
        )
    # heterogeneous platform, homogeneous fork, no data-parallelism
    if is_forkjoin:
        return forkjoin.solve_het_platform(
            app, platform, objective, period_bound, latency_bound
        )
    return fork_het_platform.solve_homogeneous(
        app, platform, objective, period_bound, latency_bound
    )


def _exact_dispatch(
    spec, objective, period_bound, latency_bound, engine="bnb", context=None,
    budget=None,
) -> Solution:
    # the Thm 12 P||Cmax reduction is a complete search with no anytime
    # hook, so it serves only unbudgeted single-criterion solves that did
    # not ask for the milp formulation
    if (
        (budget is None or not budget.is_bounded)
        and engine != "milp"
        and spec.graph_kind is GraphKind.FORK
        and objective is Objective.LATENCY
        and not spec.allow_data_parallel
        and spec.platform_homogeneous
        and period_bound is None
        and latency_bound is None
    ):
        return exact.fork_latency_exact_hom_platform(
            spec.application, spec.platform
        )
    return exact.guarded_optimal(
        spec, objective, period_bound, latency_bound, engine, context=context,
        budget=budget,
    )
