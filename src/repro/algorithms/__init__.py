"""Mapping algorithms: one solver per theorem of the paper, plus exhaustive
and structured exact references for the NP-hard entries.

Most users should go through :func:`repro.algorithms.solve` (re-exported at
the package root), which consults the Table 1 registry and dispatches to the
right polynomial algorithm — or refuses, by raising
:class:`~repro.algorithms.registry.NPHardError`, when the instance is
NP-hard.
"""

from . import (
    bnb,
    brute_force,
    budget,
    exact,
    fork_het_platform,
    fork_hom_platform,
    forkjoin,
    lemmas,
    milp,
    pipeline_het_platform,
    pipeline_hom_platform,
)
from .budget import Budget, BudgetExhaustedError
from .problem import ENGINES, GraphKind, Objective, ProblemSpec, Solution
from .registry import (
    TABLE,
    ComplexityEntry,
    Criterion,
    NPHardError,
    classify,
    solve,
)
from .solve_context import ContextCache, SolveContext

__all__ = [
    "ENGINES",
    "Budget",
    "BudgetExhaustedError",
    "GraphKind",
    "Objective",
    "ProblemSpec",
    "Solution",
    "SolveContext",
    "ContextCache",
    "TABLE",
    "ComplexityEntry",
    "Criterion",
    "NPHardError",
    "classify",
    "solve",
    "bnb",
    "brute_force",
    "budget",
    "exact",
    "lemmas",
    "milp",
    "pipeline_hom_platform",
    "pipeline_het_platform",
    "fork_hom_platform",
    "fork_het_platform",
    "forkjoin",
]
