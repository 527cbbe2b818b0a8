"""Solve budgets: bounded-effort exact solving with anytime results.

The exact engines (:mod:`repro.algorithms.bnb`, the flat enumerator) are
complete searches — past ``n ~ 10`` a single solve can run for hours.  A
:class:`Budget` caps the effort: ``max_nodes`` bounds the number of
search nodes visited, ``max_seconds`` bounds wall-clock time.  When a
budgeted engine exhausts its budget it does **not** raise or return
garbage; it returns the best *incumbent* found so far together with a
proven lower bound on the optimum, tagged ``status="budget_exhausted"``
in the solution meta — "too big to solve" becomes "solved within x%".

Semantics
---------
* A solve that finishes within budget is exact and tagged
  ``status="optimal"``; its result is bit-identical to an unbudgeted
  solve.
* A ``max_nodes`` budget is **deterministic**: the engines visit nodes
  in a fixed order and the budget is checked at fixed node counts, so
  the same budget on the same instance always stops at the same point
  and returns the same incumbent — with or without a
  :class:`~repro.algorithms.solve_context.SolveContext` (contexts cache
  tables, they never reorder the search).
* A ``max_seconds`` budget is inherently machine-dependent; the status
  and gap are honest but the incumbent may differ between runs.
* Budget checks are amortized: the engines test the budget once every
  :data:`CHECK_EVERY` nodes, so an unbudgeted solve pays one boolean
  test per node and a budgeted one adds a clock read every K nodes.
  A ``max_nodes`` stop can therefore overshoot by at most
  ``CHECK_EVERY - 1`` nodes.
* If the budget runs out before *any* incumbent exists (possible only
  under infeasibly tight bi-criteria thresholds — the engines seed an
  incumbent before searching), :class:`BudgetExhaustedError` is raised:
  within this budget the instance is neither solved nor proven
  infeasible.

Budgets are honored by the exact paths only (the engines via
:func:`repro.algorithms.brute_force.optimal`, the guarded
:func:`repro.algorithms.exact.guarded_optimal`, whose size guard a
bounded budget lifts, and :func:`repro.solve` with ``exact_fallback``).
Polynomial solvers ignore budgets — they are fast by theorem — and a
bounded budget routes the Theorem 12 fork-latency cell around its
``P || Cmax`` shortcut to the budget-aware engine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..core.exceptions import ReproError

__all__ = ["CHECK_EVERY", "Budget", "BudgetExhaustedError", "BudgetMeter"]

#: Budget-check granularity: the engines consult the meter once every
#: this many search nodes (fixed, so ``max_nodes`` stops are
#: deterministic and the per-node overhead stays negligible).
CHECK_EVERY = 256


class BudgetExhaustedError(ReproError):
    """The budget ran out before any feasible incumbent was found.

    Only reachable under bi-criteria thresholds so tight that even the
    constructive incumbent seeds violate them; an unbounded solve would
    have either found a mapping or proven infeasibility, but within this
    budget the engine can assert neither.
    """

    def __init__(self, message: str, nodes: int = 0,
                 reason: str | None = None) -> None:
        super().__init__(message)
        self.nodes = nodes
        self.reason = reason


@dataclass(frozen=True)
class Budget:
    """Effort cap for one exact solve (either limit may be ``None``).

    >>> Budget(max_nodes=10_000).is_bounded
    True
    >>> Budget().is_bounded
    False
    >>> Budget(max_seconds=2.0, max_nodes=500).to_dict()
    {'max_seconds': 2.0, 'max_nodes': 500}
    """

    max_seconds: float | None = None
    max_nodes: int | None = None

    def __post_init__(self) -> None:
        if self.max_seconds is not None and not self.max_seconds > 0:
            raise ReproError(
                f"max_seconds must be > 0, got {self.max_seconds!r}"
            )
        if self.max_nodes is not None and (
            not isinstance(self.max_nodes, int) or self.max_nodes < 1
        ):
            raise ReproError(
                f"max_nodes must be a positive integer, got {self.max_nodes!r}"
            )

    @property
    def is_bounded(self) -> bool:
        return self.max_seconds is not None or self.max_nodes is not None

    def merged(self, other: "Budget | None") -> "Budget":
        """The tighter combination of two budgets (per-limit minimum)."""
        if other is None:
            return self

        def _tight(a, b):
            if a is None:
                return b
            if b is None:
                return a
            return min(a, b)

        return Budget(
            max_seconds=_tight(self.max_seconds, other.max_seconds),
            max_nodes=_tight(self.max_nodes, other.max_nodes),
        )

    def to_dict(self) -> dict:
        return {"max_seconds": self.max_seconds, "max_nodes": self.max_nodes}

    @classmethod
    def from_mapping(cls, data: dict) -> "Budget | None":
        """A :class:`Budget` from config-style keys, or ``None`` if unset."""
        max_seconds = data.get("max_seconds")
        max_nodes = data.get("max_nodes")
        if max_seconds is None and max_nodes is None:
            return None
        return cls(max_seconds=max_seconds, max_nodes=max_nodes)


class _BudgetStop(Exception):
    """Internal engine signal: the budget is exhausted, unwind now."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class BudgetMeter:
    """Live budget accounting for one solve.

    Engines call :meth:`exhausted` every :data:`CHECK_EVERY` nodes; the
    node limit is tested before the clock so that when both limits have
    tripped the (deterministic) node reason wins.
    """

    __slots__ = ("budget", "reason", "_deadline", "_max_nodes", "_clock")

    def __init__(self, budget: Budget, clock=time.monotonic) -> None:
        self.budget = budget
        self.reason: str | None = None
        self._clock = clock
        self._max_nodes = budget.max_nodes
        self._deadline = (
            None if budget.max_seconds is None
            else clock() + budget.max_seconds
        )

    def exhausted(self, nodes: int) -> bool:
        if self._max_nodes is not None and nodes >= self._max_nodes:
            self.reason = "max_nodes"
            return True
        if self._deadline is not None and self._clock() >= self._deadline:
            self.reason = "max_seconds"
            return True
        return False
