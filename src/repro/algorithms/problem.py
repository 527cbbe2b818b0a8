"""Problem specifications and solutions for the sixteen mapping problems.

Section 3.4 of the paper defines an optimization problem by four choices:

1. the application graph — pipeline or fork (or fork-join, Section 6.3),
   itself *homogeneous* (identical stage works) or *heterogeneous*;
2. the platform — homogeneous or heterogeneous processors;
3. the mapping strategy — replication always allowed, data-parallelism
   allowed or not;
4. the objective — period, latency, or a bi-criteria combination
   (minimize one under a threshold on the other).

:class:`ProblemSpec` captures choices 1-3; :class:`Objective` and the
optional thresholds capture choice 4.  :class:`Solution` packages a mapping
with its evaluated metrics so solver outputs are self-describing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..core.application import (
    ForkApplication,
    ForkJoinApplication,
    PipelineApplication,
)
from ..core.costs import evaluate
from ..core.platform import Platform
from ..core.validation import validate

__all__ = ["ENGINES", "GraphKind", "Objective", "ProblemSpec", "Solution"]

#: The exact search engines, by the name every ``engine=`` option takes.
ENGINES = ("bnb", "enumerate", "milp")


class GraphKind(enum.Enum):
    PIPELINE = "pipeline"
    FORK = "fork"
    FORK_JOIN = "fork-join"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Objective(enum.Enum):
    """What to minimize.

    ``PERIOD`` and ``LATENCY`` are the mono-criterion problems.  The
    bi-criteria problems are expressed by passing a threshold for the other
    criterion to the solver (``period_bound`` / ``latency_bound``).
    """

    PERIOD = "period"
    LATENCY = "latency"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class ProblemSpec:
    """A problem instance: application + platform + mapping strategy."""

    application: PipelineApplication | ForkApplication | ForkJoinApplication
    platform: Platform
    allow_data_parallel: bool = False

    @property
    def graph_kind(self) -> GraphKind:
        if isinstance(self.application, ForkJoinApplication):
            return GraphKind.FORK_JOIN
        if isinstance(self.application, ForkApplication):
            return GraphKind.FORK
        return GraphKind.PIPELINE

    @property
    def application_homogeneous(self) -> bool:
        return self.application.is_homogeneous

    @property
    def platform_homogeneous(self) -> bool:
        return self.platform.is_homogeneous

    def describe(self) -> str:
        app = "hom." if self.application_homogeneous else "het."
        plat = "Hom." if self.platform_homogeneous else "Het."
        dp = "with" if self.allow_data_parallel else "without"
        return (
            f"{app} {self.graph_kind.value} on {plat} platform, "
            f"{dp} data-parallelism"
        )


@dataclass(frozen=True)
class Solution:
    """A mapping together with its evaluated period and latency.

    ``meta`` carries solver-specific details (algorithm name, iteration
    counts, ...) for reports and benchmarks.
    """

    mapping: object
    period: float
    latency: float
    meta: dict = field(default_factory=dict, compare=False)

    @classmethod
    def from_mapping(cls, mapping, **meta) -> "Solution":
        """Evaluate and validate a mapping, returning a Solution."""
        validate(mapping)
        period, latency = evaluate(mapping)
        return cls(mapping=mapping, period=period, latency=latency, meta=meta)

    def objective_value(self, objective: Objective) -> float:
        return self.period if objective is Objective.PERIOD else self.latency

    def describe(self) -> str:
        return (
            f"period={self.period:.6g} latency={self.latency:.6g}  "
            f"{self.mapping.describe()}"
        )
