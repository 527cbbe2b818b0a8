"""repro — reproduction of Benoit & Robert (2007), *Complexity results for
throughput and latency optimization of replicated and data-parallel
workflows* (INRIA RR-6308 / IEEE CLUSTER 2007).

The library models pipeline / fork / fork-join workflow applications mapped
onto homogeneous or heterogeneous platforms with interval mappings,
replication and data-parallelism, under the paper's simplified
(communication-free) cost model, and implements:

* every polynomial algorithm of the paper (Theorems 1-4, 6-8, 10-11, 14 and
  the Section 6.3 fork-join extensions);
* exact solvers for the NP-hard entries (Theorems 5, 9, 12, 13, 15):
  branch-and-bound, flat enumeration, an optional MILP, and the
  Theorem 12 ``P || Cmax`` reduction;
* the NP-hardness reductions themselves (from 2-PARTITION and N3DM) as
  executable instance builders with solution back-mapping;
* heuristics, a discrete-event simulator validating the cost model, the
  chains-to-chains substrate, instance generators and analysis tools.

Quick start::

    import repro

    app = repro.PipelineApplication.from_works([14, 4, 2, 4])
    platform = repro.Platform.homogeneous(3)
    spec = repro.ProblemSpec(app, platform, allow_data_parallel=True)
    solution = repro.solve(spec, repro.Objective.LATENCY)
    print(solution.describe())
"""

from .algorithms import (
    Budget,
    BudgetExhaustedError,
    GraphKind,
    NPHardError,
    Objective,
    ProblemSpec,
    Solution,
    classify,
    solve,
)
from .core import (
    AssignmentKind,
    ForkApplication,
    ForkJoinApplication,
    ForkJoinMapping,
    ForkMapping,
    GroupAssignment,
    InfeasibleProblemError,
    InvalidApplicationError,
    InvalidMappingError,
    InvalidPlatformError,
    PipelineApplication,
    PipelineMapping,
    Platform,
    Processor,
    ReproError,
    Stage,
    UnsupportedVariantError,
    evaluate,
    fork_latency,
    fork_period,
    forkjoin_latency,
    forkjoin_period,
    pipeline_latency,
    pipeline_period,
    validate,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # model
    "Stage",
    "PipelineApplication",
    "ForkApplication",
    "ForkJoinApplication",
    "Processor",
    "Platform",
    "AssignmentKind",
    "GroupAssignment",
    "PipelineMapping",
    "ForkMapping",
    "ForkJoinMapping",
    # costs
    "evaluate",
    "pipeline_period",
    "pipeline_latency",
    "fork_period",
    "fork_latency",
    "forkjoin_period",
    "forkjoin_latency",
    "validate",
    # solving
    "Budget",
    "GraphKind",
    "Objective",
    "ProblemSpec",
    "Solution",
    "classify",
    "solve",
    # errors
    "ReproError",
    "NPHardError",
    "BudgetExhaustedError",
    "InvalidApplicationError",
    "InvalidPlatformError",
    "InvalidMappingError",
    "InfeasibleProblemError",
    "UnsupportedVariantError",
]
