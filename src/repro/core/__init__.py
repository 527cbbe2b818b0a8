"""Core model: applications, platforms, mappings and cost evaluation.

This subpackage implements the framework of Section 3 of the paper:
application graphs (pipeline / fork / fork-join), target platforms
(homogeneous / heterogeneous), interval mappings with replication and
data-parallelism, the simplified cost model of Section 3.4 and the
communication-aware model of Section 3.3.
"""

from .application import ForkApplication, ForkJoinApplication, PipelineApplication
from .comm_costs import (
    CommunicationModel,
    OnePortInterval,
    interval_costs,
    pipeline_latency_with_comm,
    pipeline_period_with_comm,
)
from .costs import (
    FLOAT_TOL,
    evaluate,
    fork_latency,
    fork_period,
    forkjoin_latency,
    forkjoin_period,
    group_delay,
    group_period,
    pipeline_latency,
    pipeline_period,
)
from .exceptions import (
    InfeasibleProblemError,
    InvalidApplicationError,
    InvalidMappingError,
    InvalidPlatformError,
    ReproError,
    UnsupportedVariantError,
)
from .mapping import (
    AssignmentKind,
    ForkJoinMapping,
    ForkMapping,
    GroupAssignment,
    PipelineMapping,
)
from .platform import IN, OUT, Interconnect, Platform, Processor
from .stage import Stage
from .validation import (
    is_valid,
    validate,
    validate_fork_mapping,
    validate_forkjoin_mapping,
    validate_pipeline_mapping,
)

__all__ = [
    "Stage",
    "PipelineApplication",
    "ForkApplication",
    "ForkJoinApplication",
    "Processor",
    "Interconnect",
    "Platform",
    "IN",
    "OUT",
    "AssignmentKind",
    "GroupAssignment",
    "PipelineMapping",
    "ForkMapping",
    "ForkJoinMapping",
    "FLOAT_TOL",
    "group_period",
    "group_delay",
    "pipeline_period",
    "pipeline_latency",
    "fork_period",
    "fork_latency",
    "forkjoin_period",
    "forkjoin_latency",
    "evaluate",
    "CommunicationModel",
    "OnePortInterval",
    "interval_costs",
    "pipeline_period_with_comm",
    "pipeline_latency_with_comm",
    "validate",
    "is_valid",
    "validate_pipeline_mapping",
    "validate_fork_mapping",
    "validate_forkjoin_mapping",
    "ReproError",
    "InvalidApplicationError",
    "InvalidPlatformError",
    "InvalidMappingError",
    "InfeasibleProblemError",
    "UnsupportedVariantError",
]
