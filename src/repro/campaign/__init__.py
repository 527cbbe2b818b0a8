"""Campaign subsystem: declarative experiment grids at scale.

Turns "solve one instance" into "run an experiment campaign":

* :mod:`repro.campaign.spec` — versioned, JSON-round-trippable
  :class:`CampaignSpec` describing instances x objectives x solvers;
* :mod:`repro.campaign.cache` — content-addressed persistent
  :class:`ResultCache` over a local directory of sharded JSONL files
  or a remote solver service over HTTP,
  keyed by canonical instance+config hashes so re-runs and overlapping
  campaigns re-use every solve; superseded records are reclaimed by
  ``compact()``, which also takes age/size eviction policies;
* :mod:`repro.campaign.runner` — process-pool executor with chunked
  fan-out, per-task failure isolation and deterministic result rows
  (``workers=0`` serial mode is the bit-identical reference);
  ``retry_errors=True`` resumes a partially-failed campaign re-solving
  only the cached error rows;
* :mod:`repro.campaign.report` — summary tables, per-engine timing
  breakdowns, heuristic-gap statistics and multi-instance Pareto
  comparisons over result rows;
* :mod:`repro.campaign.profile` — latency-percentile / search-effort
  profiles aggregated from the ``timing`` blocks a warm cache already
  holds (see ``docs/OBSERVABILITY.md``);
* :mod:`repro.campaign.chaos` — fault-injection wrappers
  (:class:`ChaosBackend`) for exercising the fault-tolerance layer: the
  crash-isolating runner, the :class:`CircuitBreakerBackend` remote-cache
  breaker and its spill journal (see ``docs/ROBUSTNESS.md``).

Exposed on the CLI as ``python -m repro campaign run / report / pareto /
cache / profile``.

Quick start::

    from repro.campaign import CampaignSpec, ResultCache, run_campaign

    spec = CampaignSpec(
        name="demo",
        instances=({"type": "random", "graph": "pipeline", "count": 50,
                    "seed": 7, "n": [4, 6], "p": [3, 5]},),
        objectives=("period",),
        solvers=({"name": "exact", "mode": "auto", "exact_fallback": True},
                 {"name": "random", "mode": "random", "seed": 1}),
    )
    result = run_campaign(spec, cache=ResultCache(".repro-cache"), workers=4)
"""

from .cache import (
    CACHE_VERSION,
    CacheBackend,
    CircuitBreakerBackend,
    HttpCacheBackend,
    JsonlBackend,
    ResultCache,
)
from .chaos import ChaosBackend, ChaosError
from .profile import (
    collect_timings,
    percentile,
    profile_doc,
    profile_groups,
    profile_table,
)
from .report import (
    heuristic_gap,
    load_pareto_fronts,
    pareto_comparison,
    pareto_fronts_doc,
    save_pareto_fronts,
    summarize,
    timing_breakdown,
)
from .runner import (
    VOLATILE_FIELDS,
    CampaignResult,
    execute_tasks,
    load_rows,
    run_campaign,
    save_rows,
    strip_volatile,
)
from .spec import SPEC_VERSION, CampaignSpec, SolverConfig, Task

__all__ = [
    "SPEC_VERSION",
    "CACHE_VERSION",
    "CampaignSpec",
    "SolverConfig",
    "Task",
    "CacheBackend",
    "JsonlBackend",
    "HttpCacheBackend",
    "CircuitBreakerBackend",
    "ChaosBackend",
    "ChaosError",
    "ResultCache",
    "CampaignResult",
    "VOLATILE_FIELDS",
    "strip_volatile",
    "execute_tasks",
    "run_campaign",
    "save_rows",
    "load_rows",
    "summarize",
    "timing_breakdown",
    "heuristic_gap",
    "pareto_comparison",
    "pareto_fronts_doc",
    "save_pareto_fronts",
    "load_pareto_fronts",
    "percentile",
    "collect_timings",
    "profile_groups",
    "profile_doc",
    "profile_table",
]
