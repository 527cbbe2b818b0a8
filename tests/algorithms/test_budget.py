"""Solve budgets: anytime incumbents, determinism, guard lifting."""

from __future__ import annotations

import pytest

from repro.algorithms import brute_force, exact
from repro.algorithms.bnb import optimal as bnb_optimal
from repro.algorithms.bnb import root_lower_bound
from repro.algorithms.budget import (
    CHECK_EVERY,
    Budget,
    BudgetExhaustedError,
    BudgetMeter,
)
from repro.algorithms.problem import Objective, ProblemSpec
from repro.algorithms.registry import solve
from repro.algorithms.solve_context import SolveContext
from repro.core import (
    FLOAT_TOL,
    ForkApplication,
    ForkJoinApplication,
    PipelineApplication,
    Platform,
)
from repro.core.exceptions import ReproError


def _pipeline(works, speeds, dp=False) -> ProblemSpec:
    return ProblemSpec(
        PipelineApplication.from_works(works),
        Platform.heterogeneous(speeds),
        allow_data_parallel=dp,
    )


HARD = _pipeline(                # n=17: beyond bnb's n <= 16 period guard
    [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2],
    [1, 2, 3, 2, 1, 2, 3, 1],
)
MEDIUM = _pipeline([3, 1, 4, 1, 5, 9, 2], [1, 2, 3, 2])   # enumerable, n=7
SMALL = _pipeline([14, 4, 2, 4], [2, 1, 1])


# ---------------------------------------------------------------- Budget
def test_budget_validation():
    with pytest.raises(ReproError):
        Budget(max_seconds=0.0)
    with pytest.raises(ReproError):
        Budget(max_nodes=0)
    with pytest.raises(ReproError):
        Budget(max_nodes=2.5)
    assert not Budget().is_bounded
    assert Budget(max_nodes=1).is_bounded
    assert Budget(max_seconds=0.5).is_bounded


def test_budget_from_mapping_and_roundtrip():
    assert Budget.from_mapping({}) is None
    assert Budget.from_mapping({"max_seconds": None, "max_nodes": None}) is None
    budget = Budget.from_mapping({"max_seconds": 2.0, "max_nodes": 500})
    assert budget == Budget(max_seconds=2.0, max_nodes=500)
    assert Budget.from_mapping(budget.to_dict()) == budget


def test_budget_merged_takes_per_limit_minimum():
    a = Budget(max_seconds=5.0)
    b = Budget(max_seconds=2.0, max_nodes=100)
    assert a.merged(b) == Budget(max_seconds=2.0, max_nodes=100)
    assert b.merged(a) == Budget(max_seconds=2.0, max_nodes=100)
    assert a.merged(None) is a


def test_meter_node_reason_wins_over_clock():
    clock = [0.0]
    meter = BudgetMeter(
        Budget(max_seconds=1.0, max_nodes=10), clock=lambda: clock[0]
    )
    clock[0] = 99.0  # both limits tripped
    assert meter.exhausted(10)
    assert meter.reason == "max_nodes"


def test_meter_clock_reason():
    clock = [0.0]
    meter = BudgetMeter(Budget(max_seconds=1.0), clock=lambda: clock[0])
    assert not meter.exhausted(10_000)
    clock[0] = 1.0
    assert meter.exhausted(10_000)
    assert meter.reason == "max_seconds"


# ------------------------------------------------------------- anytime bnb
def test_budgeted_bnb_returns_incumbent_with_sound_lower_bound():
    budget = Budget(max_nodes=2_000)
    solution = bnb_optimal(HARD, Objective.PERIOD, budget=budget)
    meta = solution.meta
    assert meta["status"] == "budget_exhausted"
    assert meta["budget_reason"] == "max_nodes"
    assert meta["budget"] == budget.to_dict()
    # a max_nodes stop overshoots by at most one check stride
    assert meta["nodes"] < 2_000 + CHECK_EVERY
    lower = meta["lower_bound"]
    assert lower == pytest.approx(root_lower_bound(HARD, Objective.PERIOD))
    value = solution.objective_value(Objective.PERIOD)
    assert value >= lower - FLOAT_TOL
    assert meta["gap"] == pytest.approx((value - lower) / lower)


def test_max_nodes_budget_is_deterministic():
    runs = [
        bnb_optimal(HARD, Objective.PERIOD, budget=Budget(max_nodes=1_500))
        for _ in range(2)
    ]
    assert runs[0].mapping.groups == runs[1].mapping.groups
    assert runs[0].meta["nodes"] == runs[1].meta["nodes"]
    assert runs[0].period == runs[1].period


def test_budgeted_result_identical_with_solve_context():
    budget = Budget(max_nodes=1_500)
    bare = bnb_optimal(HARD, Objective.PERIOD, budget=budget)
    context = SolveContext(HARD)
    ctx = bnb_optimal(HARD, Objective.PERIOD, context=context, budget=budget)
    assert bare.mapping.groups == ctx.mapping.groups
    assert bare.meta["nodes"] == ctx.meta["nodes"]


def test_generous_budget_is_bit_identical_to_unbudgeted():
    plain = bnb_optimal(SMALL, Objective.PERIOD)
    budgeted = bnb_optimal(SMALL, Objective.PERIOD,
                           budget=Budget(max_nodes=10_000_000))
    assert budgeted.meta["status"] == "optimal"
    assert plain.mapping.groups == budgeted.mapping.groups
    assert plain.period == budgeted.period
    assert "lower_bound" not in budgeted.meta


# -------------------------------------------------------------- enumerate
def test_budgeted_enumeration_stops_and_reports():
    solution = brute_force.optimal(
        MEDIUM, Objective.PERIOD, engine="enumerate",
        budget=Budget(max_nodes=CHECK_EVERY),
    )
    meta = solution.meta
    assert meta["status"] == "budget_exhausted"
    assert meta["nodes"] == CHECK_EVERY
    assert solution.period >= meta["lower_bound"] - FLOAT_TOL


def test_exhaustion_without_incumbent_raises():
    # thresholds no mapping can meet: the scan runs out of budget before
    # proving infeasibility, so the engine can assert neither
    with pytest.raises(BudgetExhaustedError) as info:
        brute_force.optimal(
            MEDIUM, Objective.PERIOD, engine="enumerate",
            period_bound=1e-9,
            budget=Budget(max_nodes=CHECK_EVERY),
        )
    assert info.value.reason == "max_nodes"
    assert info.value.nodes >= CHECK_EVERY


# ----------------------------------------------------------- guard lifting
def test_bounded_budget_lifts_exact_size_guard():
    with pytest.raises(ReproError, match="limited to"):
        exact.guarded_optimal(HARD, Objective.PERIOD)
    solution = exact.guarded_optimal(
        HARD, Objective.PERIOD, budget=Budget(max_nodes=2_000)
    )
    assert solution.meta["status"] == "budget_exhausted"


#: Latency without data-parallelism: every block is replicated, so the
#: fork engine bounds each block's delay by the fastest processor left.
FORK_10x8_HOM = ProblemSpec(
    ForkApplication.from_works(4, [16, 12, 7, 11, 19, 1, 17, 20, 9, 14]),
    Platform.homogeneous(8),
    allow_data_parallel=False,
)
FORKJOIN_8x8_HET = ProblemSpec(
    ForkJoinApplication.from_works(4, [16, 12, 7, 11, 19, 1, 17, 20], 10),
    Platform.heterogeneous([6, 8, 2, 5, 7, 4, 8, 5]),
    allow_data_parallel=False,
)


def test_replicated_delay_floor_closes_hom_fork_without_dp():
    sol = bnb_optimal(
        FORK_10x8_HOM, Objective.LATENCY, budget=Budget(max_nodes=200_000)
    )
    assert sol.meta["status"] == "optimal"
    pcmax = exact.fork_latency_exact_hom_platform(
        FORK_10x8_HOM.application, FORK_10x8_HOM.platform
    )
    assert sol.latency == pytest.approx(pcmax.latency)


def test_replicated_delay_floor_closes_het_forkjoin_without_dp():
    sol = bnb_optimal(
        FORKJOIN_8x8_HET, Objective.LATENCY, budget=Budget(max_nodes=200_000)
    )
    assert sol.meta["status"] == "optimal"
    assert sol.latency == pytest.approx(53 / 12)
    bound = root_lower_bound(FORKJOIN_8x8_HET, Objective.LATENCY)
    assert 4.0 < bound <= sol.latency


def test_registry_solve_threads_budget_through_exact_fallback():
    solution = solve(
        HARD, Objective.PERIOD, exact_fallback=True,
        budget=Budget(max_nodes=2_000),
    )
    assert solution.meta["status"] == "budget_exhausted"
    assert solution.meta["lower_bound"] > 0.0


def test_registry_polynomial_paths_ignore_budgets():
    hom = ProblemSpec(
        PipelineApplication.from_works([14, 4, 2, 4]),
        Platform.homogeneous(3, 1.0),
    )
    plain = solve(hom, Objective.PERIOD)
    budgeted = solve(hom, Objective.PERIOD, budget=Budget(max_nodes=1))
    assert budgeted.period == plain.period
    assert budgeted.meta.get("status") != "budget_exhausted"
