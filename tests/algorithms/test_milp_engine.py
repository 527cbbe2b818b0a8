"""Contracts of the MILP exact engine beyond value equality.

The three-way differential harness (``test_bnb_equivalence.py``) pins the
*values* the engine returns; these tests pin everything else the ISSUE
promises about it:

* **dual-bound soundness** — the LP relaxation never exceeds the true
  optimum on instances the combinatorial engines can close, and budgeted
  solves report nonnegative finite gaps against a bound the incumbent
  respects;
* **row-shape parity** — a ``status == "budget_exhausted"`` MILP solution
  carries every meta field the bnb anytime rows established, so campaign
  reports and the CLI render both identically;
* **engine-aware size guard** — ``engine="milp"`` lifts the unbudgeted
  guard past the combinatorial limits while the bnb / enumerate messages
  stay pinned;
* **skip machinery** — ``REPRO_MILP_BACKEND=none`` cleanly disables the
  engine and a missing backend surfaces the install hint, never an
  ``ImportError``.

Tests that solve through a backend carry the shared ``milp`` marker (see
the repo-root ``conftest.py``); the guard / skip tests run everywhere.
"""

import random

import pytest

import repro
from repro.algorithms import bnb, exact, milp, registry
from repro.algorithms import brute_force as bf
from repro.algorithms.budget import Budget
from repro.algorithms.problem import Objective, ProblemSpec
from repro.core import FLOAT_TOL, ReproError
from repro.core.validation import is_valid


def _het_pipeline(rng, n, p, dp=False):
    app = repro.PipelineApplication.from_works(
        [rng.randint(1, 9) for _ in range(n)]
    )
    plat = repro.Platform.heterogeneous(
        [rng.choice([1, 1, 2, 3, 5]) for _ in range(p)]
    )
    return ProblemSpec(app, plat, dp)


# ----------------------------------------------------------------------
# dual-bound soundness
# ----------------------------------------------------------------------
@pytest.mark.milp
def test_lp_lower_bound_never_exceeds_true_optimum():
    """LP relaxation <= integral optimum on every bnb-closable instance."""
    rng = random.Random(20260808)
    for _ in range(25):
        spec = _het_pipeline(
            rng, rng.randint(1, 6), rng.randint(1, 5), dp=rng.random() < 0.5
        )
        for objective in (Objective.PERIOD, Objective.LATENCY):
            true_opt = bnb.optimal(spec, objective).objective_value(objective)
            relaxed = milp.lp_lower_bound(spec, objective)
            assert relaxed <= true_opt * (1 + 1e-6) + 1e-9, (
                f"LP bound {relaxed} exceeds optimum {true_opt} "
                f"({objective}) on {spec.describe()}"
            )


@pytest.mark.milp
def test_lp_lower_bound_sound_under_thresholds():
    """The relaxation stays a valid bound for the bi-criteria solves."""
    rng = random.Random(20260809)
    for _ in range(10):
        spec = _het_pipeline(rng, rng.randint(2, 6), rng.randint(2, 5))
        opt_period = bnb.optimal(spec, Objective.PERIOD).period
        bound = opt_period * (1.0 + rng.random())
        constrained = bnb.optimal(
            spec, Objective.LATENCY, period_bound=bound
        ).latency
        relaxed = milp.lp_lower_bound(
            spec, Objective.LATENCY, period_bound=bound
        )
        assert relaxed <= constrained * (1 + 1e-6) + 1e-9


# ----------------------------------------------------------------------
# budgeted solves: gap soundness + row-shape parity with bnb
# ----------------------------------------------------------------------
@pytest.mark.milp
def test_budget_exhausted_row_matches_bnb_shape():
    """A budgeted MILP row is shape-identical to the bnb anytime rows.

    Same instance, both engines budgeted into exhaustion: every meta
    field the bnb rows established (PR 6) must be present with the same
    semantics, so downstream consumers (campaign reports, the CLI
    renderer, ``check_bench_regressions``) need no engine switch.
    """
    rng = random.Random(20260810)
    # n=20 period is far past what either engine closes in the budget
    spec = _het_pipeline(rng, 20, 8)
    sol_bnb = bf.optimal(
        spec, Objective.PERIOD, engine="bnb", budget=Budget(max_nodes=500)
    )
    sol_milp = bf.optimal(
        spec, Objective.PERIOD, engine="milp", budget=Budget(max_seconds=0.5)
    )
    assert sol_bnb.meta["status"] == "budget_exhausted"
    assert sol_milp.meta["status"] == "budget_exhausted"
    missing = set(sol_bnb.meta) - set(sol_milp.meta)
    assert not missing, f"milp anytime row lacks bnb fields {missing}"
    assert sol_milp.meta["algorithm"] == "milp"
    assert sol_milp.meta["budget_reason"] in ("max_seconds", "max_nodes")
    assert sol_milp.meta["budget"] == {"max_seconds": 0.5, "max_nodes": None}

    for sol in (sol_bnb, sol_milp):
        value = sol.period
        lower = sol.meta["lower_bound"]
        gap = sol.meta["gap"]
        assert is_valid(sol.mapping, spec.allow_data_parallel)
        assert 0.0 <= gap < float("inf")
        assert value >= lower - FLOAT_TOL * max(1.0, abs(lower))
        assert gap == pytest.approx((value - lower) / lower)


@pytest.mark.milp
def test_completed_budgeted_solve_is_proven_optimal():
    """A solve that finishes inside its budget is exact, gap-free."""
    rng = random.Random(20260811)
    spec = _het_pipeline(rng, 5, 4)
    want = bnb.optimal(spec, Objective.PERIOD).period
    sol = milp.optimal(
        spec, Objective.PERIOD, budget=Budget(max_seconds=60.0)
    )
    assert sol.meta["status"] == "optimal"
    assert "gap" not in sol.meta
    assert sol.period == pytest.approx(want)
    assert sol.meta["backend"] in ("pulp", "scipy")


# ----------------------------------------------------------------------
# engine-aware size guard
# ----------------------------------------------------------------------
@pytest.mark.milp
def test_milp_lifts_the_unbudgeted_size_guard():
    """n=12 refuses bnb/enumerate unbudgeted but solves with milp."""
    rng = random.Random(20260812)
    spec = _het_pipeline(rng, 12, 4)
    sol = exact.guarded_optimal(spec, Objective.LATENCY, engine="milp")
    assert sol.meta["status"] == "optimal"
    # latency of a het pipeline is minimized by one group on the fastest
    # processor — an independently checkable optimum
    fastest = max(p.speed for p in spec.platform.processors)
    assert sol.latency == pytest.approx(
        sum(spec.application.works) / fastest
    )


def test_size_guard_message_pinned_for_combinatorial_engines():
    rng = random.Random(20260813)
    spec = _het_pipeline(rng, 12, 4)
    # bi-criteria: bnb's pipeline periods reach n=16, bi-criteria stays at 10
    bound = sum(spec.application.works)
    for engine, limit in (("bnb", 10), ("enumerate", 7)):
        with pytest.raises(ReproError) as err:
            exact.guarded_optimal(spec, Objective.PERIOD, latency_bound=bound,
                                  engine=engine)
        assert (
            f"exact solving with engine {engine!r} is limited to {limit} "
            "stages/processors" in str(err.value)
        )
        assert "n=12" in str(err.value)


def test_unknown_engine_lists_all_three():
    rng = random.Random(20260814)
    spec = _het_pipeline(rng, 3, 2)
    with pytest.raises(ReproError, match=r"\['bnb', 'enumerate', 'milp'\]"):
        exact.guarded_optimal(spec, Objective.PERIOD, engine="simplex")


# ----------------------------------------------------------------------
# registry integration
# ----------------------------------------------------------------------
@pytest.mark.milp
def test_registry_routes_milp_on_nphard_cells():
    """exact_fallback + engine="milp" reaches the MILP on NP-hard cells."""
    rng = random.Random(20260815)
    # het pipeline, period, no dp: the Theorem 9 NP-hard cell
    spec = _het_pipeline(rng, 6, 3)
    want = registry.solve(
        spec, Objective.PERIOD, exact_fallback=True, engine="bnb"
    )
    got = registry.solve(
        spec, Objective.PERIOD, exact_fallback=True, engine="milp"
    )
    assert got.meta["algorithm"] == "milp"
    assert got.period == pytest.approx(want.period)


# ----------------------------------------------------------------------
# skip machinery / backend selection
# ----------------------------------------------------------------------
def test_backend_env_none_disables_engine(monkeypatch):
    monkeypatch.setenv("REPRO_MILP_BACKEND", "none")
    assert not milp.milp_available()
    assert milp.backend_name() is None
    rng = random.Random(20260816)
    spec = _het_pipeline(rng, 3, 2)
    with pytest.raises(ReproError) as err:
        milp.optimal(spec, Objective.PERIOD)
    # the error is actionable (install hint), never a bare ImportError
    assert str(err.value) == milp.INSTALL_HINT
    assert "pip install" in str(err.value)


def test_backend_env_unknown_value_rejected(monkeypatch):
    monkeypatch.setenv("REPRO_MILP_BACKEND", "glpk")
    with pytest.raises(ReproError, match="REPRO_MILP_BACKEND"):
        milp.milp_available()


@pytest.mark.milp
def test_backend_reported_in_meta():
    rng = random.Random(20260817)
    spec = _het_pipeline(rng, 4, 3)
    sol = milp.optimal(spec, Objective.PERIOD)
    assert sol.meta["algorithm"] == "milp"
    assert sol.meta["backend"] == milp.backend_name()
    assert sol.meta["nodes"] >= 0
