"""Differential property tests: every exact engine equals enumeration.

``brute_force.optimal_enumerated`` prices every valid mapping from scratch —
slow, but too simple to be wrong.  These tests draw hundreds of random
instances (all three graph shapes, homogeneous *and* heterogeneous
platforms, optional data-parallelism, nonzero Amdahl ``dp_overhead``) and
assert that each exact engine — the branch-and-bound search and the MILP
formulation of :mod:`repro.algorithms.milp` — reproduces the enumeration
optimum exactly: for the period objective, the latency objective, and the
bi-criteria variants, including agreeing on *infeasibility* of threshold
combinations.  Every solution an engine returns is additionally
revalidated through the real evaluators (:func:`repro.evaluate` /
:func:`repro.core.validation.is_valid`), so an engine cannot pass by
reporting the right value on an illegal mapping.

The MILP cells carry the shared ``milp`` marker (see the repo-root
``conftest.py``): they skip cleanly when no backend is installed.
"""

import random

import pytest

import repro
from repro.algorithms import bnb
from repro.algorithms import brute_force as bf
from repro.algorithms.problem import Objective, ProblemSpec
from repro.core import FLOAT_TOL, InfeasibleProblemError, Stage
from repro.core.validation import is_valid

# 3 shapes x 2 platform kinds x TRIALS = 210 instances per engine,
# each checked 4 ways (2 objectives + 2 bi-criteria thresholds).
TRIALS = 35

ENGINES = ["bnb", pytest.param("milp", marks=pytest.mark.milp)]


def _random_overheads(rng, n):
    return [
        round(rng.random(), 2) if rng.random() < 0.4 else 0.0 for _ in range(n)
    ]


def _random_platform(rng, homogeneous):
    p = rng.randint(1, 5)
    if homogeneous:
        return repro.Platform.homogeneous(p, float(rng.choice([1, 2, 3])))
    return repro.Platform.heterogeneous(
        [rng.choice([1, 1, 2, 3, 5]) for _ in range(p)]
    )


def _random_pipeline_spec(rng, homogeneous):
    n = rng.randint(1, 5)
    app = repro.PipelineApplication.from_works(
        [rng.randint(1, 9) for _ in range(n)],
        dp_overheads=_random_overheads(rng, n),
    )
    return ProblemSpec(
        app, _random_platform(rng, homogeneous), rng.random() < 0.5
    )


def _random_fork_spec(rng, homogeneous):
    n = rng.randint(1, 4)
    root = Stage(
        index=0, work=float(rng.randint(1, 9)),
        dp_overhead=_random_overheads(rng, 1)[0],
    )
    branches = tuple(
        Stage(
            index=k + 1, work=float(rng.randint(1, 9)),
            dp_overhead=f,
        )
        for k, f in enumerate(_random_overheads(rng, n))
    )
    app = repro.ForkApplication(root=root, branches=branches)
    return ProblemSpec(
        app, _random_platform(rng, homogeneous), rng.random() < 0.5
    )


def _random_forkjoin_spec(rng, homogeneous):
    n = rng.randint(1, 3)
    root = Stage(
        index=0, work=float(rng.randint(1, 9)),
        dp_overhead=_random_overheads(rng, 1)[0],
    )
    branches = tuple(
        Stage(index=k + 1, work=float(rng.randint(1, 9)), dp_overhead=f)
        for k, f in enumerate(_random_overheads(rng, n))
    )
    join = Stage(
        index=n + 1, work=float(rng.randint(1, 9)),
        dp_overhead=_random_overheads(rng, 1)[0],
    )
    app = repro.ForkJoinApplication(root=root, branches=branches, join=join)
    return ProblemSpec(
        app, _random_platform(rng, homogeneous), rng.random() < 0.5
    )


def _enumeration_oracle(spec):
    """Price every valid mapping once; answer all queries from the cache.

    Mirrors :func:`brute_force.optimal_enumerated` (same ``FLOAT_TOL``
    threshold semantics) but amortizes the single expensive enumeration
    over the four queries each instance is checked with.
    """
    metrics = [repro.evaluate(m) for m in bf.enumerate_mappings(spec)]

    def best(objective, period_bound=None, latency_bound=None):
        values = [
            period if objective is Objective.PERIOD else latency
            for period, latency in metrics
            if (period_bound is None
                or period <= period_bound * (1 + FLOAT_TOL))
            and (latency_bound is None
                 or latency <= latency_bound * (1 + FLOAT_TOL))
        ]
        return min(values) if values else None

    return best


def _engine_solution(engine, spec, objective,
                     period_bound=None, latency_bound=None):
    try:
        if engine == "milp":
            from repro.algorithms import milp

            return milp.optimal(spec, objective, period_bound, latency_bound)
        return bnb.optimal(spec, objective, period_bound, latency_bound)
    except InfeasibleProblemError:
        return None


def _engine_value(engine, spec, objective,
                  period_bound=None, latency_bound=None):
    """Objective value of an engine's solve, with the mapping revalidated.

    ``None`` means the engine proved the thresholds infeasible.  A real
    solution must decode to a mapping the independent validators accept
    and whose re-evaluated metrics match what the engine reported — the
    value alone could be right by accident on an illegal mapping.
    """
    solution = _engine_solution(
        engine, spec, objective, period_bound, latency_bound
    )
    if solution is None:
        return None
    assert is_valid(solution.mapping, spec.allow_data_parallel), (
        f"{engine} returned an invalid mapping on {spec.describe()}"
    )
    period, latency = repro.evaluate(solution.mapping)
    assert solution.period == pytest.approx(period)
    assert solution.latency == pytest.approx(latency)
    assert solution.meta["algorithm"] == engine
    return solution.objective_value(objective)


def _check_instance(engine, spec, rng):
    oracle = _enumeration_oracle(spec)
    optima = {}
    for objective in (Objective.PERIOD, Objective.LATENCY):
        want = oracle(objective)
        got = _engine_value(engine, spec, objective)
        assert want is not None and got is not None  # unbounded: always feasible
        assert got == pytest.approx(want), (
            f"{objective} mismatch on {spec.describe()}: "
            f"enumerate={want} {engine}={got}"
        )
        optima[objective] = want
    # bi-criteria around the mono-criterion optima: a loose threshold (must
    # be feasible) and a too-tight one (both engines must agree either way)
    loose_k = optima[Objective.PERIOD] * (1.0 + rng.random())
    want = oracle(Objective.LATENCY, period_bound=loose_k)
    got = _engine_value(engine, spec, Objective.LATENCY, period_bound=loose_k)
    assert want is not None and got == pytest.approx(want), (
        f"bi-criteria (K={loose_k}) mismatch on {spec.describe()}: "
        f"enumerate={want} {engine}={got}"
    )
    tight_l = optima[Objective.LATENCY] * (0.3 + 0.8 * rng.random())
    want = oracle(Objective.PERIOD, latency_bound=tight_l)
    got = _engine_value(engine, spec, Objective.PERIOD, latency_bound=tight_l)
    if want is None:
        assert got is None, (
            f"enumerate infeasible but {engine} found {got} on "
            f"{spec.describe()} (L={tight_l})"
        )
    else:
        assert got == pytest.approx(want), (
            f"bi-criteria (L={tight_l}) mismatch on {spec.describe()}: "
            f"enumerate={want} {engine}={got}"
        )


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("homogeneous", [False, True], ids=["het", "hom"])
@pytest.mark.parametrize(
    "seed,builder",
    [
        (20260726, _random_pipeline_spec),
        (20260727, _random_fork_spec),
        (20260728, _random_forkjoin_spec),
    ],
    ids=["pipeline", "fork", "forkjoin"],
)
def test_engine_matches_enumeration(engine, homogeneous, seed, builder):
    rng = random.Random(seed + (1000 if homogeneous else 0))
    for _ in range(TRIALS):
        _check_instance(engine, builder(rng, homogeneous), rng)


@pytest.mark.parametrize("homogeneous", [False, True], ids=["het", "hom"])
@pytest.mark.parametrize(
    "seed,builder",
    [
        (20260726, _random_pipeline_spec),
        (20260727, _random_fork_spec),
        (20260728, _random_forkjoin_spec),
    ],
    ids=["pipeline", "fork", "forkjoin"],
)
def test_root_lower_bound_never_exceeds_the_optimum(
    homogeneous, seed, builder
):
    """The bound a budgeted solve reports as proven is a true lower bound."""
    rng = random.Random(seed + (1000 if homogeneous else 0))
    for _ in range(TRIALS):
        spec = builder(rng, homogeneous)
        for objective in (Objective.PERIOD, Objective.LATENCY):
            best = bnb.optimal(spec, objective).objective_value(objective)
            bound = bnb.root_lower_bound(spec, objective)
            assert bound <= best * (1 + FLOAT_TOL), (
                f"{objective} bound {bound} > optimum {best} on "
                f"{spec.describe()}"
            )


def test_bnb_solution_is_valid_and_consistent():
    """The returned Solution re-evaluates to its reported metrics."""
    rng = random.Random(5)
    for builder in (
        _random_pipeline_spec, _random_fork_spec, _random_forkjoin_spec
    ):
        for _ in range(10):
            spec = builder(rng, False)
            sol = bnb.optimal(spec, Objective.PERIOD)
            period, latency = repro.evaluate(sol.mapping)
            assert sol.period == pytest.approx(period)
            assert sol.latency == pytest.approx(latency)
            assert sol.meta["algorithm"] == "bnb"
            assert sol.meta["nodes"] >= 1


def _decimal_fork_like_spec(rng, homogeneous, forkjoin):
    """A small fork or fork-join whose works and speeds are not binary
    fractions, so block loads and group periods carry rounding error."""
    works = [0.1, 0.2, 0.3, 0.7, 1.1, 2.9]
    speeds = [0.3, 0.7, 1.0, 3.0]
    p = rng.randint(2, 4)
    if homogeneous:
        platform = repro.Platform.homogeneous(p, rng.choice(speeds))
    else:
        platform = repro.Platform.heterogeneous(
            [rng.choice(speeds) for _ in range(p)]
        )
    branches = [rng.choice(works) for _ in range(rng.randint(2, 3))]
    if forkjoin:
        app = repro.ForkJoinApplication.from_works(
            rng.choice(works), branches, rng.choice(works)
        )
    else:
        app = repro.ForkApplication.from_works(rng.choice(works), branches)
    return ProblemSpec(app, platform, rng.random() < 0.5)


def _group_period_caps(spec):
    """Every period ``L / (k * s)`` of a replicated group: ``L`` a sum of
    stage works, ``k`` a processor count, ``s`` a speed of the platform."""
    stage_works = [stage.work for stage in spec.application.all_stages]
    loads = set()
    for mask in range(1, 2 ** len(stage_works)):
        loads.add(sum(w for i, w in enumerate(stage_works) if mask >> i & 1))
    return sorted({
        load / (k * s)
        for load in loads
        for k in range(1, spec.platform.p + 1)
        for s in set(spec.platform.speeds)
    })


@pytest.mark.parametrize("homogeneous", [False, True], ids=["het", "hom"])
@pytest.mark.parametrize("forkjoin", [False, True], ids=["fork", "forkjoin"])
def test_bnb_matches_enumeration_at_group_period_caps(homogeneous, forkjoin):
    """Period caps that a group's period meets exactly.

    The partition search counts the processors each block needs under a
    period limit by a rounded division; a cap equal to a group's period
    is where a rounding that over-counts would cut the optimum.
    """
    rng = random.Random(20261020 + 2 * homogeneous + forkjoin)
    for _ in range(4):
        spec = _decimal_fork_like_spec(rng, homogeneous, forkjoin)
        oracle = _enumeration_oracle(spec)
        for cap in _group_period_caps(spec):
            for objective in (Objective.PERIOD, Objective.LATENCY):
                want = oracle(objective, period_bound=cap)
                got = _engine_value("bnb", spec, objective, period_bound=cap)
                if want is None:
                    assert got is None, (
                        f"enumerate infeasible but bnb found {got} on "
                        f"{spec.describe()} (K={cap!r})"
                    )
                else:
                    assert got == pytest.approx(want), (
                        f"{objective} (K={cap!r}) mismatch on "
                        f"{spec.describe()}: enumerate={want} bnb={got}"
                    )
