"""The Theorem 14 solvers keep returning the same *mapping*.

``fork_het_platform.solve_homogeneous`` (forks) and
``forkjoin.solve_het_platform`` (fork-joins) pick, among near-tied block
layouts, the first one their search order reaches.  The cache stores
whichever mapping a solve returns, so a changed search order would
silently change warm-cache rows even though every value stays the same.
The fixture ``data/thm14_representatives.json`` pins the mapping of
seeded solves on random heterogeneous platforms, equal-speed platforms
and platforms whose speeds lie a fraction of ``FLOAT_TOL`` apart, each
for period, latency, latency under a period bound and period under a
latency bound.

The count tests pin the per-solve table reuse: a period solve builds at
most one fork-join interval table, and one fork prefix/suffix pair, per
feasibility test.

Regenerate the fixture (only when a tie-break change is intended)::

    PYTHONPATH=src python tests/algorithms/test_thm14_representatives.py
"""

import json
import random
import sys
from pathlib import Path

import pytest

import repro
from repro.algorithms import fork_het_platform, forkjoin
from repro.algorithms.problem import Objective
from repro.serialization import mapping_to_dict

FIXTURE = Path(__file__).resolve().parent / "data" / "thm14_representatives.json"
SEED = 20261019
#: Bi-criteria queries use this multiple of the optimal value of the
#: other criterion as their bound.
SLACK = 1.25

SOLVERS = {
    "fork": fork_het_platform.solve_homogeneous,
    "forkjoin": forkjoin.solve_het_platform,
}


def _random_speeds(rng, p):
    return [float(rng.choice([1, 1, 2, 3, 5])) for _ in range(p)]


def _instances():
    """``(name, kind, root, branch, join, n, speeds)`` tuples."""
    rng = random.Random(SEED)
    eps = 3e-10  # well inside FLOAT_TOL = 1e-9
    out = []
    for kind in ("fork", "forkjoin"):
        for r in range(3):
            n, p = rng.randint(2, 6), rng.randint(2, 6)
            out.append((
                f"{kind}-random-{r}", kind, float(rng.randint(1, 9)),
                float(rng.randint(1, 9)), float(rng.randint(1, 9)), n,
                _random_speeds(rng, p),
            ))
        out.append((f"{kind}-equal", kind, 2.0, 3.0, 1.0, 5, [2.0] * 4))
        out.append((
            f"{kind}-near", kind, 3.0, 2.0, 2.0, 6,
            [2.0, 2.0 + eps, 1.0, 2.0 - eps, 1.0 + 2 * eps],
        ))
    return out


def _problem(kind, root, branch, join, n, speeds):
    platform = repro.Platform.heterogeneous(speeds)
    if kind == "fork":
        app = repro.ForkApplication.from_works(root, [branch] * n)
    else:
        app = repro.ForkJoinApplication.from_works(root, [branch] * n, join)
    return app, platform


def _queries(solve, app, platform):
    """``(label, objective, period_bound, latency_bound)`` for one instance."""
    period = solve(app, platform, Objective.PERIOD).period
    latency = solve(app, platform, Objective.LATENCY).latency
    return [
        ("period", Objective.PERIOD, None, None),
        ("latency", Objective.LATENCY, None, None),
        ("latency-under-period", Objective.LATENCY, SLACK * period, None),
        ("period-under-latency", Objective.PERIOD, None, SLACK * latency),
    ]


def _record() -> list[dict]:
    cases = []
    for name, kind, root, branch, join, n, speeds in _instances():
        app, platform = _problem(kind, root, branch, join, n, speeds)
        solve = SOLVERS[kind]
        for label, objective, pb, lb in _queries(solve, app, platform):
            sol = solve(app, platform, objective,
                        period_bound=pb, latency_bound=lb)
            cases.append({
                "id": f"{name}/{label}",
                "kind": kind,
                "works": {"root": root, "branch": branch, "join": join,
                          "n": n},
                "speeds": speeds,
                "objective": objective.value,
                "period_bound": pb,
                "latency_bound": lb,
                "groups": mapping_to_dict(sol.mapping)["groups"],
            })
    return cases


CASES = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else []


@pytest.mark.parametrize("case", CASES, ids=[c["id"] for c in CASES])
def test_thm14_returns_the_recorded_mapping(case):
    w = case["works"]
    app, platform = _problem(case["kind"], w["root"], w["branch"], w["join"],
                             w["n"], case["speeds"])
    sol = SOLVERS[case["kind"]](
        app, platform, Objective(case["objective"]),
        period_bound=case["period_bound"], latency_bound=case["latency_bound"],
    )
    assert mapping_to_dict(sol.mapping)["groups"] == case["groups"]


def test_fixture_covers_every_shape_and_query():
    kinds = {(c["kind"], c["id"].split("/")[1]) for c in CASES}
    assert len(kinds) == 8 and len(CASES) >= 40


def _count_calls(monkeypatch, cls, name):
    calls = []
    original = getattr(cls, name)

    def counted(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


@pytest.mark.parametrize("speeds", [
    [1.0, 2.0, 3.0, 5.0, 5.0, 1.0], [2.0] * 6,
], ids=["het", "equal"])
def test_forkjoin_period_solve_builds_one_table_per_feasibility_test(
    monkeypatch, speeds
):
    app, platform = _problem("forkjoin", 3.0, 2.0, 4.0, 7, speeds)
    searches = _count_calls(monkeypatch, forkjoin._HetEngine, "_search")
    tables = _count_calls(monkeypatch, forkjoin._HetEngine, "_interval_table")
    forkjoin.solve_het_platform(app, platform, Objective.PERIOD)
    assert searches and len(tables) <= len(searches)


@pytest.mark.parametrize("speeds", [
    [1.0, 2.0, 3.0, 5.0, 5.0, 1.0], [2.0] * 6,
], ids=["het", "equal"])
def test_fork_period_solve_builds_one_table_pair_per_feasibility_test(
    monkeypatch, speeds
):
    app, platform = _problem("fork", 3.0, 2.0, 0.0, 7, speeds)
    engine = fork_het_platform._Engine
    searches = _count_calls(monkeypatch, engine, "_search")
    prefixes = _count_calls(monkeypatch, engine, "_prefix")
    suffixes = _count_calls(monkeypatch, engine, "_suffix")
    fork_het_platform.solve_homogeneous(app, platform, Objective.PERIOD)
    assert searches
    assert len(prefixes) <= len(searches) and len(suffixes) <= len(searches)


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(_record(), indent=1) + "\n")
    print(f"[{FIXTURE}]", file=sys.stderr)
