"""bnb keeps returning the same *mapping*, not just the same value.

Among near-tied optimal mappings the exact engines keep the *last*
candidate that beats the running incumbent by more than ``FLOAT_TOL``.
The cache stores whichever mapping a solve returns, so a changed
tie-break would silently change warm-cache rows even though every value
(and ``test_bnb_equivalence.py``) stays the same.  The fixture
``data/bnb_representatives.json`` pins the mapping of 36 seeded solves:
pipelines, forks and fork-joins, each for period, latency and latency
under a period bound, on random instances and on instances built to tie
(equal works on equal processors, and works a fraction of ``FLOAT_TOL``
apart).

Regenerate the fixture (only when a tie-break change is intended)::

    PYTHONPATH=src python tests/algorithms/test_bnb_representatives.py
"""

import json
import random
import sys
from pathlib import Path

import pytest

import repro
from repro.algorithms import bnb
from repro.algorithms.problem import Objective, ProblemSpec
from repro.serialization import mapping_to_dict, spec_from_dict, spec_to_dict

FIXTURE = Path(__file__).resolve().parent / "data" / "bnb_representatives.json"
SEED = 20261018
#: Latency queries under a period bound use this multiple of the optimal
#: period as the bound.
PERIOD_SLACK = 1.25


def _random_works(rng, n):
    return [float(rng.randint(1, 9)) for _ in range(n)]


def _random_speeds(rng, p):
    return [float(rng.choice([1, 1, 2, 3, 5])) for _ in range(p)]


def _instances():
    """``(name, spec)`` pairs: two random and two tied per graph shape."""
    rng = random.Random(SEED)
    eps = 3e-10  # well inside FLOAT_TOL = 1e-9
    plat = repro.Platform.heterogeneous
    out = []
    for r in range(2):
        out.append((f"pipeline-random-{r}", ProblemSpec(
            repro.PipelineApplication.from_works(_random_works(rng, 4)),
            plat(_random_speeds(rng, 4)), True,
        )))
    out.append(("pipeline-equal", ProblemSpec(
        repro.PipelineApplication.from_works([2.0] * 4),
        repro.Platform.homogeneous(4), True,
    )))
    out.append(("pipeline-near", ProblemSpec(
        repro.PipelineApplication.from_works(
            [4.0, 4.0 + eps, 4.0 - eps, 4.0]
        ),
        plat([1, 1, 2, 2, 1]), True,
    )))
    for r in range(2):
        out.append((f"fork-random-{r}", ProblemSpec(
            repro.ForkApplication.from_works(
                float(rng.randint(1, 9)), _random_works(rng, 3)
            ),
            plat(_random_speeds(rng, 4)), bool(r),
        )))
    out.append(("fork-equal", ProblemSpec(
        repro.ForkApplication.from_works(1.0, [2.0] * 4),
        repro.Platform.homogeneous(5), True,
    )))
    out.append(("fork-near", ProblemSpec(
        repro.ForkApplication.from_works(
            2.0, [4.0 - 2 * eps, 4.0 - 2 * eps, 4.0 + eps]
        ),
        plat([2, 1, 2]), False,
    )))
    for r in range(2):
        out.append((f"forkjoin-random-{r}", ProblemSpec(
            repro.ForkJoinApplication.from_works(
                float(rng.randint(1, 9)), _random_works(rng, 2),
                float(rng.randint(1, 9)),
            ),
            plat(_random_speeds(rng, 4)), bool(r),
        )))
    out.append(("forkjoin-equal", ProblemSpec(
        repro.ForkJoinApplication.from_works(1.0, [2.0] * 3, 1.0),
        repro.Platform.homogeneous(5), True,
    )))
    out.append(("forkjoin-near", ProblemSpec(
        repro.ForkJoinApplication.from_works(
            2.0, [4.0, 4.0 + eps, 4.0, 4.0 + 2 * eps], 1.0
        ),
        plat([2, 2, 1]), True,
    )))
    return out


def _groups(solution):
    return mapping_to_dict(solution.mapping)["groups"]


def _record() -> list[dict]:
    cases = []
    for name, spec in _instances():
        period = bnb.optimal(spec, Objective.PERIOD).period
        queries = [
            ("period", Objective.PERIOD, None),
            ("latency", Objective.LATENCY, None),
            ("latency-under-period", Objective.LATENCY,
             PERIOD_SLACK * period),
        ]
        for label, objective, bound in queries:
            sol = bnb.optimal(spec, objective, period_bound=bound)
            cases.append({
                "id": f"{name}/{label}",
                "instance": spec_to_dict(spec),
                "objective": objective.value,
                "period_bound": bound,
                "groups": _groups(sol),
            })
    return cases


CASES = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else []


@pytest.mark.parametrize("case", CASES, ids=[c["id"] for c in CASES])
def test_bnb_returns_the_recorded_mapping(case):
    spec = spec_from_dict(case["instance"])
    sol = bnb.optimal(
        spec, Objective(case["objective"]), period_bound=case["period_bound"]
    )
    assert _groups(sol) == case["groups"]


def test_fixture_covers_every_shape_and_query():
    kinds = {(c["instance"]["application"]["kind"], c["id"].split("/")[1])
             for c in CASES}
    assert len(kinds) == 9 and len(CASES) >= 30


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(_record(), indent=1) + "\n")
    print(f"[{FIXTURE}]", file=sys.stderr)
