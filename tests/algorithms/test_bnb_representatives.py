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
apart).  It also pins larger forks and fork-joins on homogeneous and
heterogeneous platforms, for period and for latency under a period bound
equal to, or 10% above, the optimal period: there the partition search
cuts the most subtrees, so a bound that cut a subtree holding the last
accepted leaf would change a mapping here.

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
#: The six-processor forks and fork-joins are also solved under a bound of
#: this multiple of the optimal period (and under the optimal period).
TIGHT_SLACK = 1.1


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


def _tight_instances():
    """``(name, spec)`` pairs: forks and fork-joins on six processors."""
    rng = random.Random(SEED + 1)
    out = []
    for platform_kind in ("hom", "het"):
        for r in range(2):
            if platform_kind == "hom":
                plat = repro.Platform.homogeneous(6, float(rng.randint(1, 3)))
            else:
                plat = repro.Platform.heterogeneous(_random_speeds(rng, 6))
            out.append((f"fork-{platform_kind}-{r}", ProblemSpec(
                repro.ForkApplication.from_works(
                    float(rng.randint(1, 9)), _random_works(rng, 5)
                ),
                plat, bool(r),
            )))
            out.append((f"forkjoin-{platform_kind}-{r}", ProblemSpec(
                repro.ForkJoinApplication.from_works(
                    float(rng.randint(1, 9)), _random_works(rng, 4),
                    float(rng.randint(1, 9)),
                ),
                plat, bool(r),
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
    for name, spec in _tight_instances():
        period = bnb.optimal(spec, Objective.PERIOD)
        queries = [
            ("period", Objective.PERIOD, None, period),
            ("latency-under-optimal-period", Objective.LATENCY,
             period.period, None),
            ("latency-under-tight-period", Objective.LATENCY,
             TIGHT_SLACK * period.period, None),
        ]
        for label, objective, bound, sol in queries:
            if sol is None:
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
    assert len(kinds) == 13 and len(CASES) >= 60


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(_record(), indent=1) + "\n")
    print(f"[{FIXTURE}]", file=sys.stderr)
