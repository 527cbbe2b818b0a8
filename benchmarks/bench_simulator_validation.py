"""Experiment A5 — validate the analytic cost model by simulation.

For random valid mappings of all three graph classes, stream data sets at
the analytic period through the discrete-event simulator and compare:

* steady-state inter-departure time vs the analytic period (must agree to
  within the staircase quantization of the estimator);
* observed worst-case latency vs the analytic latency (must never exceed
  it — the analytic value is the adversarial-alignment bound).

The numpy batch evaluator is cross-checked against the scalar model on the
same mappings, so all three cost paths (scalar, vectorized, simulated) are
pinned to each other here.
"""

import random

import pytest

import repro
from repro.analysis import format_table
from repro.core import evaluate
from repro.core.batch_eval import batch_evaluate
from repro.generators import random_fork, random_forkjoin, random_pipeline, random_platform
from repro.heuristics import random_fork_mapping, random_pipeline_mapping
from repro.simulation import simulate

SEED = 74
N_SETS = 600
RTOL = 0.02


def _random_mapped(rng):
    p = rng.randint(1, 5)
    plat = random_platform(rng, p, 1, 3)
    kind = rng.choice(["pipeline", "fork", "forkjoin"])
    n = rng.randint(1, 4)
    dp = rng.random() < 0.5
    if kind == "pipeline":
        app = random_pipeline(rng, n, 1, 9)
        sol = random_pipeline_mapping(app, plat, rng, dp)
    elif kind == "fork":
        app = random_fork(rng, n, 1, 9)
        sol = random_fork_mapping(app, plat, rng, dp)
    else:
        app = random_forkjoin(rng, n, 1, 9)
        sol = random_fork_mapping(app, plat, rng, dp)
    return kind, sol


def test_simulator_agrees_with_model(benchmark, report):
    rng = random.Random(SEED)
    mapped = [_random_mapped(rng) for _ in range(30)]

    def run():
        rows = []
        for kind, sol in mapped:
            period, latency = evaluate(sol.mapping)
            batch_p, batch_l = batch_evaluate([sol.mapping])
            assert batch_p[0] == pytest.approx(period)
            assert batch_l[0] == pytest.approx(latency)
            res = simulate(sol.mapping, num_data_sets=N_SETS)
            assert res.measured_period == pytest.approx(period, rel=RTOL)
            assert res.max_latency <= latency + 1e-6
            rows.append([
                kind, f"{period:.4g}", f"{res.measured_period:.4g}",
                f"{latency:.4g}", f"{res.max_latency:.4g}",
            ])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "simulator_validation",
        format_table(
            ["graph", "analytic period", "measured period",
             "analytic latency", "max observed latency"],
            rows,
            title=f"30 random mappings, {N_SETS} data sets each: simulator "
                  "vs Section 3.4 formulas",
        ),
    )


@pytest.mark.parametrize("graph", ["pipeline", "fork", "forkjoin"])
def test_simulation_throughput(benchmark, graph):
    """Raw simulator speed per graph class (data sets per call)."""
    rng = random.Random(SEED + hash(graph) % 100)
    while True:
        kind, sol = _random_mapped(rng)
        if kind == graph:
            break
    result = benchmark(lambda: simulate(sol.mapping, num_data_sets=300))
    assert result.num_data_sets == 300
