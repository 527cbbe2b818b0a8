"""Experiment A3 — the NP-hard entries: exact scaling and heuristic quality.

Shape claims reproduced:

* the exact solvers for the Theorem 9 problem (the bnb engine) and the
  Theorem 12 problem (the ``P || Cmax`` reduction) show super-polynomial
  growth (the NP-hard side of Table 1);
* the heuristic portfolio (greedy/chains-to-chains seeds + local search,
  LPT) stays close to the exact optimum — quantified as a ratio table.

The heuristic-quality studies execute as declarative campaigns through
:mod:`repro.campaign` (exact / heuristic / random solver columns over one
random instance family), sharing the persistent result cache under
``benchmarks/reports/campaign-cache/`` — re-runs and overlapping studies
re-use every solve.
"""

import random
import time
from pathlib import Path

import pytest

import repro
from repro.algorithms import exact
from repro.algorithms.problem import Objective, ProblemSpec
from repro.analysis import format_table
from repro.campaign import (
    CampaignSpec,
    ResultCache,
    heuristic_gap,
    run_campaign,
    summarize,
)

RNG_SEED = 73
CACHE_DIR = Path(__file__).parent / "reports" / "campaign-cache"


@pytest.mark.parametrize("n", [6, 9, 12, 16])
def test_thm9_bnb_scaling(benchmark, n):
    """Theorem 9 problem: bnb over interval partitions and processor sets."""
    rng = random.Random(RNG_SEED + n)
    app = repro.PipelineApplication.from_works(
        [rng.randint(1, 9) for _ in range(n)]
    )
    plat = repro.Platform.heterogeneous([rng.randint(1, 5) for _ in range(6)])
    spec = ProblemSpec(app, plat, False)
    sol = benchmark(lambda: exact.guarded_optimal(spec, Objective.PERIOD))
    assert sol.period > 0
    benchmark.extra_info["n"] = n


@pytest.mark.parametrize("n", [8, 12, 16])
def test_pcmax_exact_scaling(benchmark, n):
    """Theorem 12 problem: branch-and-bound P||Cmax."""
    rng = random.Random(RNG_SEED + n)
    works = [float(rng.randint(1, 30)) for _ in range(n)]
    value, _ = benchmark(lambda: exact.makespan_partition_exact(works, 4))
    assert value >= max(works) - 1e-9
    benchmark.extra_info["n"] = n


def test_heuristic_quality_pipeline_period(benchmark, report):
    """Portfolio + random baseline vs exact on the Theorem 9 problem,
    as a campaign: one instance family x three solver columns, executed
    through the sharded runner with the shared result cache."""
    spec = CampaignSpec(
        name="nphard-pipeline-quality",
        instances=(
            {"type": "random", "graph": "pipeline", "count": 8,
             "seed": RNG_SEED, "n": [5, 9], "p": [4, 7],
             "work_high": 12, "speed_high": 5},
        ),
        objectives=("period",),
        solvers=(
            {"name": "exact", "mode": "auto", "exact_fallback": True},
            {"name": "portfolio", "mode": "heuristic", "seed": RNG_SEED},
            {"name": "random", "mode": "random", "seed": RNG_SEED,
             "samples": 1},
        ),
    )

    def run():
        return run_campaign(spec, cache=ResultCache(CACHE_DIR), workers=0)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert not result.error_rows, result.error_rows
    stats, gap_table = heuristic_gap(result, baseline="exact")
    assert stats["portfolio"]["max"] <= 1.5, (
        "portfolio drifted far from optimal"
    )
    report(
        "nphard_heuristics_pipeline",
        summarize(result, title="heuristic quality on the NP-hard "
                                "het-pipeline period problem (Thm 9)")
        + "\n" + gap_table,
    )


def test_heuristic_quality_fork_latency(benchmark, report):
    """LPT vs exact P||Cmax on the Theorem 12 problem, as a campaign;
    Graham's 4/3 bound must hold on the makespan part of every row."""
    spec = CampaignSpec(
        name="nphard-fork-quality",
        instances=(
            {"type": "random", "graph": "fork", "count": 8,
             "seed": RNG_SEED + 1, "n": [6, 12], "p": [2, 4],
             "work_high": 20, "homogeneous_platform": True},
        ),
        objectives=("latency",),
        solvers=(
            {"name": "exact", "mode": "auto", "exact_fallback": True},
            {"name": "lpt", "mode": "heuristic"},
        ),
    )

    def run():
        return run_campaign(spec, cache=ResultCache(CACHE_DIR), workers=0)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert not result.error_rows, result.error_rows
    # Graham bound on the makespan part: latency = (w0 + Cmax) / s on a
    # homogeneous platform, so ratios of (latency - w0/s) are Cmax ratios.
    instances = dict(spec.expand_instances())
    by_instance: dict[str, dict[str, dict]] = {}
    for row in result.rows:
        by_instance.setdefault(row["instance_id"], {})[row["solver"]] = row
    rows = []
    for iid, solved in sorted(by_instance.items()):
        doc = instances[iid]
        w0 = doc["application"]["root_work"]
        s = doc["platform"]["speeds"][0]
        best, lpt = solved["exact"], solved["lpt"]
        ratio = (lpt["latency"] - w0 / s) / max(
            best["latency"] - w0 / s, 1e-12
        )
        assert ratio <= 4 / 3 + 1e-9
        rows.append([
            iid, f"{best['latency']:.3f}", f"{lpt['latency']:.3f}",
            f"{ratio:.3f}",
        ])
    report(
        "nphard_heuristics_fork",
        format_table(
            ["instance", "exact latency", "LPT latency",
             "Cmax ratio (<= 4/3)"],
            rows,
            title="LPT vs exact on the NP-hard het-fork latency problem "
                  "(Thm 12), via the campaign runner",
        ),
    )


def test_exponential_vs_polynomial_shape(benchmark, report):
    """One table contrasting growth of the exact solver (NP-hard cell) with
    the Theorem 7 algorithm (poly cell) on matched sizes."""
    rng = random.Random(RNG_SEED + 2)

    def run():
        rows = []
        for n in (6, 8, 10, 12):
            works = [rng.randint(1, 9) for _ in range(n)]
            speeds = [rng.randint(1, 5) for _ in range(6)]
            het_app = repro.PipelineApplication.from_works(works)
            hom_app = repro.PipelineApplication.homogeneous(n, 3.0)
            plat = repro.Platform.heterogeneous(speeds)
            t0 = time.perf_counter()
            exact.guarded_optimal(
                ProblemSpec(het_app, plat, False), Objective.PERIOD
            )
            t_exact = time.perf_counter() - t0
            t0 = time.perf_counter()
            from repro.algorithms import pipeline_het_platform

            pipeline_het_platform.min_period_homogeneous(hom_app, plat)
            t_poly = time.perf_counter() - t0
            rows.append([n, f"{t_exact * 1e3:.2f}", f"{t_poly * 1e3:.2f}"])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "nphard_vs_poly_shape",
        format_table(
            ["n", "bnb het-pipeline (ms)", "Thm 7 hom-pipeline (ms)"],
            rows,
            title="NP-hard cell (Thm 9, exact) vs poly cell (Thm 7) runtime "
                  "growth, p=6",
        ),
    )
