"""Perf regression harness — flat enumeration vs branch-and-bound.

Run standalone to (re)generate the machine-readable trajectory file::

    PYTHONPATH=src python benchmarks/bench_exact_engines.py

This measures both exact engines on matched heterogeneous pipeline
instances at ``(n, p) in {(5, 5), (6, 6), (7, 7)}`` (asserting they return
the same optimum), adds a bnb-only showcase at ``n = 9, p = 8`` (far beyond
the enumerator's reach), measures the **bi-criteria threshold sweep** —
cold per-point solves vs one shared
:class:`~repro.algorithms.solve_context.SolveContext` (the
``analysis.pareto_front`` / ``campaign pareto`` hot path) — asserting
bit-identical rows, measures the **Pareto-front walk** (the same sweep
instances traced by ``analysis.pareto_front``, which walks the threshold
grid from the top and skips settled thresholds, against a solve at every
grid point — identical fronts, fewer tasks), measures the **anytime
budget curve** (incumbent
quality vs ``max_nodes`` on n=12..16 pipelines the unbudgeted guard
refuses), measures the **MILP frontier** (instances at and past ``n = 14``
closed *exactly* — gap 0 — by :mod:`repro.algorithms.milp`, plus a
budgeted anytime entry and the LP-vs-combinatorial bound comparison),
measures the **size-guard corners** (every bnb limit of
:func:`repro.algorithms.exact.guarded_optimal` solved unbudgeted at its
``(stages, processors)`` corner), and writes ``BENCH_exact.json`` at the
repository root so future PRs can track the speedup trajectory.

The MILP section needs an installed backend (PuLP/CBC or SciPy);
``--milp-only`` regenerates just that section into an existing
``BENCH_exact.json`` (the CI milp job's refresh path)::

    PYTHONPATH=src python benchmarks/bench_exact_engines.py --milp-only

The pytest entry point runs the same harness on the cheap ``(5, 5)`` /
``(6, 6)`` sizes only (flat enumeration at ``(7, 7)`` takes >60 s — fine
for the occasional standalone run, hostile in a CI loop) plus a small
sweep, and writes its result under ``benchmarks/reports/``.
"""

from __future__ import annotations

import gc
import json
import os
import platform as _platform_mod
import random
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro
from repro.algorithms import brute_force as bf
from repro.algorithms import exact
from repro.algorithms.problem import GraphKind, Objective, ProblemSpec
from repro.algorithms.solve_context import ContextCache
from repro.analysis import format_table
from repro.analysis.pareto import non_dominated, threshold_grid
from repro.campaign.runner import solve_task
from repro.campaign.spec import Task
from repro.core.costs import FLOAT_TOL
from repro.serialization import spec_to_dict

ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = ROOT / "BENCH_exact.json"
SEED = 2007
FULL_SIZES = ((5, 5), (6, 6), (7, 7))
QUICK_SIZES = ((5, 5), (6, 6))
SHOWCASE = (9, 8)
#: Sweep benchmark shapes: (n, p, grid points, engine).
SWEEP_FULL = ((7, 6, 16, "bnb"), (8, 7, 16, "bnb"), (5, 5, 12, "enumerate"))
SWEEP_QUICK = ((6, 5, 8, "bnb"),)
#: Anytime-budget shapes — instances past the unbudgeted size guard.
BUDGET_FULL = ((12, 8), (14, 8), (16, 8))
BUDGET_QUICK = ((12, 8),)
#: Node-budget grid for the anytime quality curve.
BUDGET_GRID = (512, 2048, 8192)
#: MILP frontier shapes — closed exactly (gap 0), past the bnb guard.
MILP_FULL = ((12, 8), (14, 8))
MILP_QUICK = ((11, 6),)
#: Budgeted MILP showcase: (n, p, max_seconds) — far past exact reach.
MILP_BUDGETED = (20, 8, 2.0)
#: Seeded instances solved at each bnb size-guard corner.
GUARD_SEEDS = 3


def _instance(rng: random.Random, n: int, p: int,
              graph=GraphKind.PIPELINE, allow_dp: bool = False):
    """A het ``graph`` of ``n`` stages (a fork's root and a fork-join's
    join included) on ``p`` het processors."""
    if graph is GraphKind.FORK:
        app = repro.ForkApplication.from_works(
            rng.randint(1, 9), [rng.randint(1, 9) for _ in range(n - 1)]
        )
    elif graph is GraphKind.FORK_JOIN:
        app = repro.ForkJoinApplication.from_works(
            rng.randint(1, 9), [rng.randint(1, 9) for _ in range(n - 2)],
            rng.randint(1, 9),
        )
    else:
        app = repro.PipelineApplication.from_works(
            [rng.randint(1, 9) for _ in range(n)]
        )
    plat = repro.Platform.heterogeneous([rng.randint(1, 6) for _ in range(p)])
    return ProblemSpec(app, plat, allow_dp)


def _timed(spec, objective, engine):
    t0 = time.perf_counter()
    solution = bf.optimal(spec, objective, engine=engine)
    return time.perf_counter() - t0, solution


def run_matrix(sizes=FULL_SIZES, seed=SEED) -> dict:
    """Measure both engines at each size; returns the JSON-ready payload."""
    rng = random.Random(seed)
    entries = []
    for n, p in sizes:
        spec = _instance(rng, n, p)
        t_bnb, sol_bnb = _timed(spec, Objective.PERIOD, "bnb")
        t_enum, sol_enum = _timed(spec, Objective.PERIOD, "enumerate")
        gap = abs(sol_bnb.period - sol_enum.period)
        assert gap <= 1e-9 * max(1.0, sol_enum.period), (
            f"engine disagreement at n={n}, p={p}: "
            f"{sol_bnb.period} vs {sol_enum.period}"
        )
        entries.append({
            "n": n,
            "p": p,
            "objective": "period",
            "optimum": sol_enum.period,
            "enumerate_seconds": round(t_enum, 6),
            "bnb_seconds": round(t_bnb, 6),
            "speedup": round(t_enum / max(t_bnb, 1e-9), 1),
            "bnb_nodes": sol_bnb.meta["nodes"],
            "bnb_pruned": sol_bnb.meta["pruned"],
        })
    return {
        "benchmark": "exact-engine comparison (heterogeneous pipeline, period)",
        "seed": seed,
        "python": sys.version.split()[0],
        "machine": _platform_mod.machine(),
        "cpus": os.cpu_count(),
        "entries": entries,
    }


def run_showcase(seed=SEED) -> dict:
    """bnb-only solve far beyond the enumerator's practical reach."""
    n, p = SHOWCASE
    rng = random.Random(seed + 1)
    spec = _instance(rng, n, p)
    results = {}
    for objective in (Objective.PERIOD, Objective.LATENCY):
        t, sol = _timed(spec, objective, "bnb")
        results[objective.value] = {
            "seconds": round(t, 6),
            "optimum": sol.objective_value(objective),
            "nodes": sol.meta["nodes"],
            "pruned": sol.meta["pruned"],
            "memo_hits": sol.meta.get("memo_hits", 0),
        }
    return {"n": n, "p": p, "engine": "bnb", "objectives": results}


def _strip_timing(rows: list[dict]) -> list[dict]:
    """Rows without their volatile ``timing`` blocks (wall seconds and
    context-dependent memo hits legitimately differ between repeats)."""
    return [{k: v for k, v in row.items() if k != "timing"} for row in rows]


def _best_of(passes: dict, repeats: int) -> tuple[dict, dict]:
    """Interleaved best-of-N wall clock over named thunks.

    The minimum over repeats is the ``timeit`` convention (least
    noise-contaminated estimate on a shared machine); *interleaving* the
    passes (in alternating order) means drifting background load
    contaminates every pass equally instead of biasing whichever block
    ran during the spike or always ran first.
    Returns ``(seconds, rows)`` keyed like ``passes`` and asserts every
    repeat of a pass produced the same rows (up to the volatile
    ``timing`` block; the kept rows are the first repeat's, timing
    included, so callers can still aggregate search effort).
    """
    seconds = {name: float("inf") for name in passes}
    rows: dict = {}
    order = list(passes.items())
    for rep in range(repeats):
        # alternate the pass order so neither side always runs first
        for name, fn in order if rep % 2 == 0 else order[::-1]:
            gc.collect()                   # level the allocator between reps
            t0 = time.perf_counter()
            got = fn()
            seconds[name] = min(seconds[name], time.perf_counter() - t0)
            first = rows.setdefault(name, got)
            assert _strip_timing(first) == _strip_timing(got), (
                f"timing repeat changed a {name} row"
            )
    return seconds, rows


def run_sweep(n: int, p: int, points: int, engine: str, seed=SEED,
              repeats: int = 15) -> dict:
    """Threshold sweep of one het pipeline: cold vs context-reuse.

    Mirrors the ``pareto_front`` hot path through ``runner.solve_task``:
    "min latency s.t. period <= K" for a geometric K-grid between the two
    extremes.  The cold pass solves every point from scratch; the context
    pass shares one :class:`ContextCache` across the sweep (a fresh cache
    per timing repeat, so no repeat rides the previous one's warmth).
    Each side keeps its best of ``repeats`` interleaved passes; the ratio
    gates at ``MIN_SWEEP_SPEEDUP``, and best of 5 let host noise alone
    move the bnb 8 x 7 reading across that floor.
    Rows must be bit-identical — the context is a pure amortization.
    """
    rng = random.Random(seed + 2)
    spec = _instance(rng, n, p)
    instance = spec_to_dict(spec)
    solver = {
        "name": "sweep", "mode": "auto",
        "exact_fallback": True, "engine": engine,
    }

    def _task(i: int, objective: str, bound: float | None = None) -> Task:
        return Task(
            index=i, instance_id=f"sweep-{n}x{p}", instance=instance,
            objective=objective, period_bound=bound, latency_bound=None,
            solver=solver,
        )

    lo, _ = solve_task(_task(0, "period"))
    hi, _ = solve_task(_task(1, "latency"))
    assert lo["status"] == "ok" and hi["status"] == "ok", (lo, hi)
    thresholds = threshold_grid(
        lo["period"], max(hi["period"], lo["period"]), points
    )
    tasks = [
        _task(i, "latency", bound * (1 + FLOAT_TOL))
        for i, bound in enumerate(thresholds)
    ]

    def _context_pass():
        contexts = ContextCache()          # fresh per repeat, shared within
        return [solve_task(task, contexts)[0] for task in tasks]

    seconds, rows = _best_of(
        {"cold": lambda: [solve_task(task)[0] for task in tasks],
         "context": _context_pass},
        repeats,
    )
    cold_seconds, context_seconds = seconds["cold"], seconds["context"]
    cold, warm = rows["cold"], rows["context"]

    assert _strip_timing(cold) == _strip_timing(warm), (
        "context-reuse changed a sweep row"
    )

    def _effort(sweep_rows: list[dict]) -> dict:
        timings = [r.get("timing") or {} for r in sweep_rows]
        return {
            "nodes": sum(t.get("nodes") or 0 for t in timings),
            "pruned": sum(t.get("pruned") or 0 for t in timings),
            "memo_hits": sum(t.get("memo_hits") or 0 for t in timings),
        }

    front = non_dominated(
        SimpleNamespace(period=r["period"], latency=r["latency"])
        for r in (lo, hi, *cold) if r["status"] == "ok"
    )
    return {
        "n": n,
        "p": p,
        "engine": engine,
        "points": points,
        "objective": "latency under period threshold",
        "cold_seconds": round(cold_seconds, 6),
        "context_seconds": round(context_seconds, 6),
        "speedup": round(cold_seconds / max(context_seconds, 1e-9), 2),
        "rows_identical": True,
        # search-effort totals from the rows' timing blocks: the context
        # pass should replay enumeration work as memo hits, not re-search
        "cold_effort": _effort(cold),
        "context_effort": _effort(warm),
        "front": [[pt.period, pt.latency] for pt in front],
    }


def run_sweeps(shapes=SWEEP_FULL, seed=SEED) -> list[dict]:
    """The sweep benchmark matrix (see :data:`SWEEP_FULL`)."""
    return [run_sweep(n, p, points, engine, seed=seed)
            for n, p, points, engine in shapes]


def _front_rows(front) -> list[dict]:
    from repro.serialization import mapping_to_dict

    return [{"period": s.period, "latency": s.latency,
             "algorithm": s.meta.get("algorithm"),
             "mapping": mapping_to_dict(s.mapping)} for s in front]


def _grid_front(spec, points: int, engine: str, cache=None) -> list[dict]:
    """The full-grid sweep the walk replaced: both extremes and every
    grid threshold solved (keyed as ``pareto_front`` keys them, sharing
    one :class:`ContextCache`), then one non-domination pass."""
    from repro.analysis.pareto import _solution_from_row
    from repro.campaign.runner import execute_tasks

    instance = spec_to_dict(spec)
    solver = {"name": "pareto", "mode": "auto", "exact_fallback": True,
              "engine": engine}

    def _task(i: int, objective: str, bound: float | None = None) -> Task:
        return Task(index=i, instance_id="pareto", instance=instance,
                    objective=objective, period_bound=bound,
                    latency_bound=None, solver=solver)

    contexts = ContextCache()
    extremes = execute_tasks([_task(0, "period"), _task(1, "latency")],
                             cache=cache, context_cache=contexts)
    lo, hi = (_solution_from_row(row) for row in extremes)
    thresholds = threshold_grid(lo.period, max(hi.period, lo.period), points)
    sweep = execute_tasks(
        [_task(i, "latency", bound * (1 + FLOAT_TOL))
         for i, bound in enumerate(thresholds)],
        cache=cache, context_cache=contexts,
    )
    return _front_rows(non_dominated(
        [lo, hi, *(_solution_from_row(r) for r in sweep
                   if r["status"] == "ok")]
    ))


def run_front(n: int, p: int, points: int, engine: str, seed=SEED,
              repeats: int = 5) -> dict:
    """Full threshold grid vs the descending walk of ``pareto_front``.

    Traces the front of the :func:`run_sweep` instance both ways: every
    grid threshold solved, and ``analysis.pareto_front``, which walks the
    same grid from the top and skips each threshold a solve already
    settled.  Counts the solved tasks (extremes included) on an
    always-miss cache and times both with interleaved best-of repeats.
    The fronts — periods, latencies, labels and mappings — must match.
    """
    from repro.analysis import pareto_front
    from repro.campaign import CacheBackend, ResultCache

    class _NoStore(CacheBackend):
        name = "no-store"

        def load(self, key):
            return None

        def store(self, key, row):
            pass

    spec = _instance(random.Random(seed + 2), n, p)

    def _walk(cache=None):
        return _front_rows(pareto_front(spec, num_points=points,
                                        exact_fallback=True, engine=engine,
                                        cache=cache))

    counted = {"grid": ResultCache(backend=_NoStore()),
               "walk": ResultCache(backend=_NoStore())}
    _grid_front(spec, points, engine, counted["grid"])
    _walk(counted["walk"])
    seconds, fronts = _best_of(
        {"grid": lambda: _grid_front(spec, points, engine), "walk": _walk},
        repeats,
    )
    assert fronts["grid"] == fronts["walk"], (
        f"walk and full grid disagree at {n}x{p}"
    )
    return {
        "n": n,
        "p": p,
        "engine": engine,
        "points": points,
        "grid_tasks": counted["grid"].misses,
        "walk_tasks": counted["walk"].misses,
        "grid_seconds": round(seconds["grid"], 6),
        "walk_seconds": round(seconds["walk"], 6),
        "fronts_identical": True,
        "front_points": len(fronts["walk"]),
    }


def run_fronts(shapes=SWEEP_FULL, seed=SEED) -> list[dict]:
    """The front benchmark over the sweep shapes (see :data:`SWEEP_FULL`)."""
    return [run_front(n, p, points, engine, seed=seed)
            for n, p, points, engine in shapes]


def run_budget_curve(shapes=BUDGET_FULL, grid=BUDGET_GRID,
                     seed=SEED) -> list[dict]:
    """Incumbent quality vs node budget on guard-lifted instances.

    Solves each (n, p) het pipeline under every ``max_nodes`` in the
    grid and records the anytime curve: incumbent value, proven lower
    bound and gap.  Asserts the anytime contract while measuring —
    the incumbent never regresses as the budget grows (the visit order
    is fixed, so a larger budget sees a superset of incumbents) and
    every incumbent stays above its lower bound.
    """
    from repro.algorithms.budget import Budget

    rng = random.Random(seed + 3)
    entries = []
    for n, p in shapes:
        spec = _instance(rng, n, p)
        points = []
        previous = float("inf")
        for max_nodes in grid:
            t0 = time.perf_counter()
            sol = bf.optimal(spec, Objective.PERIOD,
                             budget=Budget(max_nodes=max_nodes))
            seconds = time.perf_counter() - t0
            meta = sol.meta
            value = sol.period
            lower = meta.get("lower_bound", value)
            gap = meta.get("gap", 0.0)
            assert value <= previous + FLOAT_TOL, (
                f"anytime regression at n={n}: {value} after {previous}"
            )
            assert value >= lower - FLOAT_TOL, (
                f"incumbent below its lower bound at n={n}"
            )
            previous = value
            points.append({
                "max_nodes": max_nodes,
                "status": meta["status"],
                "nodes": meta["nodes"],
                "value": value,
                "lower_bound": lower,
                "gap": round(gap, 6),
                "seconds": round(seconds, 6),
            })
        entries.append({
            "n": n,
            "p": p,
            "objective": "period",
            "anytime_monotone": True,
            "sound": True,
            "points": points,
        })
    return entries


def run_milp(shapes=MILP_FULL, budgeted=MILP_BUDGETED,
             seed=SEED) -> dict | None:
    """The MILP frontier: instances closed *exactly* past the bnb guard.

    Solves each (n, p) het pipeline to a proven optimum (gap 0) with the
    MILP engine, recording wall time, the LP-relaxation bound and the
    combinatorial root bound (the LP one must be at least as tight to be
    worth its solve), plus one budgeted anytime entry far past exact
    reach.  Returns ``None`` when no backend is installed — the committed
    ``BENCH_exact.json`` must carry the section, so regenerating without
    a backend fails the regression gate rather than silently dropping it.
    """
    from repro.algorithms import bnb, milp
    from repro.algorithms.budget import Budget

    if not milp.milp_available():
        return None
    rng = random.Random(seed + 4)
    entries = []
    for n, p in shapes:
        spec = _instance(rng, n, p)
        t0 = time.perf_counter()
        sol = bf.optimal(spec, Objective.PERIOD, engine="milp")
        seconds = time.perf_counter() - t0
        assert sol.meta["status"] == "optimal", sol.meta
        lp_bound = milp.lp_lower_bound(spec, Objective.PERIOD)
        root_bound = bnb.root_lower_bound(spec, Objective.PERIOD)
        assert lp_bound <= sol.period * (1 + FLOAT_TOL), (
            f"unsound LP bound at n={n}: {lp_bound} > {sol.period}"
        )
        entries.append({
            "n": n,
            "p": p,
            "objective": "period",
            "status": "optimal",
            "optimum": sol.period,
            "gap": 0.0,
            "seconds": round(seconds, 6),
            "nodes": sol.meta["nodes"],
            "lp_bound": lp_bound,
            "combinatorial_bound": root_bound,
        })
    n, p, max_seconds = budgeted
    spec = _instance(rng, n, p)
    t0 = time.perf_counter()
    sol = bf.optimal(spec, Objective.PERIOD, engine="milp",
                     budget=Budget(max_seconds=max_seconds))
    seconds = time.perf_counter() - t0
    meta = sol.meta
    value = sol.period
    lower = meta.get("lower_bound", value)
    gap = meta.get("gap", 0.0)
    assert 0.0 <= gap < float("inf"), f"unsound budgeted gap {gap}"
    assert value >= lower - FLOAT_TOL * max(1.0, lower), (
        f"budgeted incumbent {value} below its bound {lower}"
    )
    return {
        "backend": milp.backend_name(),
        "frontier_n": max(e["n"] for e in entries),
        "entries": entries,
        "budgeted": {
            "n": n,
            "p": p,
            "objective": "period",
            "max_seconds": max_seconds,
            "status": meta["status"],
            "value": value,
            "lower_bound": lower,
            "gap": round(gap, 6),
            "seconds": round(seconds, 6),
        },
    }


def run_guard(seeds=GUARD_SEEDS, seed=SEED) -> list[dict]:
    """Unbudgeted bnb solves at every bnb size-guard corner.

    Each ``(engine, graph, criterion)`` limit of the guard is solved at
    its ``(stages, processors)`` corner through
    :func:`exact.guarded_optimal` (so the guard must admit it) on het
    graphs of the limit's kind (pipelines for the default) over het
    platforms.  Latency corners allow data parallelism, the shape that
    makes them slow; the others do not.  The engine-wide default is
    measured on the bi-criteria cell — latency under a period threshold
    of 1.5x the optimal period — which keeps it.  Records the slowest
    solve; every solve must close at gap 0.
    """
    entries = []
    for (engine, graph, crit), (n, p) in exact._ENGINE_LIMITS.items():
        if engine != "bnb":
            continue
        rng = random.Random(seed + 5)
        optima, gaps, worst = [], [], 0.0
        for _ in range(seeds):
            spec = _instance(rng, n, p, graph or GraphKind.PIPELINE,
                             allow_dp=crit == "latency")
            bounds = {}
            if crit in (None, "bicriteria"):
                objective = Objective.LATENCY
                period = bf.optimal(spec, Objective.PERIOD).period
                bounds["period_bound"] = 1.5 * period
            else:
                objective = Objective(crit)
            t0 = time.perf_counter()
            sol = exact.guarded_optimal(spec, objective, **bounds)
            worst = max(worst, time.perf_counter() - t0)
            assert sol.meta["status"] == "optimal", sol.meta
            optima.append(sol.objective_value(objective))
            gaps.append(sol.meta.get("gap", 0.0))
        entries.append({
            "engine": engine,
            "graph": graph.value if graph else None,
            "criterion": crit,
            "n": n,
            "p": p,
            "solved": ("latency under period threshold" if bounds
                       else objective.value),
            "seeds": seeds,
            "status": "optimal",
            "gap": max(gaps),
            "max_seconds": round(worst, 6),
            "optima": optima,
        })
    return entries


def _rows(payload: dict) -> list[list[str]]:
    return [
        [
            f"{e['n']}x{e['p']}",
            f"{e['optimum']:.4g}",
            f"{e['enumerate_seconds'] * 1e3:.1f}",
            f"{e['bnb_seconds'] * 1e3:.1f}",
            f"{e['speedup']:.0f}x",
        ]
        for e in payload["entries"]
    ]


def _render(payload: dict) -> str:
    return format_table(
        ["n=p", "optimum", "enumerate (ms)", "bnb (ms)", "speedup"],
        _rows(payload),
        title="exact engines on matched heterogeneous pipelines",
    )


def _render_sweeps(entries: list[dict]) -> str:
    return format_table(
        ["n x p", "engine", "points", "cold (ms)", "context (ms)", "speedup"],
        [
            [
                f"{e['n']}x{e['p']}",
                e["engine"],
                str(e["points"]),
                f"{e['cold_seconds'] * 1e3:.1f}",
                f"{e['context_seconds'] * 1e3:.1f}",
                f"{e['speedup']:.2f}x",
            ]
            for e in entries
        ],
        title="threshold sweeps: cold per-point vs shared SolveContext",
    )


def _render_fronts(entries: list[dict]) -> str:
    return format_table(
        ["n x p", "engine", "points", "grid tasks", "walk tasks",
         "grid (ms)", "walk (ms)"],
        [
            [
                f"{e['n']}x{e['p']}",
                e["engine"],
                str(e["points"]),
                str(e["grid_tasks"]),
                str(e["walk_tasks"]),
                f"{e['grid_seconds'] * 1e3:.1f}",
                f"{e['walk_seconds'] * 1e3:.1f}",
            ]
            for e in entries
        ],
        title="Pareto fronts: full threshold grid vs descending walk",
    )


def _render_budget(entries: list[dict]) -> str:
    rows = []
    for e in entries:
        for pt in e["points"]:
            rows.append([
                f"{e['n']}x{e['p']}",
                str(pt["max_nodes"]),
                pt["status"],
                f"{pt['value']:.4g}",
                f"{pt['lower_bound']:.4g}",
                f"{pt['gap'] * 100:.1f}%",
                f"{pt['seconds'] * 1e3:.1f}",
            ])
    return format_table(
        ["n x p", "budget", "status", "incumbent", "lower bnd", "gap",
         "ms"],
        rows,
        title="anytime incumbents vs node budget (guard-lifted pipelines)",
    )


def _render_guard(entries: list[dict]) -> str:
    return format_table(
        ["engine", "limit", "n x p", "solved", "seeds", "max s"],
        [
            [
                e["engine"],
                f"{e['graph'] or '*'} {e['criterion'] or '*'}",
                f"{e['n']}x{e['p']}",
                e["solved"],
                str(e["seeds"]),
                f"{e['max_seconds']:.2f}",
            ]
            for e in entries
        ],
        title="size-guard corners (unbudgeted, het graphs)",
    )


def _render_milp(section: dict) -> str:
    rows = [
        [
            f"{e['n']}x{e['p']}",
            e["status"],
            f"{e['optimum']:.4g}",
            f"{e['gap'] * 100:.1f}%",
            f"{e['lp_bound']:.4g}",
            f"{e['combinatorial_bound']:.4g}",
            f"{e['seconds']:.2f}",
        ]
        for e in section["entries"]
    ]
    b = section["budgeted"]
    rows.append([
        f"{b['n']}x{b['p']}",
        f"{b['status']} ({b['max_seconds']}s)",
        f"{b['value']:.4g}",
        f"{b['gap'] * 100:.1f}%",
        f"{b['lower_bound']:.4g}",
        "-",
        f"{b['seconds']:.2f}",
    ])
    return format_table(
        ["n x p", "status", "value", "gap", "lp bnd", "comb bnd", "s"],
        rows,
        title=f"milp frontier ({section['backend']} backend)",
    )


def main(milp_only: bool = False) -> int:
    if milp_only:
        # refresh just the milp section of an existing trajectory file
        # (the CI milp job's path: no 100 s+ enumerate matrix)
        milp_section = run_milp(MILP_FULL)
        if milp_section is None:
            print("no MILP backend installed; cannot regenerate the milp "
                  "section", file=sys.stderr)
            return 1
        payload = json.loads(RESULT_PATH.read_text())
        payload["milp"] = milp_section
        RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(_render_milp(milp_section))
        print(f"[milp section -> {RESULT_PATH}]")
        return 0
    # the sweep ratio is the gated number — measure it before the 100 s+
    # enumerate matrix heats the process (allocator state after that run
    # inflates the ~30 ms context pass disproportionately)
    sweeps = run_sweeps(SWEEP_FULL)
    fronts = run_fronts(SWEEP_FULL)
    budget = run_budget_curve(BUDGET_FULL)
    milp_section = run_milp(MILP_FULL)
    guard = run_guard()
    payload = run_matrix(FULL_SIZES)
    payload["showcase"] = run_showcase()
    payload["sweep"] = {"entries": sweeps}
    payload["front"] = {"entries": fronts}
    payload["budget"] = {"grid": list(BUDGET_GRID), "entries": budget}
    payload["guard"] = {"entries": guard}
    if milp_section is not None:
        payload["milp"] = milp_section
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(_render(payload))
    sc = payload["showcase"]
    for obj, r in sc["objectives"].items():
        print(
            f"showcase n={sc['n']} p={sc['p']} {obj}: "
            f"{r['seconds'] * 1e3:.0f} ms, optimum {r['optimum']:.4g}, "
            f"{r['nodes']} nodes"
        )
    print(_render_sweeps(payload["sweep"]["entries"]))
    print(_render_fronts(fronts))
    print(_render_budget(payload["budget"]["entries"]))
    print(_render_guard(guard))
    if milp_section is not None:
        print(_render_milp(milp_section))
    else:
        print("[milp section skipped: no backend installed — the "
              "regression gate will fail on a file regenerated this way]")
    print(f"[results -> {RESULT_PATH}]")
    return 0


# ----------------------------------------------------------------------
# pytest entry points (quick sizes only)
# ----------------------------------------------------------------------
def test_exact_engines_quick(benchmark, report):
    payload = benchmark.pedantic(
        lambda: run_matrix(QUICK_SIZES), rounds=1, iterations=1
    )
    for entry in payload["entries"]:
        assert entry["speedup"] >= 10.0, (
            f"bnb speedup regressed below 10x at n={entry['n']}: {entry}"
        )
    report("exact_engines", _render(payload))


def test_budget_anytime_quick(report):
    # run_budget_curve asserts the anytime contract (monotone incumbents,
    # sound lower bounds) while measuring; a finite gap means the lower
    # bound is positive and the incumbent real
    entries = run_budget_curve(BUDGET_QUICK)
    for entry in entries:
        assert entry["anytime_monotone"] and entry["sound"]
        for pt in entry["points"]:
            assert pt["gap"] >= 0.0 and pt["gap"] < float("inf")
    report("exact_budget", _render_budget(entries))


def test_sweep_context_quick(report):
    entries = run_sweeps(SWEEP_QUICK)
    for entry in entries:
        # correctness is the hard gate: run_sweep asserts cold == context
        # rows bit-identically.  No wall-clock assertion here — ms-scale
        # sweeps on shared CI runners make timing ratios nondeterministic;
        # the committed BENCH_exact.json records the honest full-size
        # >= 2x measurement and check_bench_regressions.py gates *that*
        assert entry["rows_identical"]
    report("exact_sweep", _render_sweeps(entries))


def test_front_walk_quick(report):
    # run_front asserts the walk's front equals the full grid's
    entries = run_fronts(SWEEP_QUICK)
    for entry in entries:
        assert entry["fronts_identical"]
        assert entry["walk_tasks"] <= entry["grid_tasks"]
    report("exact_front", _render_fronts(entries))


def test_guard_corners_quick(report):
    # one seed per corner: the guard admits it and bnb closes it exactly
    entries = run_guard(seeds=1)
    assert all(e["status"] == "optimal" for e in entries)
    report("exact_guard", _render_guard(entries))


@pytest.mark.milp
def test_milp_frontier_quick(report):
    # one live proof past the bnb guard (n=11 > 10) closed at gap 0; the
    # committed BENCH_exact.json records the full n>=14 frontier and
    # check_bench_regressions.py gates *that*
    section = run_milp(MILP_QUICK, budgeted=(14, 8, 0.2))
    assert section is not None  # marker guarantees a backend
    entry = section["entries"][0]
    assert entry["status"] == "optimal" and entry["gap"] == 0.0
    assert section["frontier_n"] > 10
    report("exact_milp", _render_milp(section))


if __name__ == "__main__":
    sys.exit(main(milp_only="--milp-only" in sys.argv[1:]))
