#!/usr/bin/env python
"""Perf-trajectory regression gate over the committed ``BENCH_exact.json``.

The repository commits the exact engines' measured trajectory so every
PR leaves an auditable record of their reach.  The *recorded* numbers
must clear the floors future PRs may not regress:

* the matrix section — branch-and-bound must stay >= 10x faster than
  flat enumeration at every measured size, and every entry must carry
  the search-effort counters (``bnb_nodes`` / ``bnb_pruned``) the
  instrumented engines now report — together these gate that per-solve
  instrumentation stays free on the hot path (the counters are read
  post-solve from state the search already kept);
* the sweep section — context-reuse must stay >= 2x faster than cold
  per-point solves (and the sweep rows must have been verified
  bit-identical when the file was generated), with search-effort totals
  present in every entry;
* the front section — ``analysis.pareto_front`` (a descending walk over
  the threshold grid) must have returned the same front as a solve at
  every grid point, in no more tasks;
* the budget section — the anytime contract: incumbents were verified
  monotone in the node budget and sound against their lower bounds,
  every recorded gap is finite, and the gap at the largest budget is no
  worse than at the smallest;
* the milp section — the MILP engine closes instances past the
  combinatorial guard, at least one of them with n >= 14 at gap 0.

Thresholds are the honest single-core ones (see the ROADMAP note): both
ratios are CPU-bound and hold on the 1-CPU reference container.
End-to-end throughput and latency of the campaign runner and the solver
service are measured by ``perfbench/``, not here.

Usage::

    python build_tools/check_bench_regressions.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Floors for the committed trajectory (single-core honest, see module doc).
MIN_MATRIX_SPEEDUP = 10.0
MIN_SWEEP_SPEEDUP = 2.0
#: The MILP engine must keep closing instances past the combinatorial
#: guard (frontier strictly beyond n=10) and hold the ISSUE 10 acceptance
#: floor: at least one n >= 14 instance closed exactly (gap 0).
MIN_MILP_FRONTIER_N = 10
MIN_MILP_EXACT_N = 14

#: Search-effort fields the instrumented engines must keep recording —
#: their absence would mean the free post-solve instrumentation was lost.
MATRIX_EFFORT_FIELDS = ("bnb_nodes", "bnb_pruned")
SWEEP_EFFORT_FIELDS = ("cold_effort", "context_effort")


def _fail(message: str) -> None:
    print(f"REGRESSION: {message}", file=sys.stderr)
    raise SystemExit(1)


def check_matrix(path: Path, doc: dict) -> list[str]:
    """The instrumentation-overhead gate: engine speedups must hold at
    their historical floor *with* the effort counters recorded."""
    entries = doc.get("entries", [])
    if not entries:
        _fail(f"{path.name} has no matrix entries — regenerate with "
              "PYTHONPATH=src python benchmarks/bench_exact_engines.py")
    lines = []
    for entry in entries:
        label = f"matrix {entry['n']}x{entry['p']}"
        missing = [f for f in MATRIX_EFFORT_FIELDS if f not in entry]
        if missing:
            _fail(f"{label}: search-effort fields {missing} missing — "
                  "engine instrumentation was lost")
        if entry["speedup"] < MIN_MATRIX_SPEEDUP:
            _fail(f"{label}: bnb speedup {entry['speedup']}x fell below "
                  f"the {MIN_MATRIX_SPEEDUP}x floor (instrumentation "
                  "overhead on the hot path?)")
        lines.append(
            f"  {label}: {entry['speedup']}x (>= {MIN_MATRIX_SPEEDUP}x), "
            f"{entry['bnb_nodes']} nodes / {entry['bnb_pruned']} pruned"
        )
    return lines


def check_exact(path: Path) -> list[str]:
    doc = json.loads(path.read_text())
    lines = check_matrix(path, doc)
    sweep = doc.get("sweep", {})
    entries = sweep.get("entries", [])
    if not entries:
        _fail(f"{path.name} has no sweep section — regenerate with "
              "PYTHONPATH=src python benchmarks/bench_exact_engines.py")
    for entry in entries:
        label = (f"sweep {entry['engine']} {entry['n']}x{entry['p']} "
                 f"({entry['points']} points)")
        if not entry.get("rows_identical"):
            _fail(f"{label}: rows were not verified bit-identical")
        missing = [f for f in SWEEP_EFFORT_FIELDS if f not in entry]
        if missing:
            _fail(f"{label}: search-effort totals {missing} missing — "
                  "regenerate after restoring SolveStats timing blocks")
        if entry["speedup"] < MIN_SWEEP_SPEEDUP:
            _fail(f"{label}: context-reuse speedup {entry['speedup']}x "
                  f"fell below the {MIN_SWEEP_SPEEDUP}x floor")
        lines.append(f"  {label}: {entry['speedup']}x (>= {MIN_SWEEP_SPEEDUP}x)")
    lines += check_front(path, doc)
    lines += check_budget(path, doc)
    lines += check_milp(path, doc)
    return lines


def check_front(path: Path, doc: dict) -> list[str]:
    """The front-walk gate: the walk returns the full grid's front and
    never solves more tasks than the grid."""
    entries = doc.get("front", {}).get("entries", [])
    if not entries:
        _fail(f"{path.name} has no front section — regenerate with "
              "PYTHONPATH=src python benchmarks/bench_exact_engines.py")
    lines = []
    for entry in entries:
        label = (f"front {entry['engine']} {entry['n']}x{entry['p']} "
                 f"({entry['points']} points)")
        if not entry.get("fronts_identical"):
            _fail(f"{label}: the walk's front was not verified identical "
                  "to the full grid's")
        if entry["walk_tasks"] > entry["grid_tasks"]:
            _fail(f"{label}: the walk solved {entry['walk_tasks']} tasks, "
                  f"more than the grid's {entry['grid_tasks']}")
        lines.append(f"  {label}: {entry['walk_tasks']} tasks "
                     f"(<= grid {entry['grid_tasks']})")
    return lines


def check_milp(path: Path, doc: dict) -> list[str]:
    """The MILP frontier gate: the committed trajectory must prove the
    engine closes instances past the combinatorial guard, exactly."""
    section = doc.get("milp")
    if not section:
        _fail(f"{path.name} has no milp section — regenerate with an MILP "
              "backend installed: PYTHONPATH=src python "
              "benchmarks/bench_exact_engines.py --milp-only")
    entries = section.get("entries", [])
    closed = [e for e in entries
              if e.get("status") == "optimal" and e.get("gap") == 0.0]
    if not closed:
        _fail("milp: no instance closed exactly (gap 0)")
    frontier = max(e["n"] for e in closed)
    if frontier <= MIN_MILP_FRONTIER_N:
        _fail(f"milp: closed frontier n={frontier} regressed to within "
              f"the combinatorial guard (must exceed "
              f"n={MIN_MILP_FRONTIER_N})")
    if not any(e["n"] >= MIN_MILP_EXACT_N for e in closed):
        _fail(f"milp: no n>={MIN_MILP_EXACT_N} instance closed exactly — "
              "the ISSUE 10 acceptance floor")
    lines = []
    for e in entries:
        label = f"milp {e['n']}x{e['p']}"
        for field in ("lp_bound", "combinatorial_bound"):
            if field not in e:
                _fail(f"{label}: {field} missing — bound comparison was "
                      "lost")
        if e["lp_bound"] > e["optimum"] * (1 + 1e-9):
            _fail(f"{label}: LP bound {e['lp_bound']} exceeds the optimum "
                  f"{e['optimum']} — unsound relaxation")
        lines.append(
            f"  {label}: {e['status']} gap {e['gap'] * 100:.1f}% "
            f"in {e['seconds']:.2f}s ({section['backend']})"
        )
    budgeted = section.get("budgeted")
    if not budgeted:
        _fail("milp: no budgeted anytime entry recorded")
    gap = budgeted["gap"]
    if not (0.0 <= gap < float("inf")):
        _fail(f"milp budgeted: non-finite or negative gap {gap}")
    if budgeted["value"] < budgeted["lower_bound"] * (1 - 1e-9):
        _fail(f"milp budgeted: incumbent {budgeted['value']} below its "
              f"dual bound {budgeted['lower_bound']}")
    lines.append(
        f"  milp budgeted {budgeted['n']}x{budgeted['p']} "
        f"({budgeted['max_seconds']}s): {budgeted['status']}, "
        f"gap {gap * 100:.1f}%"
    )
    return lines


def check_budget(path: Path, doc: dict) -> list[str]:
    budget = doc.get("budget", {})
    entries = budget.get("entries", [])
    if not entries:
        _fail(f"{path.name} has no budget section — regenerate with "
              "PYTHONPATH=src python benchmarks/bench_exact_engines.py")
    lines = []
    for entry in entries:
        label = f"budget {entry['n']}x{entry['p']}"
        if not (entry.get("anytime_monotone") and entry.get("sound")):
            _fail(f"{label}: anytime contract was not verified at "
                  "generation time")
        gaps = [pt["gap"] for pt in entry["points"]]
        if any(not (0.0 <= g < float("inf")) for g in gaps):
            _fail(f"{label}: non-finite or negative gap recorded: {gaps}")
        if gaps[-1] > gaps[0]:
            _fail(f"{label}: gap widened with budget ({gaps[0]} -> "
                  f"{gaps[-1]})")
        lines.append(
            f"  {label}: gap {gaps[0] * 100:.1f}% @ "
            f"{entry['points'][0]['max_nodes']} nodes -> "
            f"{gaps[-1] * 100:.1f}% @ {entry['points'][-1]['max_nodes']}"
        )
    return lines


def main() -> int:
    lines = check_exact(ROOT / "BENCH_exact.json")
    print("perf trajectory OK:")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
