"""Aggregation of campaign results: summaries, gaps, Pareto comparisons.

Everything here consumes the plain-dict result rows produced by
:mod:`repro.campaign.runner` (live, or re-loaded from a JSONL results
file), so reports can be regenerated without re-solving anything.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from ..analysis.report import format_table
from ..core.exceptions import ReproError
from .profile import percentile

__all__ = [
    "summarize",
    "timing_breakdown",
    "heuristic_gap",
    "pareto_comparison",
    "pareto_fronts_doc",
    "save_pareto_fronts",
    "load_pareto_fronts",
]

#: ``kind`` discriminator / format version of the Pareto-front artifact.
PARETO_DOC_KIND = "pareto-fronts"
PARETO_DOC_VERSION = 1


def _rows_of(result_or_rows) -> list[dict]:
    rows = getattr(result_or_rows, "rows", result_or_rows)
    return list(rows)


def _group_key(row: dict) -> tuple:
    return (
        row["instance_id"],
        row["objective"],
        row.get("period_bound"),
        row.get("latency_bound"),
    )


# ----------------------------------------------------------------------
# summary table
# ----------------------------------------------------------------------
def _resolution_of(row: dict) -> str:
    """The row's resolution, derived for rows saved before the field."""
    resolution = row.get("resolution")
    if resolution is not None:
        return resolution
    if row.get("cached"):
        return "cached-ok" if row["status"] == "ok" else "cached-error"
    return "solved"


def summarize(result_or_rows, title: str = "campaign summary") -> str:
    """One line per (solver, objective): counts, values, time, cache use.

    The ``cached-ok / cached-err / solved / retried`` columns break the
    task count down by how each row was obtained — on a resumed
    ``retry_errors`` run this is the at-a-glance answer to "what was
    re-solved and what came from the cache".  ``crashed`` counts tasks
    quarantined after killing their worker process; ``budget`` counts
    anytime rows whose solve budget ran out
    (``execution.status == "budget_exhausted"``).
    """
    rows = _rows_of(result_or_rows)
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault((row["solver"], row["objective"]), []).append(row)
    table = []
    for (solver, objective), members in sorted(groups.items()):
        ok = [r for r in members if r["status"] == "ok"]
        values = [r["value"] for r in ok]
        seconds = sum(r["seconds"] for r in members)
        resolutions = [_resolution_of(r) for r in members]
        table.append([
            solver,
            objective,
            str(len(members)),
            str(len(ok)),
            str(len(members) - len(ok)),
            str(resolutions.count("cached-ok")),
            str(resolutions.count("cached-error")),
            str(resolutions.count("solved")),
            str(resolutions.count("retried")),
            str(resolutions.count("crashed")),
            str(sum(
                1 for r in members
                if (r.get("execution") or {}).get("status")
                == "budget_exhausted"
            )),
            f"{statistics.mean(values):.4g}" if values else "-",
            f"{statistics.median(values):.4g}" if values else "-",
            f"{seconds:.3f}",
        ])
    return format_table(
        ["solver", "objective", "tasks", "ok", "errors", "cached-ok",
         "cached-err", "solved", "retried", "crashed", "budget",
         "mean value", "median value", "solve (s)"],
        table,
        title=title,
    )


# ----------------------------------------------------------------------
# per-engine timing breakdown
# ----------------------------------------------------------------------
def timing_breakdown(result_or_rows,
                     title: str = "engine timing breakdown") -> str:
    """One line per solving engine: wall time and search effort.

    Aggregates the volatile ``timing`` blocks
    (:class:`~repro.obs.solvestats.SolveStats`) of the rows that carry
    one — cached rows keep their original solve's block, so the table
    reports what the solves *cost when they ran*, not this run's cache
    lookups.  Returns ``""`` when no row has timing (results saved
    before the field existed); callers can print the result unguarded.
    """
    rows = _rows_of(result_or_rows)
    groups: dict[str, list[dict]] = {}
    for row in rows:
        timing = row.get("timing")
        if timing:
            groups.setdefault(timing.get("engine") or "-", []).append(timing)
    if not groups:
        return ""
    table = []
    for engine, timings in sorted(groups.items()):
        seconds = [t.get("seconds", 0.0) for t in timings]
        table.append([
            engine,
            str(len(timings)),
            f"{sum(seconds):.3f}",
            f"{1e3 * statistics.mean(seconds):.2f}",
            f"{1e3 * percentile(seconds, 0.95):.2f}",
            str(sum(t.get("nodes") or 0 for t in timings)),
            str(sum(t.get("pruned") or 0 for t in timings)),
            str(sum(t.get("memo_hits") or 0 for t in timings)),
        ])
    return format_table(
        ["engine", "rows", "total (s)", "mean (ms)", "p95 (ms)",
         "nodes", "pruned", "memo hits"],
        table,
        title=title,
    )


# ----------------------------------------------------------------------
# heuristic-gap statistics
# ----------------------------------------------------------------------
def heuristic_gap(
    result_or_rows,
    baseline: str,
    title: str = "heuristic gap vs baseline",
) -> tuple[dict, str]:
    """Per-solver value ratios against a baseline solver.

    Rows are matched by (instance, objective, bounds); for every non-
    baseline solver the ratio ``value / baseline_value`` is collected over
    the instances where both solves succeeded.  Returns ``(stats, table)``
    where ``stats[solver]`` holds ``count / mean / median / max`` ratios —
    the standard quality summary of a heuristic-vs-exact campaign.
    """
    rows = _rows_of(result_or_rows)
    base: dict[tuple, dict] = {}
    for row in rows:
        if row["solver"] == baseline and row["status"] == "ok":
            base[_group_key(row)] = row
    if not base:
        raise ReproError(
            f"no successful rows for baseline solver {baseline!r}"
        )
    ratios: dict[str, list[float]] = {}
    for row in rows:
        if row["solver"] == baseline or row["status"] != "ok":
            continue
        anchor = base.get(_group_key(row))
        if anchor is None or not anchor["value"]:
            continue
        ratios.setdefault(row["solver"], []).append(
            row["value"] / anchor["value"]
        )
    stats: dict[str, dict] = {}
    table = []
    for solver, values in sorted(ratios.items()):
        stats[solver] = {
            "count": len(values),
            "mean": statistics.mean(values),
            "median": statistics.median(values),
            "max": max(values),
        }
        table.append([
            solver,
            str(len(values)),
            f"{stats[solver]['mean']:.4f}",
            f"{stats[solver]['median']:.4f}",
            f"{stats[solver]['max']:.4f}",
        ])
    text = format_table(
        ["solver", "instances", "mean ratio", "median ratio", "max ratio"],
        table,
        title=f"{title} ({baseline!r} = 1.0)",
    )
    return stats, text


# ----------------------------------------------------------------------
# multi-instance Pareto comparison
# ----------------------------------------------------------------------
def pareto_comparison(
    instances,
    num_points: int = 16,
    exact_fallback: bool = False,
    engine: str = "bnb",
    cache=None,
    title: str = "Pareto fronts",
) -> tuple[dict, str]:
    """Period/latency trade-off curves for several instances side by side.

    ``instances`` is an iterable of ``(instance_id, ProblemSpec)`` pairs;
    each front is traced through the campaign runner (sharing ``cache``),
    so overlapping comparisons re-use threshold solves.
    Returns ``(fronts, table)`` with ``fronts[instance_id]`` the list of
    non-dominated :class:`~repro.algorithms.problem.Solution` objects.
    """
    from ..analysis.pareto import pareto_front

    fronts: dict[str, list] = {}
    table = []
    for iid, spec in instances:
        front = pareto_front(
            spec,
            num_points=num_points,
            exact_fallback=exact_fallback,
            engine=engine,
            cache=cache,
        )
        fronts[iid] = front
        periods = [s.period for s in front]
        latencies = [s.latency for s in front]
        table.append([
            iid,
            str(len(front)),
            f"{min(periods):.4g}",
            f"{max(periods):.4g}",
            f"{min(latencies):.4g}",
            f"{max(latencies):.4g}",
        ])
    text = format_table(
        ["instance", "points", "min period", "max period",
         "min latency", "max latency"],
        table,
        title=title,
    )
    return fronts, text


# ----------------------------------------------------------------------
# machine-readable Pareto-front artifacts (for plotting pipelines)
# ----------------------------------------------------------------------
def pareto_fronts_doc(fronts: dict, num_points: int | None = None) -> dict:
    """Serialize ``{instance_id: [Solution, ...]}`` fronts to a JSON doc.

    Points keep full float precision (JSON round-trips Python floats
    exactly) and carry the winning mapping document, so a plotting
    pipeline can annotate points — or re-validate them — without
    re-solving.
    """
    from ..serialization import mapping_to_dict

    doc: dict = {"kind": PARETO_DOC_KIND, "version": PARETO_DOC_VERSION}
    if num_points is not None:
        doc["num_points"] = num_points
    doc["fronts"] = {
        iid: [
            {
                "period": sol.period,
                "latency": sol.latency,
                "algorithm": sol.meta.get("algorithm"),
                "mapping": mapping_to_dict(sol.mapping),
            }
            for sol in front
        ]
        for iid, front in fronts.items()
    }
    return doc


def save_pareto_fronts(path: str | Path, fronts: dict,
                       num_points: int | None = None) -> dict:
    """Write the fronts artifact to ``path``; returns the document."""
    doc = pareto_fronts_doc(fronts, num_points=num_points)
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")
    return doc


def load_pareto_fronts(path: str | Path) -> dict:
    """Read an artifact written by :func:`save_pareto_fronts`."""
    path = Path(path)
    doc = json.loads(path.read_text())
    if not isinstance(doc, dict) or doc.get("kind") != PARETO_DOC_KIND:
        raise ReproError(f"{path} is not a {PARETO_DOC_KIND!r} document")
    if doc.get("version") != PARETO_DOC_VERSION:
        raise ReproError(
            f"unsupported {PARETO_DOC_KIND} version {doc.get('version')!r} "
            f"(this library reads version {PARETO_DOC_VERSION})"
        )
    return doc
