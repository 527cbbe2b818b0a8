"""pareto-fronts: bi-criteria period/latency threshold sweeps.

One operation is one ``analysis.pareto_front(spec, exact_fallback=True)``
on an NP-hard or data-parallel instance: heterogeneous pipelines on
heterogeneous platforms with data parallelism (bnb), data-parallel
pipelines on homogeneous platforms (Thm 3/4 dynamic programs) and forks on
homogeneous platforms (Thm 12 P||Cmax extreme, bnb sweep).

Cold passes: every front of the instance set is computed with no result
cache, so the bounded bi-criteria search and ``SolveContext`` reuse do
the work.  Warm passes: the same fronts with ``cache=`` a result cache
that already holds every sweep task, so each front is served from the
cache.  Cold and warm passes alternate for the length of the run.
"""

from __future__ import annotations

import random
import shutil
import time

import harness
from harness import Phase, Spans, check, work_dir

PER_KIND = 30      # instances per kind
NUM_POINTS = 12    # thresholds per sweep
MIN_REPS = 3       # minimum cold/warm rounds


def instances(seed: int):
    from repro.algorithms.problem import ProblemSpec
    from repro.generators import (
        random_fork,
        random_pipeline,
        random_platform,
    )

    rng = random.Random(seed)
    out = []
    for _ in range(PER_KIND):
        out.append(ProblemSpec(random_pipeline(rng, 5),
                               random_platform(rng, 4),
                               allow_data_parallel=True))
        out.append(ProblemSpec(random_pipeline(rng, 7),
                               random_platform(rng, 5, homogeneous=True),
                               allow_data_parallel=True))
        out.append(ProblemSpec(random_fork(rng, 4),
                               random_platform(rng, 4, homogeneous=True)))
    return out


def _front(spec, cache=None):
    from repro.analysis import pareto_front

    return pareto_front(spec, num_points=NUM_POINTS, exact_fallback=True,
                        cache=cache)


def _points(front) -> list[tuple]:
    from repro.serialization import mapping_to_dict

    return [(s.period, s.latency, s.meta.get("algorithm"),
             mapping_to_dict(s.mapping)) for s in front]


def prepare(seed: int):
    """Untimed: the reference fronts, solved once through a result cache
    that the warm phase then serves from; every point is re-priced."""
    from repro.analysis import non_dominated
    from repro.campaign import ResultCache

    specs = instances(seed)
    phase = Phase("prepare")
    warm_dir = work_dir("pareto-warm")
    cache = ResultCache(warm_dir)
    reference = []
    for i, spec in enumerate(specs):
        phase.attempted += 1
        front = _front(spec, cache)
        try:
            check(len(front) >= 1, f"front {i} is empty")
            check(non_dominated(front) == front,
                  f"front {i} holds a dominated point")
            for point in front:
                check(bool(point.meta.get("algorithm")),
                      f"front {i}: point without an algorithm label")
                harness.check_priced(point.period, point.latency,
                                     _points([point])[0][3], f"front {i}")
        except harness.CheckFailed as exc:
            phase.fail(str(exc))
        reference.append(_points(front))
    return specs, reference, warm_dir, phase


def setup_samples() -> list[float]:
    return harness.import_setup_s()


def cleanup(prepared) -> None:
    shutil.rmtree(prepared[2], ignore_errors=True)


def recording_backend(spans: Spans, rows: list):
    """An always-miss cache backend that keeps each solved row's label and
    timing block and records its solve as an ``algorithms.solve`` span
    ending where the put begins."""
    from repro.campaign import CacheBackend

    class RecordingBackend(CacheBackend):
        name = "recording"

        def load(self, key):
            with spans.span("campaign.cache_get", key):
                return None

        def store(self, key, row):
            end = time.perf_counter()
            timing = row.get("timing") or {}
            spans.add("algorithms.solve", end - (timing.get("seconds") or 0),
                      end, key)
            with spans.span("campaign.cache_put", key):
                rows.append({"status": row["status"],
                             "algorithm": row["algorithm"],
                             "timing": dict(timing)})

    return RecordingBackend()


def measure(seed: int, seconds: float, prepared, spans: Spans | None):
    from repro.campaign import JsonlBackend, ResultCache

    specs, reference, warm_dir, _ = prepared
    cold, warm = Phase("cold"), Phase("warm")
    windows = {"cold": [], "warm": []}

    def compare(fronts, phase: Phase) -> None:
        phase.attempted += len(fronts)
        for i, front in enumerate(fronts):
            if _points(front) != reference[i]:
                phase.fail(f"{phase.name} front {i} differs from the "
                           f"reference front")

    front_seconds = [[] for _ in specs]        # cold, per pass
    front_warm_seconds = [[] for _ in specs]   # warm, per pass
    solved_rows: list[dict] = []

    def cold_pass() -> None:
        nonlocal solved_rows
        rows: list[dict] = []
        cache = None
        if spans is not None:
            cache = ResultCache(backend=recording_backend(spans, rows))
        fronts = []
        t0 = time.perf_counter()
        for i, spec in enumerate(specs):
            ts = time.perf_counter()
            if spans is None:
                fronts.append(_front(spec))
            else:
                with spans.span("analysis.front"):
                    fronts.append(_front(spec, cache))
            front_seconds[i].append(time.perf_counter() - ts)
        windows["cold"].append((t0, time.perf_counter()))
        compare(fronts, cold)
        solved_rows = rows

    def warm_pass() -> None:
        fronts = []
        t0 = time.perf_counter()
        if spans is None:
            cache = ResultCache(warm_dir)
        else:
            with spans.span("campaign.open"):
                cache = ResultCache(backend=harness.timing_backend(
                    JsonlBackend(warm_dir), spans))
        for i, spec in enumerate(specs):
            ts = time.perf_counter()
            if spans is None:
                fronts.append(_front(spec, cache))
            else:
                with spans.span("analysis.front"):
                    fronts.append(_front(spec, cache))
            front_warm_seconds[i].append(time.perf_counter() - ts)
        t1 = time.perf_counter()
        cache.close()
        windows["warm"].append((t0, t1))
        compare(fronts, warm)
        if cache.misses:
            warm.fail(f"{cache.misses} warm sweep tasks missed the cache")

    host_ms: list[float] = []
    setup: list[float] = []
    harness.alternate(
        cold_pass, warm_pass, seconds, MIN_REPS, host_ms,
        None if spans is not None
        else lambda: setup.append(harness.import_launch_s()))

    # best of the repetitions per front: the host's stalls only slow.  The
    # warm percentiles are taken over the fronts' best times too: any pool
    # that keeps more than one sample per front lets the host's slow spells
    # into the figure (see README.md, "Steadiness").
    warm_best = [min(t) for t in front_warm_seconds]
    out = {
        "phases": [cold, warm],
        "cold_ops_s": len(specs) / sum(min(t) for t in front_seconds),
        "warm_ops_s": len(specs) / sum(warm_best),
        "warm_p50_ms": harness.pct(warm_best, 50) * 1000.0,
        "warm_p99_ms": harness.pct(warm_best, 99) * 1000.0,
        "host_ms": host_ms,
        "setup_samples": setup,
        "samples": {"cold_reps": len(windows["cold"]),
                    "warm_passes": len(windows["warm"]),
                    "warm_latencies": sum(map(len, front_warm_seconds))},
    }
    if spans is not None:
        out["layers"] = _layers(specs, reference, spans, windows,
                                solved_rows)
    return out


def _layers(specs, reference, spans: Spans, windows, solved_rows):
    from repro.serialization import spec_to_dict

    stats = harness.row_stats(solved_rows)
    tasks = len(solved_rows)
    points = sum(len(front) for front in reference)
    cold_wall = sum(e - s for s, e in windows["cold"])
    layers = {
        "serialization.parse_us": harness.parse_us(
            [spec_to_dict(spec) for spec in specs]),
        "algorithms.bnb_nodes": stats["bnb_nodes"],
        "algorithms.bnb_pruned": stats["bnb_pruned"],
        "algorithms.memo_hits": stats["memo_hits"],
        "algorithms.solve_share":
            sum(spans.durations("algorithms.solve")) / cold_wall,
        "analysis.front_ms": harness.mean(
            spans.durations("analysis.front", windows["cold"])) * 1e3,
        "analysis.sweep_tasks": tasks / len(specs),
        "analysis.useful_ratio": points / (tasks - 2 * len(specs)),
        "campaign.cache_open_ms":
            harness.mean(spans.durations("campaign.open")) * 1e3,
        "campaign.cache_get_us":
            harness.mean(spans.durations("campaign.cache_get")) * 1e6,
        "campaign.cache_put_us":
            harness.mean(spans.durations("campaign.cache_put")) * 1e6,
    }
    return {"values": layers, "labels": stats["labels"],
            "self_ms": spans.self_ms_by_layer(), "windows": windows}
