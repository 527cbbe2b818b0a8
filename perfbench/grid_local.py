"""grid-local: an in-process serial campaign over the Table 1 grid.

Cold passes: every task of the grid misses the cache, is solved and put.
Each pass runs one ``run_campaign`` per cell on a fresh copy of a cache
directory that already holds a resident store several times larger than
the grid.

Warm passes: re-runs over the last cold pass's directory.  A re-run
reopens the cache, re-expands the specs (so ``Task.key`` is computed
again) and resolves every task through ``execute_tasks`` one task at a
time, so each task's latency is its own sample.

Cold and warm passes alternate for the length of the run.
"""

from __future__ import annotations

import shutil
import time

import harness
from harness import Phase, Spans, check_row, work_dir

#: Table 1 cells of the grid: (graph, knobs, cell label).  Every cell is
#: solved for period and for latency, with no bounds.
CELLS = (
    ("pipeline", dict(n=8, p=6), "pipeline het-app het-platform"),
    ("pipeline", dict(n=5, p=4, allow_data_parallel=True),
     "pipeline het-app het-platform dp"),
    ("pipeline", dict(n=7, p=6, homogeneous_platform=True,
                      allow_data_parallel=True),
     "pipeline het-app hom-platform dp"),
    ("pipeline", dict(n=7, p=6, homogeneous_platform=True),
     "pipeline het-app hom-platform"),
    ("pipeline", dict(n=7, p=6, homogeneous_app=True),
     "pipeline hom-app het-platform"),
    ("fork", dict(n=6, p=5, homogeneous_platform=True),
     "fork het-app hom-platform"),
    ("fork", dict(n=4, p=4, homogeneous_platform=True,
                  allow_data_parallel=True),
     "fork het-app hom-platform dp"),
    ("fork", dict(n=6, p=5, homogeneous_app=True),
     "fork hom-app het-platform"),
    ("fork", dict(n=4, p=3), "fork het-app het-platform"),
    ("forkjoin", dict(n=6, p=5, homogeneous_app=True),
     "fork-join hom-app het-platform"),
    ("forkjoin", dict(n=3, p=4, homogeneous_platform=True,
                      allow_data_parallel=True),
     "fork-join het-app hom-platform dp"),
    ("forkjoin", dict(n=3, p=3), "fork-join het-app het-platform"),
)
PER_CELL = 28            # instances per cell and grid
RESIDENT_GRIDS = 4       # other seeded grids filed in the resident store
MIN_REPS = 3             # minimum cold/warm rounds


def cell_specs(seed: int) -> list:
    """One campaign per cell of the grid (its instances x both objectives),
    so each cell is timed on its own."""
    from repro.campaign import CampaignSpec

    return [
        CampaignSpec(
            name=f"grid-local-{seed}-{i}",
            instances=({"type": "random", "graph": graph, "count": PER_CELL,
                        "seed": seed * 1000 + i, "work_high": 20,
                        "speed_high": 8, **knobs},),
            objectives=("period", "latency"),
            solvers=({"name": "auto-exact", "mode": "auto",
                      "exact_fallback": True, "engine": "bnb"},),
        )
        for i, (graph, knobs, _) in enumerate(CELLS)
    ]


def _open(path, spans: Spans | None):
    from repro.campaign import JsonlBackend, ResultCache

    if spans is None:
        return ResultCache(path)
    with spans.span("campaign.open"):
        return ResultCache(
            backend=harness.timing_backend(JsonlBackend(path), spans)
        )


def prepare(seed: int):
    """Untimed: a first cold solve (the reference rows) and the template
    cache directory holding the resident store."""
    from repro.campaign import ResultCache, run_campaign, strip_volatile

    specs = cell_specs(seed)
    phase = Phase("prepare")
    ref_dir = work_dir("grid-ref")
    cache = ResultCache(ref_dir)
    reference, payloads = [], []
    for i, spec in enumerate(specs):
        rows = run_campaign(spec, cache=cache).rows
        phase.attempted += len(rows)
        for row in rows:
            try:
                check_row(row, f"{CELLS[i][2]} task {row['index']}")
            except harness.CheckFailed as exc:
                phase.fail(str(exc))
        reference.append([strip_volatile(r) for r in rows])
        payloads += [cache.get(t.key) for t in spec.tasks()]
    # the resident store: this grid's payloads filed under the keys of
    # other seeded grids' tasks (real sizes and key spread, no solving)
    template = work_dir("grid-template")
    store = ResultCache(template)
    others = [task for k in range(1, RESIDENT_GRIDS + 1)
              for spec in cell_specs(seed + 7919 * k) for task in spec.tasks()]
    for task, payload in zip(others, payloads * RESIDENT_GRIDS):
        store.put(task.key, payload)
    shutil.rmtree(ref_dir)
    return specs, reference, template, phase


def setup_samples() -> list[float]:
    return harness.import_setup_s()


def cleanup(prepared) -> None:
    shutil.rmtree(prepared[2], ignore_errors=True)


def measure(seed: int, seconds: float, prepared, spans: Spans | None):
    from repro.campaign import execute_tasks, run_campaign, strip_volatile

    specs, reference, template, _ = prepared
    tracer = harness.RunnerTracer(spans) if spans is not None else None
    extra = {} if tracer is None else {"tracer": tracer}
    cold, warm = Phase("cold"), Phase("warm")
    windows = {"cold": [], "warm": []}
    tasks_total = sum(len(ref) for ref in reference)

    # cold, per pass: each cell's run_campaign cut at its progress calls
    # into one unit per task (solve and put) plus the tail after the last
    unit_seconds = [[[] for _ in range(len(ref) + 1)] for ref in reference]
    cell_warm_seconds = [[] for _ in specs]   # warm, per re-run
    task_warm_seconds = [[] for _ in range(tasks_total)]
    offsets = [sum(len(ref) for ref in reference[:i])
               for i in range(len(specs))]
    solved_rows: list[dict] = []
    rep_dir = harness.WORK / "tmp" / "grid-cold"

    def cold_pass() -> None:
        nonlocal solved_rows
        shutil.rmtree(rep_dir, ignore_errors=True)
        shutil.copytree(template, rep_dir)
        solved_rows = []
        t0 = time.perf_counter()
        cache = _open(rep_dir, spans)
        for i, spec in enumerate(specs):
            marks = [time.perf_counter()]
            rows = run_campaign(
                spec, cache=cache,
                progress=lambda done, total: marks.append(
                    time.perf_counter()),
                **extra).rows
            marks.append(time.perf_counter())
            if len(marks) != len(unit_seconds[i]) + 1:
                cold.fail(f"cold {CELLS[i][2]}: {len(marks) - 2} progress "
                          f"calls for {len(rows)} tasks")
            for unit, start, end in zip(unit_seconds[i], marks, marks[1:]):
                unit.append(end - start)
            solved_rows += rows
            for row, ref in zip(rows, reference[i]):
                if row["resolution"] != "solved" \
                        or strip_volatile(row) != ref:
                    cold.fail(f"cold {CELLS[i][2]} task {row['index']} "
                              f"differs from the reference "
                              f"({row['resolution']})")
        windows["cold"].append((t0, time.perf_counter()))
        cache.close()
        cold.attempted += len(solved_rows)

    def warm_pass() -> None:
        t0 = time.perf_counter()
        cache = _open(rep_dir, spans)
        for i, spec in enumerate(specs):
            tc = time.perf_counter()
            if spans is None:
                tasks = spec.tasks()
            else:
                with spans.span("campaign.expand"):
                    tasks = spec.tasks()
            for task in tasks:
                ts = time.perf_counter()
                if spans is None:
                    row = execute_tasks([task], cache=cache)[0]
                else:
                    with spans.span("campaign.key", task.index):
                        task.key
                    with spans.span("campaign.execute", task.index):
                        row = execute_tasks([task], cache=cache, **extra)[0]
                task_warm_seconds[offsets[i] + task.index].append(
                    time.perf_counter() - ts)
                if row["resolution"] != "cached-ok" \
                        or strip_volatile(row) != reference[i][task.index]:
                    warm.fail(f"warm {CELLS[i][2]} task {task.index} "
                              f"differs from its cold row "
                              f"({row['resolution']})")
            cell_warm_seconds[i].append(time.perf_counter() - tc)
        t1 = time.perf_counter()
        cache.close()
        windows["warm"].append((t0, t1))
        warm.attempted += tasks_total

    host_ms: list[float] = []
    setup: list[float] = []
    harness.alternate(
        cold_pass, warm_pass, seconds, MIN_REPS, host_ms,
        None if spans is not None
        else lambda: setup.append(harness.import_launch_s()))

    warm_best = [min(t) for t in task_warm_seconds]
    out = {
        "phases": [cold, warm],
        # best of the repetitions per unit (cold: task, warm: cell): the
        # host's stalls only slow
        "cold_ops_s": tasks_total / sum(min(t) for units in unit_seconds
                                        for t in units),
        "warm_ops_s": tasks_total / sum(min(t) for t in cell_warm_seconds),
        "warm_p50_ms": harness.pct(warm_best, 50) * 1000.0,
        "warm_p99_ms": harness.pct(warm_best, 99) * 1000.0,
        "host_ms": host_ms,
        "setup_samples": setup,
        "samples": {"cold_reps": len(windows["cold"]),
                    "warm_reruns": len(windows["warm"]),
                    "warm_latencies": sum(map(len, task_warm_seconds))},
    }
    if spans is not None:
        out["layers"] = _layers(specs, spans, windows, solved_rows, rep_dir)
    shutil.rmtree(rep_dir)
    return out


def _layers(specs, spans: Spans, windows, solved_rows, rep_dir):
    from repro.campaign import ResultCache

    stats = harness.row_stats(solved_rows)
    storage = ResultCache(rep_dir).storage_stats()
    gets = spans.durations("campaign.cache_get")
    puts = spans.durations("campaign.cache_put")
    hits = len(spans.durations("campaign.execute"))   # one warm get each
    cold_wall = sum(e - s for s, e in windows["cold"])
    layers = {
        "serialization.parse_us": harness.parse_us(
            [doc for spec in specs for _, doc in spec.expand_instances()]),
        "algorithms.bnb_nodes": stats["bnb_nodes"],
        "algorithms.bnb_pruned": stats["bnb_pruned"],
        "algorithms.memo_hits": stats["memo_hits"],
        "algorithms.solve_share":
            sum(spans.durations("algorithms.solve")) / cold_wall,
        "campaign.key_us":
            harness.mean(spans.durations("campaign.key")) * 1e6,
        "campaign.expand_ms":
            harness.mean(spans.durations("campaign.expand")) * 1e3,
        "campaign.cache_open_ms":
            harness.mean(spans.durations("campaign.open")) * 1e3,
        "campaign.cache_get_us": harness.mean(gets) * 1e6,
        "campaign.cache_put_us": harness.mean(puts) * 1e6,
        "campaign.cache_hit_ratio": hits / len(gets),
        "campaign.cache_store_rows": storage["keys"],
        "campaign.cache_bytes": storage["bytes"],
        "campaign.runner_overhead_share":
            spans.self_share({"campaign.run", "campaign.execute"}),
    }
    return {"values": layers, "labels": stats["labels"],
            "self_ms": spans.self_ms_by_layer(), "windows": windows}
