"""Campaign-runner benchmark — sharded fan-out and the result cache.

Run standalone to (re)generate the machine-readable trajectory file::

    PYTHONPATH=src python benchmarks/bench_campaign.py            # full
    PYTHONPATH=src python benchmarks/bench_campaign.py --smoke    # CI smoke

The full run drives a 100-instance x 2-objective grid (200 tasks: the
NP-hard heterogeneous-pipeline period cell solved exactly, plus the
polynomial Theorem 6 latency cell) three ways:

1. serial reference (``workers=0``, cold cache),
2. process-pool fan-out (cold cache) — rows must be identical to serial
   up to the volatile timing fields,
3. the same fan-out again on the now-warm cache — the hit fraction must
   be >= 95% (it is 100% by construction).

Wall-clock for all three plus the measured speedup land in
``BENCH_campaign.json`` at the repository root, labelled with the
``algorithm`` the rows report (the exact period cell runs the bnb
engine).  NOTE: the
speedup column is only meaningful on multi-core hosts; on a single CPU
fan-out adds fork overhead instead of parallelism — the file records
whatever the hardware gives, honestly.

``--smoke`` (used by CI) runs a 12-instance grid with 2 workers and the
same three assertions, writing no trajectory file.
"""

from __future__ import annotations

import json
import os
from collections import Counter
import platform as _platform_mod
import sys
import tempfile
import time
from pathlib import Path

from repro.campaign import (
    CampaignSpec,
    ResultCache,
    run_campaign,
    strip_volatile,
    summarize,
)

ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = ROOT / "BENCH_campaign.json"
SEED = 2007
FULL_INSTANCES = 100
SMOKE_INSTANCES = 12


def build_spec(num_instances: int, seed: int = SEED) -> CampaignSpec:
    """Heterogeneous pipelines: NP-hard period cell + poly latency cell."""
    return CampaignSpec(
        name=f"campaign-bench-{num_instances}",
        instances=(
            {
                "type": "random",
                "graph": "pipeline",
                "count": num_instances,
                "seed": seed,
                "n": [6, 7],
                "p": [5, 6],
                "work_high": 9,
                "speed_high": 6,
            },
        ),
        objectives=("period", "latency"),
        solvers=(
            {"name": "exact", "mode": "auto",
             "exact_fallback": True, "engine": "bnb"},
        ),
    )


def algorithm_counts(rows: list[dict]) -> dict[str, int]:
    """How many rows each solver produced, by the rows' ``algorithm``."""
    return dict(sorted(Counter(row["algorithm"] for row in rows).items()))


def run_harness(num_instances: int, workers: int,
                seed: int = SEED) -> dict:
    """Serial vs parallel vs warm-cache; asserts the subsystem contracts."""
    spec = build_spec(num_instances, seed)
    with tempfile.TemporaryDirectory(prefix="repro-campaign-") as tmp:
        serial_cache = ResultCache(Path(tmp) / "serial")
        parallel_cache = ResultCache(Path(tmp) / "parallel")

        t0 = time.perf_counter()
        serial = run_campaign(spec, cache=serial_cache, workers=0)
        t_serial = time.perf_counter() - t0

        t0 = time.perf_counter()
        parallel = run_campaign(spec, cache=parallel_cache, workers=workers)
        t_parallel = time.perf_counter() - t0

        serial_rows = [strip_volatile(r) for r in serial.rows]
        parallel_rows = [strip_volatile(r) for r in parallel.rows]
        assert serial_rows == parallel_rows, (
            "serial and parallel campaign rows diverged"
        )
        assert serial.stats["errors"] == 0, serial.rows

        t0 = time.perf_counter()
        warm = run_campaign(spec, cache=parallel_cache, workers=workers)
        t_warm = time.perf_counter() - t0
        hit_fraction = warm.stats["cache_hits"] / warm.stats["tasks"]
        assert hit_fraction >= 0.95, (
            f"warm-cache hit fraction {hit_fraction:.2%} below 95%"
        )
        assert [strip_volatile(r) for r in warm.rows] == serial_rows

    return {
        "instances": num_instances,
        "tasks": serial.stats["tasks"],
        "workers": workers,
        "cache_backend": parallel_cache.backend,
        "serial_seconds": round(t_serial, 6),
        "parallel_seconds": round(t_parallel, 6),
        "speedup": round(t_serial / max(t_parallel, 1e-9), 3),
        "warm_cache_seconds": round(t_warm, 6),
        "cache_hit_fraction": round(hit_fraction, 4),
        "rows_identical": True,
        "algorithms": algorithm_counts(serial.rows),
        "summary": summarize(serial, title=f"campaign {spec.name!r}"),
    }


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    smoke = "--smoke" in argv
    workers = max(2, min(4, os.cpu_count() or 1))
    measured = run_harness(SMOKE_INSTANCES if smoke else FULL_INSTANCES,
                           workers)
    summary = measured.pop("summary")
    if not smoke:
        print(summary)
    print(
        f"serial {measured['serial_seconds']:.3f}s vs "
        f"{workers} workers {measured['parallel_seconds']:.3f}s "
        f"(speedup {measured['speedup']:.2f}x); warm cache "
        f"{measured['warm_cache_seconds']:.3f}s at "
        f"{measured['cache_hit_fraction']:.0%} hits; algorithms "
        f"{measured['algorithms']}"
    )
    if smoke:
        print("campaign smoke ok")
        return 0
    payload = {
        "benchmark": "campaign runner (het pipelines, period + latency; "
                     f"{', '.join(measured['algorithms'])})",
        "seed": SEED,
        "python": sys.version.split()[0],
        "machine": _platform_mod.machine(),
        "cpus": os.cpu_count(),
        **measured,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[results -> {RESULT_PATH}]")
    return 0


# ----------------------------------------------------------------------
# pytest entry point (smoke size only)
# ----------------------------------------------------------------------
def test_campaign_runner_quick(benchmark, report):
    measured = benchmark.pedantic(
        lambda: run_harness(SMOKE_INSTANCES, workers=2),
        rounds=1, iterations=1,
    )
    assert measured["rows_identical"]
    assert measured["cache_hit_fraction"] >= 0.95
    report(
        "campaign_runner",
        measured["summary"] + "\n" + json.dumps(
            {k: v for k, v in measured.items() if k != "summary"}, indent=2
        ),
    )


if __name__ == "__main__":
    sys.exit(main())
