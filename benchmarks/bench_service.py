"""Solver-service benchmark — request latency and single-flight dedup.

Run standalone to (re)generate the machine-readable trajectory file::

    PYTHONPATH=src python benchmarks/bench_service.py            # full
    PYTHONPATH=src python benchmarks/bench_service.py --smoke    # CI smoke

The harness starts an in-process solver service (ephemeral port, jsonl
cache in a tempdir) and measures three request regimes over a grid of
heterogeneous-pipeline instances (the NP-hard period cell, solved
exactly; the label names the ``algorithm`` the rows report, which for
this cell is the bnb engine):

1. **cold** — sequential ``POST /v1/solve`` per instance, every request
   a cache miss that runs the solver;
2. **warm** — the same requests again: every one must be served from
   the content-addressed cache (hit fraction asserted = 100%), so the
   cold/warm latency ratio is the solver time the cache removes;
3. **coalesced** — N concurrent identical requests for a *fresh,
   larger* instance, released together by a barrier: single-flight
   must run the underlying solver exactly once and the other N-1 must
   piggyback on it (asserted through ``/v1/stats``), so the fleet pays
   one solve instead of N.  The shared solve is held until all N-1
   followers are registered, so no request can arrive after it ends and
   be served from the cache instead.

Results land in ``BENCH_service.json`` at the repository root.  NOTE:
the reference container is single-core — request latencies include HTTP
round-trips on loopback, and the coalesced wall-clock mostly measures
the one shared solve.  The file records whatever the hardware gives,
honestly.

``--smoke`` (used by CI) shrinks the grid and writes no file.
"""

from __future__ import annotations

import json
import os
import platform as _platform_mod
import statistics
import sys
import tempfile
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import repro.service.server as server_mod
from repro.campaign import ResultCache
from repro.generators import random_pipeline, random_platform
from repro.serialization import application_to_dict, platform_to_dict
from repro.service import ServiceClient
from repro.service.server import make_server

ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = ROOT / "BENCH_service.json"
SEED = 2007
FULL_INSTANCES = 40
SMOKE_INSTANCES = 8
CONCURRENT_CLIENTS = 8


def build_requests(num_instances: int, seed: int = SEED) -> list[dict]:
    """Seeded heterogeneous-pipeline solve requests (NP-hard period)."""
    import random

    rng = random.Random(seed)
    requests = []
    for _ in range(num_instances):
        app = random_pipeline(rng, rng.randint(6, 7), high=9)
        plat = random_platform(rng, rng.randint(5, 6), high=6)
        requests.append({
            "instance": {
                "kind": "instance",
                "application": application_to_dict(app),
                "platform": platform_to_dict(plat),
                "allow_data_parallel": False,
            },
            "objective": "period",
            "solver": {"name": "bench", "mode": "auto",
                       "exact_fallback": True, "engine": "bnb"},
        })
    return requests


def coalesce_request(seed: int = SEED) -> dict:
    """One larger instance whose solve is slow enough to pile up on."""
    import random

    rng = random.Random(seed + 1)
    app = random_pipeline(rng, 9, high=9)
    plat = random_platform(rng, 8, high=6)
    return {
        "instance": {
            "kind": "instance",
            "application": application_to_dict(app),
            "platform": platform_to_dict(plat),
            "allow_data_parallel": False,
        },
        "objective": "period",
        "solver": {"name": "bench", "mode": "auto",
                   "exact_fallback": True, "engine": "bnb"},
    }


def _latencies_ms(client: ServiceClient, requests: list[dict],
                  algorithms: Counter | None = None) -> list[float]:
    """Per-request latencies; tallies each row's ``algorithm`` if asked."""
    out = []
    for request in requests:
        t0 = time.perf_counter()
        response = client.solve(request)
        out.append((time.perf_counter() - t0) * 1000.0)
        assert response["row"]["status"] == "ok", response["row"]
        if algorithms is not None:
            algorithms[response["row"]["algorithm"]] += 1
    return out


def held_solve(release: threading.Event):
    """``solve_task`` that starts only once ``release`` is set."""
    solve_task = server_mod.solve_task

    def solve(task):
        if not release.wait(timeout=60.0):
            raise TimeoutError("coalesced requests never all arrived")
        return solve_task(task)

    return solve


def wait_for_followers(client: ServiceClient, coalesced: int,
                       timeout: float = 60.0) -> None:
    """Poll ``/v1/stats`` until ``coalesced`` requests piggyback."""
    deadline = time.monotonic() + timeout
    while client.stats()["service"]["coalesced"] < coalesced:
        if time.monotonic() > deadline:
            return  # the caller's exact assertion reports the shortfall
        time.sleep(0.002)


def run_harness(num_instances: int) -> dict:
    """Cold / warm / coalesced regimes; asserts the service contracts."""
    requests = build_requests(num_instances)
    with tempfile.TemporaryDirectory(prefix="repro-service-") as tmp:
        server = make_server(
            port=0, cache=ResultCache(Path(tmp) / "cache"), solve_workers=4
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(server.url, timeout=300.0)
            client.wait_ready(timeout=30)

            algorithms: Counter = Counter()
            cold = _latencies_ms(client, requests, algorithms)
            warm = _latencies_ms(client, requests)
            stats = client.stats()
            served = stats["service"]["served_from_cache"]
            assert served == len(requests), (
                f"warm pass expected {len(requests)} cache-served "
                f"responses, saw {served}"
            )

            before = stats["service"]
            request = coalesce_request()
            barrier = threading.Barrier(CONCURRENT_CLIENTS)
            release = threading.Event()

            def together(_):
                barrier.wait(timeout=60.0)
                return client.solve(request)

            t0 = time.perf_counter()
            with mock.patch.object(server_mod, "solve_task",
                                   held_solve(release)), \
                    ThreadPoolExecutor(max_workers=CONCURRENT_CLIENTS) as pool:
                pending = [pool.submit(together, i)
                           for i in range(CONCURRENT_CLIENTS)]
                wait_for_followers(client, before["coalesced"]
                                   + CONCURRENT_CLIENTS - 1)
                release.set()
                responses = [f.result() for f in pending]
            coalesced_wall = time.perf_counter() - t0
            after = client.stats()["service"]
            assert after["solves"] - before["solves"] == 1, (
                "single-flight must run the solver exactly once"
            )
            assert after["coalesced"] - before["coalesced"] == \
                CONCURRENT_CLIENTS - 1
            rows = [r["row"] for r in responses]
            assert all(row == rows[0] for row in rows), (
                "coalesced responses diverged"
            )

            # one uncontended solve of the same (now warm) key for scale
            t0 = time.perf_counter()
            assert client.solve(request)["cached"]
            warm_one = (time.perf_counter() - t0) * 1000.0
        finally:
            server.shutdown()
            server.server_close()
            server.service.close()
            thread.join(timeout=5)

    return {
        "instances": num_instances,
        "concurrent_clients": CONCURRENT_CLIENTS,
        "cold_ms_median": round(statistics.median(cold), 3),
        "cold_ms_total": round(sum(cold), 3),
        "warm_ms_median": round(statistics.median(warm), 3),
        "warm_ms_total": round(sum(warm), 3),
        "cold_over_warm": round(sum(cold) / max(sum(warm), 1e-9), 2),
        "coalesced_wall_seconds": round(coalesced_wall, 6),
        "coalesced_hit_ms": round(warm_one, 3),
        "warm_hit_fraction": 1.0,
        "single_flight_solves": 1,
        "algorithms": dict(sorted(algorithms.items())),
        "coalesced_algorithm": rows[0]["algorithm"],
    }


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    smoke = "--smoke" in argv
    measured = run_harness(SMOKE_INSTANCES if smoke else FULL_INSTANCES)
    print(
        f"cold median {measured['cold_ms_median']:.1f}ms vs warm median "
        f"{measured['warm_ms_median']:.1f}ms "
        f"({measured['cold_over_warm']:.1f}x total); "
        f"{measured['concurrent_clients']} concurrent identical requests "
        f"-> 1 solve in {measured['coalesced_wall_seconds']:.3f}s; "
        f"algorithms {measured['algorithms']}, coalesced "
        f"{measured['coalesced_algorithm']}"
    )
    if smoke:
        print("service smoke ok (cold/warm/coalesced contracts hold)")
        return 0
    payload = {
        "benchmark": "solver service (het pipelines, exact period via "
                     f"{', '.join(measured['algorithms'])}; "
                     "cold vs warm vs coalesced requests)",
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
def test_service_quick(benchmark, report):
    measured = benchmark.pedantic(
        lambda: run_harness(SMOKE_INSTANCES), rounds=1, iterations=1
    )
    assert measured["single_flight_solves"] == 1
    assert measured["warm_hit_fraction"] == 1.0
    report("service", json.dumps(measured, indent=2))


if __name__ == "__main__":
    sys.exit(main())
