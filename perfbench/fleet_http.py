"""fleet-http: one solver service, two closed-loop clients.

The service is a ``python -m repro serve`` subprocess with a fresh jsonl
cache.  This process is the load generator: two threads (no more than the
two cores of the reference host) work on disjoint halves of a cheap grid
of polynomial cells and small exact cells, each sending its next request
only after the previous one returned.

* the campaign worker resolves tasks through ``execute_tasks`` over
  ``ResultCache(url=..., backend="http")``: cold is a GET miss, a local
  solve and a PUT; warm is a GET hit;
* the submitter posts the same kind of tasks with ``ServiceClient.solve``:
  cold, the server solves and stores; warm, it answers from its cache.

Cold and warm blocks of about a second alternate for the length of the
run.  Cold blocks walk on through the unsolved tasks; warm blocks cycle
over the tasks the cold blocks completed.
"""

from __future__ import annotations

import socket
import statistics
import threading
import time

import harness
from harness import Phase, Spans, work_dir

#: Cheap Table 1 cells: (graph, knobs, cell label); period and latency.
CELLS = (
    ("pipeline", dict(n=7, p=5), "pipeline het-app het-platform"),
    ("pipeline", dict(n=5, p=4, allow_data_parallel=True),
     "pipeline het-app het-platform dp"),
    ("pipeline", dict(n=7, p=5, homogeneous_platform=True,
                      allow_data_parallel=True),
     "pipeline het-app hom-platform dp"),
    ("fork", dict(n=6, p=5, homogeneous_platform=True),
     "fork het-app hom-platform"),
    ("fork", dict(n=6, p=5, homogeneous_app=True),
     "fork hom-app het-platform"),
    ("forkjoin", dict(n=4, p=4, homogeneous_app=True),
     "fork-join hom-app het-platform"),
)
PER_CELL = 600     # more instances than the cold blocks can get through
BLOCK_S = 1.0      # cold and warm blocks alternate at this length


def grid_tasks(seed: int):
    from repro.campaign import CampaignSpec

    spec = CampaignSpec(
        name=f"fleet-http-{seed}",
        instances=tuple(
            {"type": "random", "graph": graph, "count": PER_CELL,
             "seed": seed * 1000 + i, "work_high": 20, "speed_high": 8,
             **knobs}
            for i, (graph, knobs, _) in enumerate(CELLS)
        ),
        objectives=("period", "latency"),
        solvers=({"name": "auto-exact", "mode": "auto",
                  "exact_fallback": True, "engine": "bnb"},),
    )
    return spec.tasks()


def prepare(seed: int):
    """Untimed: two disjoint, duplicate-free halves of the grid; instances
    alternate between the halves, so both hold every cell."""
    tasks = grid_tasks(seed)
    per_cell = len(tasks) // len(CELLS)
    halves, seen = ([], []), set()
    for j in range(0, per_cell, 2):       # one instance: period, latency
        for c in range(len(CELLS)):
            for task in tasks[c * per_cell + j:c * per_cell + j + 2]:
                if task.key not in seen:
                    seen.add(task.key)
                    halves[(j // 2) % 2].append(task)
    return halves, Phase("prepare")


def _launch_s(name: str) -> float:
    """One ``repro serve`` launch on a fresh cache, until it is healthy."""
    server = harness.Server(work_dir(name))
    server.stop()
    return server.setup_s


def setup_samples() -> list[float]:
    return [_launch_s(f"fleet-setup-{i}")
            for i in range(harness.SETUP_LAUNCHES - 1)]


def cleanup(prepared) -> None:
    pass


def _request_doc(task) -> dict:
    return {"instance": task.instance, "objective": task.objective,
            "period_bound": task.period_bound,
            "latency_bound": task.latency_bound, "solver": task.solver}


def _scrape(server) -> dict:
    out = {}
    for line in server.get_text("/metrics").splitlines():
        if line and not line.startswith("#"):
            name, value = line.rsplit(" ", 1)
            out[name] = float(value)
    return out


def _hist_ms(hist: dict, family: str, labels: str) -> float:
    """Mean observation of a histogram, in ms, from its scraped
    ``_sum``/``_count`` samples."""
    count = hist.get(f"{family}_count{labels}", 0.0)
    return hist.get(f"{family}_sum{labels}", 0.0) / count * 1000.0 \
        if count else 0.0


class _Client:
    """One closed-loop client thread's state across the phase blocks.

    Cold blocks walk ``tasks`` in order (each is solved once); warm blocks
    cycle over the tasks already solved.  ``check(task, result, cold_row)``
    runs after a warm sample is taken.
    """

    def __init__(self, op, tasks, row_of, check) -> None:
        self.op, self.tasks, self.row_of, self.check = op, tasks, row_of, check
        self.solved: list = []          # (task, result) of cold operations
        self.cold_rows: dict = {}       # task key -> cold row, no volatiles
        self.samples = {True: ([], []), False: ([], [])}  # latencies, ends
        self.warm_next = 0
        self.error: BaseException | None = None

    def run_block(self, cold: bool, until: float) -> None:
        from repro.campaign import strip_volatile

        latencies, ends = self.samples[cold]
        try:
            while time.perf_counter() < until:
                if cold:
                    if len(self.solved) == len(self.tasks):
                        return
                    task = self.tasks[len(self.solved)]
                else:
                    task = self.solved[self.warm_next % len(self.solved)][0]
                    self.warm_next += 1
                t0 = time.perf_counter()
                result = self.op(task)
                t1 = time.perf_counter()
                latencies.append(t1 - t0)
                ends.append(t1)
                if cold:
                    self.solved.append((task, result))
                    self.cold_rows[task.key] = strip_volatile(
                        self.row_of(result))
                else:
                    self.check(task, result, self.cold_rows[task.key])
        except BaseException as exc:  # noqa: BLE001 — re-raised by caller
            self.error = exc


def _run_block(clients, cold: bool, seconds: float) -> tuple[float, float]:
    """Both clients, each on its own thread, for ``seconds``."""
    until = time.perf_counter() + seconds
    threads = [threading.Thread(target=c.run_block, args=(cold, until),
                                daemon=True) for c in clients]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 120)
        if thread.is_alive():
            raise harness.CheckFailed("a client thread never finished")
    for client in clients:
        if client.error is not None:
            raise client.error
    return t0, time.perf_counter()


def measure(seed: int, seconds: float, prepared, spans: Spans | None):
    from repro.campaign import (
        HttpCacheBackend,
        ResultCache,
        execute_tasks,
        strip_volatile,
    )
    from repro.service import ServiceClient

    halves, _ = prepared
    cold, warm = Phase("cold"), Phase("warm")
    tag = "traced" if spans is not None else "plain"
    trace_log = (harness.WORK / "tmp" / "fleet-server-trace.jsonl"
                 if spans is not None else None)
    server = harness.Server(work_dir(f"fleet-cache-{tag}"), trace_log)
    connects = [0]
    real_connect = socket.create_connection
    try:
        client = ServiceClient(server.url)
        if spans is None:
            cache = ResultCache(url=server.url, backend="http")
            extra = {}
        else:
            cache = ResultCache(backend=harness.timing_backend(
                HttpCacheBackend(server.url), spans, "service"))
            extra = {"tracer": harness.RunnerTracer(spans)}

            def counting_connect(*args, **kwargs):
                connects[0] += 1
                return real_connect(*args, **kwargs)

            socket.create_connection = counting_connect

        def worker(task):
            if spans is None:
                return execute_tasks([task], cache=cache)[0]
            with spans.span("campaign.execute", task.index):
                return execute_tasks([task], cache=cache, **extra)[0]

        def submitter(task):
            if spans is None:
                return client.solve(_request_doc(task))
            with spans.span("service.solve", task.index):
                return client.solve(_request_doc(task))

        def check_worker(task, row, cold_row):
            if row["resolution"] != "cached-ok" \
                    or strip_volatile(row) != cold_row:
                warm.fail(f"warm worker task {task.index} differs from "
                          f"its cold row ({row['resolution']})")

        def check_submitter(task, result, cold_row):
            if not result["cached"] or result["coalesced"] \
                    or strip_volatile(result["row"]) != cold_row:
                warm.fail(f"warm submitter task {task.index} was not "
                          f"served its cold row from the cache")

        clients = (_Client(worker, halves[0], lambda r: r, check_worker),
                   _Client(submitter, halves[1], lambda r: r["row"],
                           check_submitter))
        windows = {"cold": [], "warm": []}
        rates = {"cold": [], "warm": []}
        # /metrics around every block of the traced pass: per-phase
        # histogram sums and counts (the scrapes fall between blocks)
        server_hist = {"cold": {}, "warm": {}}
        host_ms: list[float] = []
        setup: list[float] = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or not windows["warm"]:
            host_ms.append(harness.ref_loop_ms())
            for phase in ("cold", "warm"):
                before = _scrape(server) if spans is not None else None
                done = sum(len(c.samples[phase == "cold"][0])
                           for c in clients)
                window = _run_block(clients, phase == "cold", BLOCK_S)
                ops = sum(len(c.samples[phase == "cold"][0])
                          for c in clients) - done
                windows[phase].append(window)
                rates[phase].append(ops / (window[1] - window[0]))
                if before is not None:
                    after = _scrape(server)
                    for name, value in after.items():
                        server_hist[phase][name] = \
                            server_hist[phase].get(name, 0.0) \
                            + value - before.get(name, 0.0)
            # a set-up launch after every second block pair; the blocks
            # still get ``seconds``
            if spans is None and len(windows["warm"]) % 2 == 0:
                t0 = time.perf_counter()
                setup.append(_launch_s(f"fleet-launch-{len(setup)}"))
                deadline += time.perf_counter() - t0
        scrape_ms = []
        for _ in range(10):
            t0 = time.perf_counter()
            server.get_text("/metrics")
            scrape_ms.append((time.perf_counter() - t0) * 1000.0)
        stats = client.stats()
        server_rss = server.peak_rss_mb()
    finally:
        socket.create_connection = real_connect
        server.stop()

    for c, name in zip(clients, ("worker", "submitter")):
        for task, result in c.solved:
            cold.attempted += 1
            row = c.row_of(result)
            fresh = (row.get("resolution") == "solved") \
                if name == "worker" else (
                    result["key"] == task.key and not result["cached"]
                    and not result["coalesced"])
            try:
                harness.check(fresh, f"cold {name} task {task.index} was "
                                     f"not solved fresh")
                harness.check_row(dict(row, objective=task.objective),
                                  f"cold {name} task {task.index}")
            except harness.CheckFailed as exc:
                cold.fail(str(exc))
        warm.attempted += len(c.samples[False][0])

    work_cold, sub_cold = (len(c.solved) for c in clients)
    work_warm, sub_warm = (len(c.samples[False][0]) for c in clients)
    service, counters = stats["service"], stats["cache"]["counters"]
    expected = {
        "solves": (service["solves"], sub_cold),
        "served_from_cache": (service["served_from_cache"], sub_warm),
        "coalesced": (service["coalesced"], 0),
        "errors": (service["errors"], 0),
        "cache hits": (counters["hits"], sub_warm + work_warm),
        "cache misses": (counters["misses"], sub_cold + work_cold),
        "cache puts": (counters["puts"], sub_cold + work_cold),
    }
    for name, (got, want) in expected.items():
        if got != want:
            warm.fail(f"/v1/stats {name} is {got}, expected {want}")

    # both clients' warm samples in completion order
    latencies = [lat for _, lat in sorted(
        (end, lat) for c in clients
        for lat, end in zip(*c.samples[False]))]
    p50, p99 = harness.best_group_percentiles(latencies)
    out = {
        "phases": [cold, warm],
        "cold_ops_s": max(rates["cold"]),
        "warm_ops_s": max(rates["warm"]),
        "warm_p50_ms": p50 * 1000.0,
        "warm_p99_ms": p99 * 1000.0,
        "setup_samples": [server.setup_s] + setup,
        "server_rss_mb": server_rss,
        "host_ms": host_ms,
        "samples": {"cold_ops": work_cold + sub_cold,
                    "warm_ops": len(latencies),
                    "blocks": len(windows["cold"])},
    }
    if spans is not None:
        out["layers"] = _layers(
            spans, windows, clients, server_hist, scrape_ms, stats,
            trace_log,
            connects[0] / max(1, work_cold + sub_cold + len(latencies)))
    return out


def _layers(spans: Spans, windows, clients, server_hist, scrape_ms, stats,
            trace_log, connects_per_op):
    from repro.obs.tracing import read_spans

    def phase_of(t: float) -> str | None:
        for phase, wins in windows.items():
            if any(lo <= t <= hi for lo, hi in wins):
                return phase
        return None

    client = {ep: [] for ep in ("solve_hit", "solve_miss", "cache_get_hit",
                                "cache_get_miss", "cache_put")}
    names = {("service.solve", "warm"): "solve_hit",
             ("service.solve", "cold"): "solve_miss",
             ("service.cache_get", "warm"): "cache_get_hit",
             ("service.cache_get", "cold"): "cache_get_miss",
             ("service.cache_put", "cold"): "cache_put"}
    for span in spans.tree():
        ep = names.get((span["name"], phase_of(span["start"])))
        if ep is not None:
            client[ep].append(span["end"] - span["start"])
    family = "repro_request_seconds"
    solve_ep, cache_ep = '{endpoint="/v1/solve"}', '{endpoint="/v1/cache"}'
    server = {
        "solve_miss": _hist_ms(server_hist["cold"], family, solve_ep),
        "solve_hit": _hist_ms(server_hist["warm"], family, solve_ep),
        "cache_get_hit": _hist_ms(server_hist["warm"], family, cache_ep),
        # GET misses and PUTs share one histogram label on /metrics
        "cache_cold": _hist_ms(server_hist["cold"], family, cache_ep),
    }
    client_mean = {ep: harness.mean(v) * 1000.0 for ep, v in client.items()}
    client_mean["cache_cold"] = harness.mean(
        client["cache_get_miss"] + client["cache_put"]) * 1000.0
    values = {}
    for ep, samples in client.items():
        values[f"service.client_ms.{ep}.p50"] = harness.pct(samples, 50) * 1e3
        values[f"service.client_ms.{ep}.p99"] = harness.pct(samples, 99) * 1e3
    for ep, ms in server.items():
        values[f"service.server_ms.{ep}"] = ms
        values[f"service.transport_ms.{ep}"] = client_mean[ep] - ms
    server_spans = read_spans(trace_log)
    solve_spans = [s["seconds"] for s in server_spans if s["span"] == "solve"]
    rows = [c.row_of(result) for c in clients for _, result in c.solved]
    stats_rows = harness.row_stats(rows)
    service = stats["service"]
    cold_wall = sum(hi - lo for lo, hi in windows["cold"])
    values.update({
        "serialization.parse_us": harness.parse_us(
            [task.instance for task, _ in clients[0].solved]),
        "service.tcp_connects_per_op": connects_per_op,
        "service.solve_ms": harness.mean(solve_spans) * 1000.0,
        "service.solves": service["solves"],
        "service.served_from_cache": service["served_from_cache"],
        "service.coalesced": service["coalesced"],
        "obs.scrape_ms": statistics.median(scrape_ms),
        "algorithms.bnb_nodes": stats_rows["bnb_nodes"],
        "algorithms.bnb_pruned": stats_rows["bnb_pruned"],
        "algorithms.memo_hits": stats_rows["memo_hits"],
        # solve time of both clients' cold operations, local and remote
        "algorithms.solve_share":
            (sum(spans.durations("algorithms.solve")) + sum(solve_spans))
            / (2 * cold_wall),
        "campaign.cache_hit_ratio": (
            len(client["cache_get_hit"])
            / max(1, len(client["cache_get_hit"])
                  + len(client["cache_get_miss"]))),
    })
    docs = [{"source": "server", **s} for s in server_spans]
    return {"values": values, "labels": stats_rows["labels"],
            "self_ms": spans.self_ms_by_layer(), "windows": windows,
            "threads": 2, "server_spans": docs}
