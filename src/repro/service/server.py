"""Threaded HTTP solve/cache server with single-flight deduplication.

The solver service turns the in-process library into a shared network
resource: many clients (or a whole fleet of campaign runners pointed at
it through ``--cache-url``) see one warm, content-addressed
cache and one solver pool.  Stdlib only — ``http.server`` threads for
transport, a ``ThreadPoolExecutor`` for the solves.

API (all JSON)
--------------
``POST /v1/solve``
    Body: ``{"instance": {...}, "objective": "period" | "latency",
    "period_bound": K | null, "latency_bound": K | null,
    "solver": {...SolverConfig fields...}}``.  The request is keyed
    exactly like a campaign :class:`~repro.campaign.spec.Task` (same
    normalized-instance + canonical-solver content hash), so service
    solves and campaign rows share cache entries.  Response:
    ``{"key", "row", "cached", "coalesced"}`` — a ``row`` with
    ``status="error"`` is a deterministic solver verdict, not a
    transport failure.
``GET /v1/cache/<key>`` / ``PUT /v1/cache/<key>``
    Raw cache access (404 = miss); this is the wire protocol behind
    :class:`repro.campaign.cache.HttpCacheBackend`.
``GET /v1/keys`` · ``GET /v1/stats`` · ``GET /v1/healthz`` ·
``POST /v1/compact``
    Key listing, service/cache statistics, liveness, and remote
    ``compact`` with the age/size eviction policy.

Single-flight coalescing
------------------------
N concurrent identical solve requests run the solver **once**: the first
request submits the solve to the worker pool and registers the future
under the task key; followers find the in-flight future and wait on it.
Everyone gets the same payload (copies — cache rows never alias), and
the ``coalesced`` counter records the requests that piggybacked.  The
flight is deregistered only after the result is cached, so a request
arriving later is a plain cache hit.

All cache access goes through one lock (the backends themselves are not
thread-safe); solves run outside the lock.

Observability
-------------
``GET /metrics`` serves the Prometheus text exposition of the service's
:class:`~repro.obs.metrics.MetricsRegistry`.  The registry is the one
store of the request/solve/coalesce/error counts: they are incremented
at event time under the service lock, and ``/v1/stats`` reads them back,
while ``/metrics`` renders under the same lock, so the two endpoints can
never disagree about the same instant.  Latency histograms
(``repro_solve_seconds``, ``repro_request_seconds``) and the
per-endpoint HTTP counter are observed live at event time too.  With
``trace_log`` set, every ``/v1/solve`` request emits request / cache-get
/ coalesce-wait / solve / cache-put spans stamped with the client's
``X-Repro-Trace`` id (or a fresh one).
"""

from __future__ import annotations

import copy
import json
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..core.exceptions import ReproError
from ..campaign.cache import ResultCache
from ..campaign.runner import solve_task
from ..campaign.spec import SolverConfig, Task
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import NULL_TRACER, TRACE_HEADER, Tracer, new_trace_id

__all__ = [
    "SERVICE_VERSION",
    "task_from_doc",
    "SolveService",
    "SolverHTTPServer",
    "make_server",
    "serve",
]

#: Version of the service wire API (reported by ``/v1/healthz``).
SERVICE_VERSION = 1

_REQUEST_FIELDS = {"instance", "instance_id", "objective",
                   "period_bound", "latency_bound", "solver"}


def task_from_doc(doc: dict) -> Task:
    """Validate a solve-request document into a campaign :class:`Task`.

    The task is keyed identically to campaign tasks (normalized instance
    + objective + bounds + canonical solver config), so the service and
    any campaign share cache rows for the same work.  Unknown fields and
    malformed values fail loudly — a typo must never silently solve (and
    cache) something other than what the caller meant.
    """
    if not isinstance(doc, dict):
        raise ReproError("solve request must be a JSON object")
    unknown = set(doc) - _REQUEST_FIELDS
    if unknown:
        raise ReproError(
            f"unknown solve request fields {sorted(unknown)} "
            f"(known: {sorted(_REQUEST_FIELDS)})"
        )
    instance = doc.get("instance")
    if not isinstance(instance, dict) or instance.get("kind") != "instance":
        raise ReproError(
            "solve request needs an 'instance' document "
            '({"kind": "instance", ...})'
        )
    objective = doc.get("objective", "period")
    if objective not in ("period", "latency"):
        raise ReproError(
            f"objective must be 'period' or 'latency', got {objective!r}"
        )
    for bound in ("period_bound", "latency_bound"):
        value = doc.get(bound)
        if value is not None and not isinstance(value, (int, float)):
            raise ReproError(f"{bound} must be a number or null")
    solver_doc = dict(doc.get("solver") or {})
    solver_doc.setdefault("name", "service")
    solver = SolverConfig.from_dict(solver_doc)
    return Task(
        index=0,
        instance_id=str(doc.get("instance_id", "service")),
        instance=instance,
        objective=objective,
        period_bound=doc.get("period_bound"),
        latency_bound=doc.get("latency_bound"),
        solver=solver.to_dict(),
    )


class SolveService:
    """The service core: cache + worker pool + single-flight registry.

    Thread-safe; transport-agnostic (the HTTP handler below is one
    front, tests and benchmarks may call it directly).
    """

    def __init__(self, cache: ResultCache, solve_workers: int = 4,
                 registry: MetricsRegistry | None = None,
                 tracer=None) -> None:
        self.cache = cache
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, solve_workers), thread_name_prefix="solve"
        )
        self._lock = threading.Lock()
        self._inflight: dict[str, Future] = {}
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        reg = self.registry
        self._m_requests = reg.counter(
            "repro_solve_requests_total", "Solve requests received.")
        self._m_solves = reg.counter(
            "repro_solves_total", "Solves executed, by engine and status.",
            ("engine", "status"))
        self._m_coalesced = reg.counter(
            "repro_coalesced_total",
            "Requests that piggybacked on an in-flight identical solve.")
        self._m_cache_served = reg.counter(
            "repro_cache_served_total",
            "Solve requests answered straight from the result cache.")
        self._m_errors = reg.counter(
            "repro_solve_errors_total",
            "Solves that produced an error row (deterministic verdicts).")
        self._m_cache_ops = reg.counter(
            "repro_cache_ops_total",
            "Result-cache operations, by op and outcome.", ("op", "result"))
        self._m_inflight = reg.gauge(
            "repro_inflight_solves", "Solve flights currently running.")
        self._m_breaker = reg.gauge(
            "repro_cache_breaker_state",
            "Remote-cache circuit breaker: 0 closed, 1 half-open, 2 open.",
        ) if cache.breaker_state is not None else None
        self._h_solve = reg.histogram(
            "repro_solve_seconds", "Solve wall time, by engine and status.",
            ("engine", "status"))
        self._h_request = reg.histogram(
            "repro_request_seconds", "HTTP request wall time, by endpoint.",
            ("endpoint",))
        self._m_http = reg.counter(
            "repro_http_requests_total",
            "HTTP requests served, by endpoint and status code.",
            ("endpoint", "code"))

    # -------------------------------------------------------------- solve
    def solve(self, doc: dict, trace: str | None = None) -> dict:
        """Resolve one solve request: cache hit, new flight, or piggyback.

        ``trace`` stamps this request's spans (cache-get, coalesce-wait,
        and — for the request that starts the flight — solve/cache-put).
        """
        task = task_from_doc(doc)
        key = task.key
        tracer = self.tracer
        with self._lock:
            self._m_requests.inc()
            t0 = time.perf_counter() if tracer.active else 0.0
            row = self.cache.get(key)
            if tracer.active:
                tracer.emit("cache-get", time.perf_counter() - t0,
                            trace=trace, key=key, hit=row is not None)
            if row is not None:
                self._m_cache_served.inc()
                return {"key": key, "row": row,
                        "cached": True, "coalesced": False}
            future = self._inflight.get(key)
            coalesced = future is not None
            if coalesced:
                self._m_coalesced.inc()
            else:
                future = self._pool.submit(
                    self._solve_and_store, key, task, trace
                )
                self._inflight[key] = future
        if coalesced and tracer.active:
            with tracer.span("coalesce-wait", trace=trace, key=key):
                payload = future.result()
        else:
            payload = future.result()
        return {"key": key, "row": copy.deepcopy(payload),
                "cached": False, "coalesced": coalesced}

    def _solve_and_store(self, key: str, task: Task,
                         trace: str | None = None) -> dict:
        """Worker-pool body of a flight: solve, cache, deregister."""
        try:
            tracer = self.tracer
            payload, seconds = solve_task(task)
            cacheable = payload.pop("_cacheable", True)
            timing = payload.get("timing") or {}
            engine = timing.get("engine") or "unknown"
            status = timing.get("status") or "completed"
            # histograms are observed outside the service lock (the
            # family has its own); counters move under it, see stats()
            self._h_solve.labels(engine=engine, status=status) \
                .observe(seconds)
            if tracer.active:
                tracer.emit("solve", seconds, trace=trace, key=key,
                            engine=engine, status=status)
            with self._lock:
                self._m_solves.labels(engine=engine, status=status).inc()
                if payload.get("status") == "error":
                    self._m_errors.inc()
                if cacheable:
                    t0 = time.perf_counter() if tracer.active else 0.0
                    self.cache.put(key, payload)
                    if tracer.active:
                        tracer.emit("cache-put",
                                    time.perf_counter() - t0,
                                    trace=trace, key=key)
            return payload
        finally:
            # deregistered after the put: a request landing between the
            # put and this pop sees either the flight or a cache hit,
            # never a gap that would re-run the solver
            with self._lock:
                self._inflight.pop(key, None)

    # -------------------------------------------------------------- cache
    def cache_get(self, key: str) -> dict | None:
        with self._lock:
            return self.cache.get(key)

    def cache_put(self, key: str, row: dict) -> None:
        with self._lock:
            self.cache.put(key, row)

    def keys(self) -> list[str]:
        with self._lock:
            return self.cache.keys()

    def compact(self, max_age_days: float | None = None,
                max_bytes: int | None = None) -> dict:
        with self._lock:
            return self.cache.compact(max_age_days=max_age_days,
                                      max_bytes=max_bytes)

    # ------------------------------------------------------ observability
    def stats(self) -> dict:
        """The ``/v1/stats`` document, read from the registry counters."""
        with self._lock:
            service = {
                "requests": int(self._m_requests.value()),
                "solves": int(self._m_solves.total()),
                "coalesced": int(self._m_coalesced.value()),
                "served_from_cache": int(self._m_cache_served.value()),
                "errors": int(self._m_errors.value()),
                "inflight": len(self._inflight),
            }
            counters = dict(self.cache.stats)
            storage = self.cache.storage_stats()
        return {"service": service,
                "cache": {"counters": counters, "storage": storage}}

    def metrics_text(self) -> str:
        """The ``/metrics`` body, rendered under the service lock.

        Unlike :meth:`stats` this never calls ``storage_stats`` — a
        scrape must not hit the network when the cache backend is remote.
        The cache-op family mirrors :attr:`ResultCache.stats`, which the
        cache itself counts.
        """
        with self._lock:
            self._m_inflight.set(len(self._inflight))
            cache_counts = self.cache.stats
            ops = self._m_cache_ops
            ops.labels(op="get", result="hit").set_to(cache_counts["hits"])
            ops.labels(op="get", result="miss").set_to(cache_counts["misses"])
            ops.labels(op="put", result="ok").set_to(cache_counts["puts"])
            breaker = self.cache.breaker_state
            if self._m_breaker is not None and breaker is not None:
                self._m_breaker.set(
                    {"closed": 0, "half-open": 1, "open": 2}[breaker]
                )
            return self.registry.render()

    def close(self) -> None:
        self._pool.shutdown(wait=True)
        self.tracer.close()
        with self._lock:
            self.cache.close()


# ----------------------------------------------------------------------
# HTTP transport
# ----------------------------------------------------------------------
class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-solver/1"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> SolveService:
        return self.server.service

    def log_message(self, format, *args):  # noqa: A002 — stdlib signature
        if self.server.verbose:
            super().log_message(format, *args)

    # ------------------------------------------------------------ helpers
    def _send(self, status: int, doc: dict) -> None:
        self._send_bytes(status, json.dumps(doc).encode("utf-8"),
                         "application/json")

    def _send_text(self, status: int, text: str,
                   content_type: str = "text/plain; charset=utf-8") -> None:
        self._send_bytes(status, text.encode("utf-8"), content_type)

    def _send_bytes(self, status: int, body: bytes,
                    content_type: str) -> None:
        self._record(status)
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length)
        if not body:
            return {}
        doc = json.loads(body)
        if not isinstance(doc, dict):
            raise ReproError("request body must be a JSON object")
        return doc

    def _dispatch(self, handler) -> None:
        try:
            handler()
        except (ValueError, ReproError) as exc:
            self._send(400, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 — a request must never
            # kill the server; the client sees a 500 it can report
            self._send(500, {"error": f"{type(exc).__name__}: {exc}"})

    def _path(self) -> str:
        return self.path.split("?", 1)[0]

    _ENDPOINTS = ("/metrics", "/v1/healthz", "/v1/stats", "/v1/keys",
                  "/v1/solve", "/v1/compact")

    def _endpoint(self) -> str:
        """The metrics label for this request's path (bounded cardinality:
        cache keys collapse to ``/v1/cache``, unknown paths to ``other``)."""
        path = self._path()
        if path.startswith("/v1/cache/"):
            return "/v1/cache"
        return path if path in self._ENDPOINTS else "other"

    def _record(self, status: int) -> None:
        """Observe this request's latency and endpoint/code count, once.

        Called as the status is known and before any byte of the reply
        goes out, so a scrape sent right after a reply always sees it.
        """
        t0 = self._t0
        if t0 is None:
            return
        self._t0 = None
        service = self.service
        service._h_request.labels(endpoint=self._label) \
            .observe(time.perf_counter() - t0)
        service._m_http.labels(endpoint=self._label, code=status).inc()

    def _timed(self, body) -> None:
        """Run one request body; a body that sent nothing counts as 0."""
        self._label = self._endpoint()
        self._t0 = time.perf_counter()
        try:
            body()
        finally:
            self._record(0)

    # ------------------------------------------------------------ methods
    def do_GET(self) -> None:  # noqa: N802 — stdlib naming
        self._timed(self._do_get)

    def do_POST(self) -> None:  # noqa: N802 — stdlib naming
        self._timed(self._do_post)

    def do_PUT(self) -> None:  # noqa: N802 — stdlib naming
        self._timed(self._do_put)

    def _do_get(self) -> None:
        path = self._path()
        if path == "/metrics":
            self._dispatch(lambda: self._send_text(
                200, self.service.metrics_text(),
                "text/plain; version=0.0.4; charset=utf-8",
            ))
        elif path == "/v1/healthz":
            self._send(200, {"status": "ok", "service": "repro-solver",
                             "version": SERVICE_VERSION})
        elif path == "/v1/stats":
            self._dispatch(lambda: self._send(200, self.service.stats()))
        elif path == "/v1/keys":
            self._dispatch(
                lambda: self._send(200, {"keys": self.service.keys()})
            )
        elif path.startswith("/v1/cache/"):
            key = path[len("/v1/cache/"):]

            def _get():
                row = self.service.cache_get(key)
                if row is None:
                    self._send(404, {"error": f"no cached row for {key!r}"})
                else:
                    self._send(200, {"key": key, "row": row})

            self._dispatch(_get)
        else:
            self._send(404, {"error": f"unknown path {path!r}"})

    def _do_post(self) -> None:
        path = self._path()
        if path == "/v1/solve":

            def _solve():
                doc = self._read_json()
                tracer = self.service.tracer
                trace = self.headers.get(TRACE_HEADER)
                if tracer.active:
                    if not trace:
                        trace = new_trace_id()
                    with tracer.span("request", trace=trace,
                                     endpoint="/v1/solve"):
                        result = self.service.solve(doc, trace=trace)
                else:
                    result = self.service.solve(doc, trace=trace)
                self._send(200, result)

            self._dispatch(_solve)
        elif path == "/v1/compact":

            def _compact():
                doc = self._read_json()
                self._send(200, self.service.compact(
                    max_age_days=doc.get("max_age_days"),
                    max_bytes=doc.get("max_bytes"),
                ))

            self._dispatch(_compact)
        else:
            self._send(404, {"error": f"unknown path {path!r}"})

    def _do_put(self) -> None:
        path = self._path()
        if path.startswith("/v1/cache/"):
            key = path[len("/v1/cache/"):]

            def _put():
                row = self._read_json()
                if not row:
                    # an empty body would be stored as a live {} row and
                    # served to the whole fleet as a (bogus) hit
                    raise ReproError(
                        "cache put needs a non-empty JSON object row"
                    )
                self.service.cache_put(key, row)
                self._send(200, {"key": key, "stored": True})

            self._dispatch(_put)
        else:
            self._send(404, {"error": f"unknown path {path!r}"})


class SolverHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server bound to one :class:`SolveService`."""

    daemon_threads = True
    # listen backlog: the stdlib default of 5 drops the connects of a
    # burst of clients, which then wait a full SYN retransmit (~1 s)
    request_queue_size = 128

    def __init__(self, address: tuple[str, int], service: SolveService,
                 verbose: bool = False) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self.verbose = verbose

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def make_server(
    host: str = "127.0.0.1",
    port: int = 0,
    cache: ResultCache | None = None,
    cache_dir: str | None = None,
    solve_workers: int = 4,
    verbose: bool = False,
    cache_url: str | None = None,
    cache_fallback_dir: str | None = None,
    registry: MetricsRegistry | None = None,
    trace_log: str | None = None,
) -> SolverHTTPServer:
    """Build a ready-to-run server (``port=0`` picks an ephemeral port).

    Pass an open ``cache``, or a ``cache_dir`` to have one opened.
    ``cache_url`` instead makes this server a solving tier in front of
    an upstream cache service;
    ``cache_fallback_dir`` then wraps the upstream in a
    :class:`~repro.campaign.cache.CircuitBreakerBackend` whose spill
    journal lives there — breaker state shows up under ``/v1/stats``
    storage stats.  The server owns the service; run it with
    ``serve_forever()`` (tests/benchmarks typically do so in a daemon
    thread and read ``server.url``).

    ``registry`` shares a :class:`~repro.obs.metrics.MetricsRegistry`
    (one is created otherwise); ``trace_log`` appends per-request spans
    to a JSON-lines file (closed with the service).
    """
    if cache is None:
        if cache_url is not None:
            if cache_dir is not None:
                raise ReproError("make_server takes a cache_dir or a "
                                 "cache_url, not both")
            cache = ResultCache(url=cache_url, backend="http",
                                fallback_dir=cache_fallback_dir)
        elif cache_dir is None:
            raise ReproError("make_server needs a cache, a cache_dir or "
                             "a cache_url")
        else:
            cache = ResultCache(cache_dir, fallback_dir=cache_fallback_dir)
    tracer = Tracer(trace_log) if trace_log else None
    service = SolveService(cache, solve_workers=solve_workers,
                           registry=registry, tracer=tracer)
    return SolverHTTPServer((host, port), service, verbose=verbose)


def serve(host: str, port: int, cache_dir: str | None = None,
          solve_workers: int = 4, verbose: bool = False, out=None,
          cache_url: str | None = None,
          cache_fallback_dir: str | None = None,
          trace_log: str | None = None) -> int:
    """Blocking CLI entry point: announce the URL, serve until SIGINT."""
    server = make_server(host=host, port=port, cache_dir=cache_dir,
                         solve_workers=solve_workers, verbose=verbose,
                         cache_url=cache_url,
                         cache_fallback_dir=cache_fallback_dir,
                         trace_log=trace_log)
    # flush=True: launcher scripts block on this line to learn the URL
    print(f"solver service listening on {server.url} "
          f"[{server.service.cache.backend} cache at "
          f"{cache_url or cache_dir}, "
          f"{solve_workers} solve workers]", file=out, flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        server.service.close()
    return 0
