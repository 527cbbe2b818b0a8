"""Solver service: a shared HTTP solve/cache front for the library.

* :mod:`repro.service.server` — stdlib threaded HTTP server exposing
  ``POST /v1/solve`` (content-addressed, single-flight deduplicated
  solves), ``GET/PUT /v1/cache/<key>``, ``GET /v1/keys``,
  ``GET /v1/stats``, ``GET /v1/healthz`` and ``POST /v1/compact`` over
  any :class:`~repro.campaign.cache.ResultCache`;
* :mod:`repro.service.client` — retrying, timeout-bounded
  :class:`ServiceClient` speaking that API.

Run a server with ``python -m repro serve --cache-dir DIR``; point a
whole campaign fleet at it with ``--cache-url http://host:port`` (the
:class:`~repro.campaign.cache.HttpCacheBackend` seam), or POST one-off
solves with ``python -m repro submit``.

Quick start::

    from repro.campaign import ResultCache
    from repro.service import ServiceClient, make_server
    import threading

    server = make_server(port=0, cache=ResultCache(".repro-cache"))
    threading.Thread(target=server.serve_forever, daemon=True).start()
    client = ServiceClient(server.url)
    response = client.solve({"instance": {...}, "objective": "period"})
"""

from .client import ServiceClient, ServiceError, ServiceUnavailableError
from .server import (
    SERVICE_VERSION,
    SolverHTTPServer,
    SolveService,
    make_server,
    serve,
    task_from_doc,
)

__all__ = [
    "SERVICE_VERSION",
    "ServiceClient",
    "ServiceError",
    "ServiceUnavailableError",
    "SolveService",
    "SolverHTTPServer",
    "make_server",
    "serve",
    "task_from_doc",
]
