"""HTTP client for the solver service (stdlib ``urllib`` only).

:class:`ServiceClient` wraps the service API (:mod:`repro.service.server`)
with per-request timeouts and jittered, deadline-capped retries on
*transport* failures (connection refused/reset, timeouts, 502/503).
Application-level responses are never retried: a 404 on a cache probe is
a miss, a 400 is a caller error, and a solve that returns an error *row*
is data — the service already ran it once, retrying cannot change a
deterministic verdict.

The client is stateless between calls (one ``urllib`` request each), so
a single instance can be shared across threads.
"""

from __future__ import annotations

import json
import random
import sys
import time
import urllib.error
import urllib.request

from ..core.exceptions import ReproError
from ..obs.tracing import TRACE_HEADER

__all__ = ["ServiceError", "ServiceUnavailableError", "ServiceClient"]

#: HTTP statuses treated as transient and retried with backoff.
_RETRY_STATUSES = (502, 503, 504)


def _shared_keys(pairs: list) -> dict:
    """A decoded JSON object whose keys are interned.

    Every response repeats the same field names; interned, a caller that
    keeps many rows (a campaign over the http cache keeps every row it
    resolves) holds each name once instead of once per row, about 30%
    of a retained row.
    """
    return {sys.intern(key): value for key, value in pairs}


class ServiceError(ReproError):
    """The service answered, but with an application-level error."""

    def __init__(self, message: str, status: int | None = None) -> None:
        super().__init__(message)
        self.status = status


class ServiceUnavailableError(ServiceError):
    """No usable answer after every retry (transport-level failure)."""


class ServiceClient:
    """Typed access to a running solver service.

    ``retries`` counts *additional* attempts after the first.  Waits
    between attempts use *decorrelated jitter*: each wait is drawn
    uniformly from ``[backoff, 3 * previous_wait]`` (capped at
    ``backoff_cap``), so a fleet of campaign workers that all hit a
    restarting server fans back in spread out instead of in lockstep.
    ``retry_deadline`` caps the *total* time spent retrying one request:
    when the next wait would cross it, the client gives up — returning
    the last retryable HTTP answer if the server ever answered, raising
    :class:`ServiceUnavailableError` otherwise.

    Construction is offline (one ``urllib`` request per call, nothing
    persistent), so a single instance can be shared across threads:

    >>> client = ServiceClient("http://127.0.0.1:8300/", timeout=5.0)
    >>> client.url                      # trailing slash is normalized
    'http://127.0.0.1:8300'
    >>> client.retries, client.backoff
    (3, 0.2)

    Against a live ``python -m repro serve``: ``client.solve(request)``
    posts a content-addressed solve, ``client.cache_get(key)`` /
    ``client.cache_put(key, row)`` speak the cache wire protocol behind
    ``--cache-url``, and ``client.stats()`` / ``client.healthz()``
    report service state.
    """

    def __init__(self, url: str, timeout: float = 30.0, retries: int = 3,
                 backoff: float = 0.2, backoff_cap: float = 5.0,
                 retry_deadline: float = 60.0) -> None:
        self.url = url.rstrip("/")
        self.timeout = timeout
        self.retries = max(0, retries)
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self.retry_deadline = retry_deadline
        # seams: tests pin the jitter draw and capture the sleeps
        self._rng = random.Random()
        self._sleep = time.sleep

    # -------------------------------------------------------------- http
    def _request(self, method: str, path: str,
                 doc: dict | None = None,
                 headers: dict | None = None) -> tuple[int, dict]:
        """One API call; returns ``(status, parsed-json-body)``.

        Transport failures and retryable statuses are retried with
        backoff; any other HTTP error status is returned to the caller
        (the typed methods below decide what it means).  ``headers``
        are merged over the defaults (e.g. the trace-id header).
        """
        data = None
        base_headers = {"Accept": "application/json"}
        if doc is not None:
            data = json.dumps(doc).encode("utf-8")
            base_headers["Content-Type"] = "application/json"
        if headers:
            base_headers.update(headers)
        headers = base_headers
        started = time.monotonic()
        sleep = self.backoff
        last_error: Exception | None = None
        last_http: tuple[int, dict] | None = None
        for attempt in range(self.retries + 1):
            request = urllib.request.Request(
                self.url + path, data=data, method=method, headers=headers
            )
            try:
                with urllib.request.urlopen(
                    request, timeout=self.timeout
                ) as response:
                    return response.status, self._parse(response.read())
            except urllib.error.HTTPError as exc:
                body = self._parse(exc.read())
                if exc.code in _RETRY_STATUSES and attempt < self.retries:
                    last_error = exc
                    last_http = (exc.code, body)
                else:
                    return exc.code, body
            except (urllib.error.URLError, ConnectionError, TimeoutError,
                    OSError) as exc:
                last_error = exc
                if attempt >= self.retries:
                    break
            # decorrelated jitter: next wait ~ U[backoff, 3 * previous]
            sleep = min(self.backoff_cap,
                        self._rng.uniform(self.backoff, sleep * 3.0))
            if time.monotonic() - started + sleep > self.retry_deadline:
                break
            self._sleep(sleep)
        if last_http is not None:
            return last_http
        raise ServiceUnavailableError(
            f"solver service at {self.url} unreachable after "
            f"{self.retries + 1} attempts: {last_error}"
        )

    @staticmethod
    def _parse(body: bytes) -> dict:
        try:
            doc = (
                json.loads(body, object_pairs_hook=_shared_keys)
                if body else {}
            )
        except ValueError:
            doc = {"error": body.decode("utf-8", "replace")}
        return doc if isinstance(doc, dict) else {"value": doc}

    def _expect_ok(self, method: str, path: str,
                   doc: dict | None = None,
                   headers: dict | None = None) -> dict:
        status, body = self._request(method, path, doc, headers=headers)
        if status != 200:
            raise ServiceError(
                f"{method} {path} failed with HTTP {status}: "
                f"{body.get('error', body)}",
                status=status,
            )
        return body

    # -------------------------------------------------------------- api
    def healthz(self) -> dict:
        """The service health document (raises unless HTTP 200)."""
        return self._expect_ok("GET", "/v1/healthz")

    def wait_ready(self, timeout: float = 10.0,
                   interval: float = 0.05, log=None) -> dict:
        """Poll ``/v1/healthz`` until the service answers (or timeout).

        ``log`` is an optional ``callable(message)`` (e.g. a logger
        method or ``print``) told about each failed attempt and the
        final success, with attempt counts and elapsed seconds — so a
        slow service start is visible instead of a silent stall.
        """
        started = time.monotonic()
        deadline = started + timeout
        attempts = 0
        while True:
            attempts += 1
            try:
                health = self.healthz()
                if log is not None and attempts > 1:
                    log(f"solver service at {self.url} ready after "
                        f"{attempts} attempts "
                        f"({time.monotonic() - started:.2f}s)")
                return health
            except ServiceError as exc:
                elapsed = time.monotonic() - started
                if log is not None:
                    log(f"solver service at {self.url} not ready "
                        f"(attempt {attempts}, {elapsed:.2f}s): {exc}")
                if time.monotonic() >= deadline:
                    raise ServiceUnavailableError(
                        f"solver service at {self.url} not ready "
                        f"within {timeout}s ({attempts} attempts)"
                    ) from None
            time.sleep(interval)

    def solve(self, doc: dict, trace: str | None = None) -> dict:
        """POST a solve request document; returns the service response.

        The response carries ``key`` / ``row`` / ``cached`` /
        ``coalesced``; a ``row`` with ``status="error"`` is a valid
        answer (the solve failed deterministically), not an exception.
        ``trace`` is sent in the ``X-Repro-Trace`` header so the
        server's spans for this request share the caller's trace id.
        """
        headers = {TRACE_HEADER: trace} if trace else None
        return self._expect_ok("POST", "/v1/solve", doc, headers=headers)

    def cache_get(self, key: str) -> dict | None:
        """The cached row for ``key``, or ``None`` (404 is a miss)."""
        status, body = self._request("GET", f"/v1/cache/{key}")
        if status == 404:
            return None
        if status != 200:
            raise ServiceError(
                f"cache get for {key} failed with HTTP {status}: "
                f"{body.get('error', body)}",
                status=status,
            )
        return body.get("row")

    def cache_put(self, key: str, row: dict) -> None:
        self._expect_ok("PUT", f"/v1/cache/{key}", row)

    def keys(self) -> list[str]:
        return list(self._expect_ok("GET", "/v1/keys").get("keys", ()))

    def stats(self) -> dict:
        return self._expect_ok("GET", "/v1/stats")

    def metrics(self) -> str:
        """The raw Prometheus text exposition from ``GET /metrics``.

        One un-retried request — a scrape is periodic by nature, so a
        failed one is simply the next scrape's problem.  Returns text,
        not JSON (use :meth:`stats` for a structured view).
        """
        request = urllib.request.Request(
            self.url + "/metrics", headers={"Accept": "text/plain"}
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                return response.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            raise ServiceError(
                f"GET /metrics failed with HTTP {exc.code}",
                status=exc.code,
            ) from exc
        except (urllib.error.URLError, ConnectionError, TimeoutError,
                OSError) as exc:
            raise ServiceUnavailableError(
                f"solver service at {self.url} unreachable: {exc}"
            ) from exc

    def compact(self, max_age_days: float | None = None,
                max_bytes: int | None = None) -> dict:
        doc: dict = {}
        if max_age_days is not None:
            doc["max_age_days"] = max_age_days
        if max_bytes is not None:
            doc["max_bytes"] = max_bytes
        return self._expect_ok("POST", "/v1/compact", doc)
