"""Service-side fault tolerance: budgets over the wire, breaker over HTTP,
client retry jitter/deadline."""

from __future__ import annotations

import random
import time

import pytest

from repro.campaign import CircuitBreakerBackend, ResultCache
from repro.campaign.cache import HttpCacheBackend
from repro.service import ServiceClient, ServiceUnavailableError
from repro.service.server import make_server, task_from_doc

HARD_REQUEST = {
    "instance": {
        "kind": "instance",
        "application": {
            "kind": "pipeline",
            "works": [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8],
        },
        "platform": {"kind": "platform", "speeds": [1, 2, 3, 2, 1, 2, 3, 1]},
        "allow_data_parallel": False,
    },
    "objective": "period",
    "solver": {"name": "svc", "mode": "exact", "engine": "bnb",
               "max_nodes": 2000},
}


# ------------------------------------------------------------ solve budgets
def test_solve_accepts_budget_and_returns_anytime_row(client):
    response = client.solve(HARD_REQUEST)
    row = response["row"]
    assert row["status"] == "ok"
    execution = row["execution"]
    assert execution["status"] == "budget_exhausted"
    assert execution["reason"] == "max_nodes"
    assert execution["lower_bound"] > 0.0
    assert row["value"] >= execution["lower_bound"]
    # the row was cached under the budgeted key: same request hits
    assert client.solve(HARD_REQUEST)["cached"] is True


def test_budget_is_part_of_the_request_key():
    plain = dict(HARD_REQUEST, solver={"name": "svc", "mode": "exact"})
    loose = dict(HARD_REQUEST,
                 solver=dict(HARD_REQUEST["solver"], max_nodes=5000))
    keys = {task_from_doc(doc).key
            for doc in (HARD_REQUEST, loose, plain)}
    assert len(keys) == 3   # budgeted rows never alias exact rows


# ------------------------------------------------------- breaker over http
def test_breaker_rides_out_a_service_restart(tmp_path, flaky_service):
    backend = CircuitBreakerBackend(
        HttpCacheBackend(flaky_service.url, timeout=5.0, retries=0),
        journal_dir=tmp_path / "journal",
        failure_threshold=1,
        reset_after=0.01,
    )
    cache = ResultCache(backend=backend)
    key_a, key_b = "aa" + "0" * 62, "bb" + "0" * 62
    cache.put(key_a, {"status": "ok", "value": 1.0})
    assert cache.get(key_a) == {"status": "ok", "value": 1.0}

    flaky_service.kill()
    assert cache.get(key_a) is None          # degraded to a miss
    cache.put(key_b, {"status": "ok", "value": 2.0})
    assert backend.state == "open"
    assert backend.breaker_state()["journal_entries"] >= 1

    flaky_service.start()                    # same port, same disk cache
    ServiceClient(flaky_service.url, timeout=5.0).wait_ready()
    deadline = time.monotonic() + 10.0
    while cache.get(key_a) is None:          # half-open probes until closed
        assert time.monotonic() < deadline, "breaker never recovered"
        time.sleep(0.02)
    assert backend.state == "closed"
    # the spilled put was replayed to the service
    assert backend.breaker_state()["journal_entries"] == 0
    fresh = ServiceClient(flaky_service.url, timeout=5.0)
    assert fresh.cache_get(key_b) == {"status": "ok", "value": 2.0}


def test_tier_server_reports_breaker_state_in_stats(tmp_path, server):
    tier = make_server(port=0, cache_url=server.url,
                       cache_fallback_dir=str(tmp_path / "tier-journal"))
    import threading
    thread = threading.Thread(target=tier.serve_forever, daemon=True)
    thread.start()
    try:
        client = ServiceClient(tier.url, timeout=10.0)
        breaker = client.stats()["cache"]["storage"]["breaker"]
        assert breaker["state"] == "closed"
        assert breaker["failure_threshold"] >= 1
    finally:
        tier.shutdown()
        tier.server_close()
        tier.service.close()
        thread.join(timeout=5)


# --------------------------------------------------- client retry behaviour
def _dead_client(**kwargs) -> ServiceClient:
    # a port from the ephemeral range with nothing listening
    client = ServiceClient("http://127.0.0.1:9", timeout=0.2, **kwargs)
    client._rng = random.Random(7)
    sleeps = []
    client._sleep = sleeps.append
    return client, sleeps


def test_retry_waits_use_decorrelated_jitter():
    client, sleeps = _dead_client(retries=4, backoff=0.1, backoff_cap=1.0)
    with pytest.raises(ServiceUnavailableError):
        client._request("GET", "/v1/healthz")
    assert len(sleeps) == 4                    # one wait between attempts
    rng = random.Random(7)
    expected, previous = [], 0.1
    for _ in range(4):
        previous = min(1.0, rng.uniform(0.1, previous * 3.0))
        expected.append(previous)
    assert sleeps == expected                  # exactly the seeded draws
    assert all(0.1 <= s <= 1.0 for s in sleeps)
    assert len(set(sleeps)) > 1                # not lockstep exponential


def test_retry_deadline_caps_total_retry_time():
    client, sleeps = _dead_client(retries=50, backoff=10.0,
                                  backoff_cap=10.0, retry_deadline=0.5)
    start = time.monotonic()
    with pytest.raises(ServiceUnavailableError):
        client._request("GET", "/v1/healthz")
    # every scheduled wait would cross the 0.5s deadline, so the client
    # gives up instead of sleeping 50 x 10s
    assert sleeps == []
    assert time.monotonic() - start < 5.0
