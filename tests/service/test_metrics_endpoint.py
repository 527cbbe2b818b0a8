"""``GET /metrics``: Prometheus exposition wired to the live service."""

import threading
import time

import pytest

from repro.campaign import ResultCache
from repro.obs import read_spans
from repro.service import ServiceUnavailableError
from repro.service.client import ServiceClient
from repro.service.server import make_server


def parse_exposition(text):
    """Sample lines of an exposition payload as ``{name{labels}: value}``."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, value = line.rsplit(" ", 1)
        samples[name] = float(value)
    return samples


def _solves_total(samples):
    return sum(
        v for k, v in samples.items()
        if k.startswith("repro_solves_total")
    )


class _SlowLabels:
    """A metric family whose ``labels`` lookup takes a few milliseconds."""

    def __init__(self, family):
        self.family = family

    def labels(self, **labelvalues):
        time.sleep(0.005)
        return self.family.labels(**labelvalues)


class TestMetricsEndpoint:
    def test_valid_exposition_with_all_families(self, client):
        text = client.metrics()
        for family in (
            "repro_solve_requests_total",
            "repro_coalesced_total",
            "repro_cache_served_total",
            "repro_solve_errors_total",
            "repro_cache_ops_total",
            "repro_inflight_solves",
            "repro_solve_seconds",
            "repro_request_seconds",
            "repro_http_requests_total",
        ):
            assert f"# HELP {family} " in text
            assert f"# TYPE {family} " in text
        parse_exposition(text)                 # every sample line parses

    def test_solve_moves_the_counters(self, client, pipeline_request):
        before = parse_exposition(client.metrics())
        client.solve(pipeline_request)
        after = parse_exposition(client.metrics())
        assert after["repro_solve_requests_total"] == \
            before.get("repro_solve_requests_total", 0) + 1
        assert _solves_total(after) == _solves_total(before) + 1
        # the solve landed in exactly one (engine, status) labeled series
        series = [
            k for k, v in after.items()
            if k.startswith("repro_solves_total{") and v > 0
        ]
        assert len(series) == 1
        assert 'status="completed"' in series[0]

    def test_solve_latency_histogram_labeled_by_engine(
            self, client, pipeline_request):
        client.solve(pipeline_request)
        text = client.metrics()
        samples = parse_exposition(text)
        counts = [
            (k, v) for k, v in samples.items()
            if k.startswith("repro_solve_seconds_count{")
        ]
        assert len(counts) == 1
        name, value = counts[0]
        assert "engine=" in name and 'status="completed"' in name
        assert value == 1
        # cumulative buckets end at +Inf == _count
        inf = next(
            v for k, v in samples.items()
            if k.startswith("repro_solve_seconds_bucket")
            and 'le="+Inf"' in k
        )
        assert inf == 1

    def test_cache_hit_counts_as_served(self, client, pipeline_request):
        client.solve(pipeline_request)
        client.solve(pipeline_request)         # warm: served from cache
        samples = parse_exposition(client.metrics())
        assert samples["repro_cache_served_total"] == 1
        assert _solves_total(samples) == 1
        assert samples['repro_cache_ops_total{op="get",result="hit"}'] == 1
        assert samples['repro_cache_ops_total{op="get",result="miss"}'] == 1
        assert samples['repro_cache_ops_total{op="put",result="ok"}'] == 1

    def test_http_requests_labeled_by_endpoint(self, server, client,
                                               pipeline_request,
                                               monkeypatch):
        client.healthz()
        client.solve(pipeline_request)
        client.metrics()
        samples = parse_exposition(client.metrics())
        healthz = 'repro_http_requests_total{endpoint="/v1/healthz",code="200"}'
        solve = 'repro_http_requests_total{endpoint="/v1/solve",code="200"}'
        metrics = 'repro_http_requests_total{endpoint="/metrics",code="200"}'
        assert samples[healthz] == 1
        assert samples[solve] == 1
        assert samples[metrics] >= 1
        # request latency histogram covers the same endpoints
        assert 'repro_request_seconds_count{endpoint="/v1/solve"}' in samples
        # a request is counted before its reply goes out, so a scrape
        # sent right after any reply sees it (the scrape itself is not
        # yet counted in its own payload); slowing the recording down
        # turns a count taken after the reply into a certain miss
        monkeypatch.setattr(server.service, "_h_request",
                            _SlowLabels(server.service._h_request))
        healthz_seconds = 'repro_request_seconds_count{endpoint="/v1/healthz"}'
        for served in range(2, 52):
            client.healthz()
            samples = parse_exposition(client.metrics())
            assert samples[healthz] == served
            assert samples[healthz_seconds] == served
            assert samples[metrics] == served

    def test_unknown_paths_collapse_to_other(self, client):
        with pytest.raises(Exception):
            client._expect_ok("GET", "/v2/everything")
        samples = parse_exposition(client.metrics())
        assert samples['repro_http_requests_total{endpoint="other",code="404"}'] == 1

    def test_metrics_agree_with_stats(self, client, pipeline_request):
        client.solve(pipeline_request)
        client.solve(pipeline_request)
        stats = client.stats()
        samples = parse_exposition(client.metrics())
        svc = stats["service"]
        assert samples["repro_solve_requests_total"] == svc["requests"]
        assert _solves_total(samples) == svc["solves"]
        assert samples["repro_cache_served_total"] == svc["served_from_cache"]
        assert samples["repro_coalesced_total"] == svc["coalesced"]
        assert samples["repro_inflight_solves"] == svc["inflight"]

    def test_accounting_invariant_under_concurrent_load(self, client):
        # requests == served + coalesced + solves once drained: every
        # accepted solve request is accounted to exactly one outcome
        def request(n):
            return {
                "instance": {
                    "kind": "instance",
                    "application": {"kind": "pipeline",
                                    "works": [14, 4, 2, 4][:n]},
                    "platform": {"kind": "platform", "speeds": [1, 1]},
                    "allow_data_parallel": False,
                },
                "objective": "period",
            }

        threads = [
            threading.Thread(target=client.solve, args=(request(2 + i % 3),))
            for i in range(12)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        samples = parse_exposition(client.metrics())
        assert samples["repro_inflight_solves"] == 0
        assert samples["repro_solve_requests_total"] == 12
        outcomes = (
            samples["repro_cache_served_total"]
            + samples["repro_coalesced_total"]
            + _solves_total(samples)
        )
        assert outcomes == 12

    def test_client_metrics_requires_a_server(self):
        lonely = ServiceClient("http://127.0.0.1:9", timeout=0.2, retries=0)
        with pytest.raises(ServiceUnavailableError):
            lonely.metrics()


class TestServerTracing:
    def test_solve_spans_with_propagated_trace(self, tmp_path,
                                               pipeline_request):
        trace_path = tmp_path / "spans.jsonl"
        srv = make_server(
            port=0,
            cache=ResultCache(tmp_path / "cache"),
            trace_log=trace_path,
        )
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(srv.url, timeout=30.0)
            client.solve(pipeline_request, trace="feedface00000001")
            client.solve(pipeline_request, trace="feedface00000001")
        finally:
            srv.shutdown()
            srv.server_close()
            srv.service.close()
            thread.join(timeout=5)
        spans = read_spans(trace_path)
        names = [s["span"] for s in spans]
        # cold: miss + solve + put; warm: hit; plus one request span each
        assert names.count("request") == 2
        assert names.count("cache-get") == 2
        assert names.count("solve") == 1
        assert names.count("cache-put") == 1
        # the client-supplied id stamps every span (X-Repro-Trace)
        assert {s["trace"] for s in spans} == {"feedface00000001"}
        solve = next(s for s in spans if s["span"] == "solve")
        assert solve["engine"] and solve["status"] == "completed"

    def test_server_generates_ids_when_header_absent(self, tmp_path,
                                                     pipeline_request):
        trace_path = tmp_path / "spans.jsonl"
        srv = make_server(
            port=0,
            cache=ResultCache(tmp_path / "cache"),
            trace_log=trace_path,
        )
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            ServiceClient(srv.url, timeout=30.0).solve(pipeline_request)
        finally:
            srv.shutdown()
            srv.server_close()
            srv.service.close()
            thread.join(timeout=5)
        spans = read_spans(trace_path)
        assert spans
        trace_ids = {s["trace"] for s in spans}
        assert len(trace_ids) == 1
        assert next(iter(trace_ids))           # non-empty generated id
