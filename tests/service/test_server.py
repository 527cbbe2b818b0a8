"""Endpoint behaviour of the solver service (transport + semantics)."""

import pytest

from repro.campaign.runner import solve_task, strip_volatile
from repro.service import ServiceError, ServiceUnavailableError
from repro.service.client import ServiceClient
from repro.service.server import make_server, task_from_doc

from repro.core import ReproError


KEY_FAKE = "ab" + "0" * 62


class TestHealthAndStats:
    def test_healthz(self, client):
        doc = client.healthz()
        assert doc["status"] == "ok"
        assert doc["version"] == 1

    def test_wait_ready(self, client):
        assert client.wait_ready(timeout=5)["status"] == "ok"

    def test_wait_ready_times_out_without_server(self):
        lonely = ServiceClient("http://127.0.0.1:9", timeout=0.2, retries=0)
        with pytest.raises(ServiceUnavailableError):
            lonely.wait_ready(timeout=0.5)

    def test_stats_shape(self, client, pipeline_request):
        client.solve(pipeline_request)
        stats = client.stats()
        assert stats["service"]["requests"] == 1
        assert stats["service"]["solves"] == 1
        assert stats["service"]["coalesced"] == 0
        assert stats["service"]["inflight"] == 0
        # /v1/stats reports the server-side cache counters in the same
        # shape ResultCache.storage_stats() uses — one miss (the solve
        # lookup), one put (the solved row)
        assert stats["cache"]["counters"] == {
            "hits": 0, "misses": 1, "puts": 1,
        }
        storage = stats["cache"]["storage"]
        assert storage["backend"] == "jsonl"
        assert storage["keys"] == 1
        assert storage["counters"] == stats["cache"]["counters"]

    def test_make_server_takes_a_dir_or_a_url(self, tmp_path):
        # a cache directory means jsonl, a URL means an upstream service
        with pytest.raises(ReproError, match="not both"):
            make_server(port=0, cache_dir=str(tmp_path),
                        cache_url="http://127.0.0.1:1")
        with pytest.raises(ReproError, match="needs a cache"):
            make_server(port=0)


class TestSolveEndpoint:
    def test_solve_then_cached(self, client, pipeline_request):
        first = client.solve(pipeline_request)
        assert first["cached"] is False
        assert first["row"]["status"] == "ok"
        assert first["row"]["period"] == 8.0
        second = client.solve(pipeline_request)
        assert second["cached"] is True
        assert second["row"] == first["row"]

    def test_row_matches_in_process_solve(self, client, pipeline_request):
        response = client.solve(pipeline_request)
        payload, _seconds = solve_task(task_from_doc(pipeline_request))
        # the volatile timing block differs (wall seconds); all solve
        # content must match bit-identically
        assert strip_volatile(response["row"]) == strip_volatile(payload)
        assert response["key"] == task_from_doc(pipeline_request).key

    def test_deterministic_error_row_is_cached(self, client):
        # NP-hard cell without exact_fallback: a ReproError verdict, so
        # the error row itself is cacheable data
        request = {
            "instance": {
                "kind": "instance",
                "application": {"kind": "pipeline", "works": [9, 2, 7]},
                "platform": {"kind": "platform", "speeds": [3, 1]},
                "allow_data_parallel": False,
            },
            "objective": "period",
        }
        first = client.solve(request)
        assert first["row"]["status"] == "error"
        assert first["row"]["error_type"] == "NPHardError"
        second = client.solve(request)
        assert second["cached"] is True
        assert second["row"] == first["row"]

    def test_bad_request_rejected(self, client):
        with pytest.raises(ServiceError) as err:
            client.solve({"instance": {"kind": "platform"}})
        assert err.value.status == 400

    def test_unknown_fields_rejected(self, client, pipeline_request):
        with pytest.raises(ServiceError) as err:
            client.solve({**pipeline_request, "objektive": "period"})
        assert err.value.status == 400

    def test_unknown_path_is_404(self, client):
        with pytest.raises(ServiceError) as err:
            client._expect_ok("GET", "/v2/everything")
        assert err.value.status == 404


class TestCacheEndpoints:
    def test_put_get_roundtrip(self, client):
        assert client.cache_get(KEY_FAKE) is None
        client.cache_put(KEY_FAKE, {"status": "ok", "value": 2.5})
        assert client.cache_get(KEY_FAKE) == {"status": "ok", "value": 2.5}
        assert KEY_FAKE in client.keys()

    def test_solve_key_readable_through_cache_api(self, client,
                                                  pipeline_request):
        response = client.solve(pipeline_request)
        assert client.cache_get(response["key"]) == response["row"]

    def test_empty_put_rejected(self, client):
        # an accepted empty body would be stored as a live {} row and
        # served to every later reader as a bogus hit
        with pytest.raises(ServiceError) as err:
            client.cache_put(KEY_FAKE, {})
        assert err.value.status == 400
        assert client.cache_get(KEY_FAKE) is None

    def test_bodyless_raw_put_rejected(self, server):
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            f"{server.url}/v1/cache/{KEY_FAKE}", method="PUT"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400

    @pytest.mark.parametrize("path", ["/v1/cache//tkey", "/v1/cache/zz",
                                      "/v1/cache/" + "AB" * 32])
    def test_malformed_key_put_is_400(self, server, client, path):
        import urllib.error
        import urllib.request

        client.cache_put(KEY_FAKE, {"value": 1})
        before = sorted(client.keys())
        request = urllib.request.Request(
            f"{server.url}{path}", data=b'{"value": 2}', method="PUT",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400
        assert b"malformed cache key" in err.value.read()
        assert sorted(client.keys()) == before == [KEY_FAKE]

    def test_malformed_key_get_is_400(self, client):
        with pytest.raises(ServiceError) as err:
            client._expect_ok("GET", "/v1/cache//tkey")
        assert err.value.status == 400

    def test_compact_over_http(self, client):
        client.cache_put(KEY_FAKE, {"value": 1})
        info = client.compact()
        assert info["records_dropped"] == 0
        assert info["records_evicted"] == 0
        info = client.compact(max_age_days=0)
        assert info["records_evicted"] == 1
        assert client.cache_get(KEY_FAKE) is None


class TestTaskFromDoc:
    def test_key_matches_campaign_task(self, pipeline_request):
        from repro.campaign.spec import CampaignSpec

        spec = CampaignSpec(
            name="x",
            instances=(
                {"type": "explicit",
                 "application": pipeline_request["instance"]["application"],
                 "platform": pipeline_request["instance"]["platform"]},
            ),
            objectives=("period",),
            solvers=({"name": "service"},),
        )
        [campaign_task] = spec.tasks()
        assert task_from_doc(pipeline_request).key == campaign_task.key

    def test_rejects_non_instance(self):
        with pytest.raises(ReproError):
            task_from_doc({"instance": {"kind": "pipeline", "works": [1]}})

    def test_rejects_bad_objective(self, pipeline_request):
        with pytest.raises(ReproError):
            task_from_doc({**pipeline_request, "objective": "speed"})

    def test_rejects_bad_bound(self, pipeline_request):
        with pytest.raises(ReproError):
            task_from_doc({**pipeline_request, "period_bound": "soon"})

    def test_rejects_unknown_solver_fields(self, pipeline_request):
        with pytest.raises(ReproError):
            task_from_doc({**pipeline_request,
                           "solver": {"mode": "auto", "turbo": True}})


class TestSubmitCommand:
    def test_submit_roundtrip(self, server):
        import io

        from repro.cli import main

        out = io.StringIO()
        code = main([
            "submit", "--url", server.url, "--graph", "pipeline",
            "--works", "14,4,2,4", "--speeds", "1,1,1",
            "--objective", "period",
        ], out=out)
        assert code == 0
        text = out.getvalue()
        assert "period=8.0" in text
        assert "(solved)" in text
        # a second submit of the same instance is a cache hit
        out = io.StringIO()
        code = main([
            "submit", "--url", server.url, "--graph", "pipeline",
            "--works", "14,4,2,4", "--speeds", "1,1,1",
            "--objective", "period",
        ], out=out)
        assert code == 0
        assert "(cache hit)" in out.getvalue()

    def test_submit_np_hard_error_row(self, server):
        import io

        from repro.cli import main

        out = io.StringIO()
        code = main([
            "submit", "--url", server.url, "--graph", "pipeline",
            "--works", "9,2,7", "--speeds", "3,1", "--objective", "period",
        ], out=out)
        assert code == 2
        assert "NPHardError" in out.getvalue()
