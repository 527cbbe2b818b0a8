"""``campaign profile``: percentiles + aggregation of timing blocks."""

import json

import pytest

from repro.campaign import (
    CampaignSpec,
    ResultCache,
    collect_timings,
    percentile,
    profile_doc,
    profile_groups,
    profile_table,
    run_campaign,
)
from repro.campaign.profile import PROFILE_DOC_KIND, PROFILE_DOC_VERSION
from repro.core import ReproError

#: Cache keys are task content hashes: 64 lowercase hex digits.
KEY_A = "a" * 64
KEY_B = "b" * 64


def _timing(engine="bnb", seconds=0.1, n=4, p=2, **extra):
    doc = {
        "seconds": seconds, "engine": engine, "status": "completed",
        "objective": "period", "nodes": 10, "pruned": 5, "memo_hits": 1,
        "budget_reason": None, "graph": "pipeline", "n": n, "p": p,
    }
    doc.update(extra)
    return doc


class TestPercentile:
    def test_nearest_rank(self):
        values = [float(i) for i in range(1, 11)]
        assert percentile(values, 0.50) == 5.0
        assert percentile(values, 0.95) == 10.0
        assert percentile(values, 0.10) == 1.0

    def test_order_independent(self):
        assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0

    def test_single_value(self):
        assert percentile([7.0], 0.01) == 7.0
        assert percentile([7.0], 0.99) == 7.0

    def test_empty_raises(self):
        with pytest.raises(ReproError):
            percentile([], 0.5)


class TestCollectTimings:
    def test_from_rows_skips_blockless(self):
        rows = [
            {"status": "ok", "timing": _timing()},
            {"status": "crashed"},                 # quarantined: no block
            {"status": "ok", "timing": _timing(engine="brute-force")},
        ]
        timings = collect_timings(rows=rows)
        assert [t["engine"] for t in timings] == ["bnb", "brute-force"]

    def test_from_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY_A, {"status": "ok", "timing": _timing(seconds=0.2)})
        cache.put(KEY_B, {"status": "ok"})         # pre-timing payload
        timings = collect_timings(cache=cache)
        assert len(timings) == 1
        assert timings[0]["seconds"] == 0.2

    def test_cache_and_rows_combine(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY_A, {"timing": _timing()})
        timings = collect_timings(
            cache=cache, rows=[{"timing": _timing(engine="enumerate")}]
        )
        assert len(timings) == 2

    def test_nothing_given_is_empty(self):
        assert collect_timings() == []


class TestProfileGroups:
    def test_groups_by_engine_and_shape(self):
        timings = (
            [_timing(engine="bnb", n=4, seconds=s)
             for s in (0.1, 0.2, 0.3)]
            + [_timing(engine="bnb", n=5, seconds=0.4)]
            + [_timing(engine="brute-force", n=4, seconds=1.0)]
        )
        groups = profile_groups(timings)
        assert [(g["engine"], g["n"], g["p"]) for g in groups] == [
            ("bnb", 4, 2), ("bnb", 5, 2), ("brute-force", 4, 2),
        ]
        bnb4 = groups[0]
        assert bnb4["count"] == 3
        assert bnb4["p50"] == 0.2
        assert bnb4["p95"] == 0.3
        assert bnb4["seconds_total"] == pytest.approx(0.6)
        assert bnb4["nodes"] == 30 and bnb4["memo_hits"] == 3

    def test_missing_shape_uses_none(self):
        groups = profile_groups([_timing(engine=None, n=None, p=None)])
        assert groups[0]["engine"] == "-"
        assert groups[0]["n"] is None and groups[0]["p"] is None

    def test_none_effort_counters_sum_as_zero(self):
        groups = profile_groups(
            [_timing(nodes=None, pruned=None, memo_hits=None)]
        )
        assert groups[0]["nodes"] == 0
        assert groups[0]["pruned"] == 0
        assert groups[0]["memo_hits"] == 0


class TestProfileDoc:
    def test_shape_and_json_round_trip(self):
        doc = profile_doc([_timing(), _timing(engine="enumerate")])
        assert doc["kind"] == PROFILE_DOC_KIND
        assert doc["version"] == PROFILE_DOC_VERSION
        assert doc["samples"] == 2
        assert len(doc["groups"]) == 2
        assert json.loads(json.dumps(doc)) == doc


class TestProfileTable:
    def test_renders_groups(self):
        text = profile_table([_timing(seconds=0.25)])
        assert "solve profile" in text
        assert "bnb" in text
        assert "250.00" in text                    # p50 in ms

    def test_empty_is_empty_string(self):
        assert profile_table([]) == ""


def test_warm_cache_is_a_profiling_data_set(tmp_path):
    # the advertised workflow: run a campaign with a cache, then profile
    # the cache alone — no result rows needed
    spec = CampaignSpec(
        name="profiled",
        instances=(
            {"type": "random", "graph": "pipeline", "count": 2, "seed": 5,
             "n": 3, "p": 2},
        ),
        objectives=("period",),
        solvers=({"name": "exact", "mode": "auto"},),
    )
    cache = ResultCache(tmp_path)
    result = run_campaign(spec, cache=cache, workers=0)
    timings = collect_timings(cache=cache)
    assert len(timings) == result.stats["tasks"]
    doc = profile_doc(timings)
    assert doc["samples"] == len(timings)
    assert sum(g["count"] for g in doc["groups"]) == len(timings)
    assert profile_table(timings) != ""
