"""Contract tests for the result cache, run against both backends.

The parametrized ``cache`` fixture makes each contract test execute once
per backend (jsonl, http) — a local directory and a remote service must
behave the same.  The http backend runs against a live in-process solver
service (jsonl-backed), so "persists across instances" means "persists
server-side".  On-disk details (shard files, append-only duplicates,
the one-shot import of a retired sqlite cache, key validation) get their
own classes below.
"""

import json
import shutil
import sqlite3
import time
from pathlib import Path

import pytest

import repro.campaign.cache as cache_mod
from repro.campaign import CACHE_VERSION, CacheBackend, ResultCache
from repro.core import ReproError


KEY_A = "aa" + "0" * 62
KEY_B = "ab" + "0" * 62
#: Shards written by the previous JSONL writer (rows decoded in memory,
#: deep-copied per hit) plus the rows it served, in ``expected.json``.
LEGACY_SHARDS = Path(__file__).parent / "data" / "jsonl_v1"


@pytest.fixture(params=("http", "jsonl"))
def backend(request):
    return request.param


@pytest.fixture
def make_cache(request, tmp_path, backend):
    """Factory for :class:`ResultCache` instances over one shared store.

    The jsonl backend re-opens the same ``tmp_path`` directory; for the
    http backend every instance is a remote client of the test's one
    solver service (the ``server`` fixture).
    """

    def factory():
        if backend == "http":
            url = request.getfixturevalue("server").url
            return ResultCache(url=url, backend="http")
        return ResultCache(tmp_path)

    return factory


@pytest.fixture
def cache(make_cache):
    return make_cache()


class TestResultCacheContract:
    def test_miss_then_hit(self, cache):
        assert cache.get(KEY_A) is None
        cache.put(KEY_A, {"status": "ok", "value": 1.5})
        assert cache.get(KEY_A) == {"status": "ok", "value": 1.5}
        assert cache.stats == {"hits": 1, "misses": 1, "puts": 1}

    def test_persists_across_instances(self, make_cache):
        make_cache().put(KEY_A, {"value": 2.0})
        again = make_cache()
        assert again.get(KEY_A) == {"value": 2.0}
        assert KEY_A in again
        assert KEY_B not in again

    def test_last_put_wins(self, make_cache, cache):
        cache.put(KEY_A, {"value": 1})
        cache.put(KEY_A, {"value": 2})
        assert cache.get(KEY_A) == {"value": 2}
        assert make_cache().get(KEY_A) == {"value": 2}

    def test_len_and_keys(self, cache):
        cache.put(KEY_A, {"value": 1})
        cache.put(KEY_B, {"value": 2})
        cache.put(KEY_A, {"value": 3})  # overwrite, not a new key
        assert len(cache) == 2
        assert sorted(cache.keys()) == [KEY_A, KEY_B]

    def test_returned_rows_are_copies(self, cache):
        cache.put(KEY_A, {"value": 1})
        row = cache.get(KEY_A)
        row["value"] = 99
        assert cache.get(KEY_A) == {"value": 1}

    def test_hits_never_alias_nested_state(self, cache):
        # regression: `get` used to return a *shallow* copy, so callers
        # shared the nested "mapping" dict with the in-memory shard —
        # mutating one hit poisoned every later hit for the same key
        cache.put(KEY_A, {"status": "ok",
                          "mapping": {"groups": [{"stages": [0, 1]}]}})
        first = cache.get(KEY_A)
        first["mapping"]["groups"][0]["stages"].append(99)
        first["mapping"]["poisoned"] = True
        second = cache.get(KEY_A)
        assert second == {"status": "ok",
                          "mapping": {"groups": [{"stages": [0, 1]}]}}

    def test_put_does_not_alias_callers_dict(self, cache):
        row = {"status": "ok", "mapping": {"groups": [1, 2]}}
        cache.put(KEY_A, row)
        row["mapping"]["groups"].append(3)
        assert cache.get(KEY_A)["mapping"]["groups"] == [1, 2]

    def test_storage_stats_shape(self, cache, backend):
        cache.put(KEY_A, {"value": 1})
        cache.put(KEY_B, {"value": 2})
        info = cache.storage_stats()
        assert info["backend"] == backend
        assert info["keys"] == 2
        assert info["files"] >= 1
        assert info["bytes"] > 0
        assert info["stale_records"] == 0

    def test_counters_reported_in_storage_stats(self, cache):
        # the hit/miss/put counters must surface identically through
        # storage_stats() on every backend (and through /v1/stats for a
        # service — covered in tests/service/)
        assert cache.get(KEY_A) is None
        cache.put(KEY_A, {"value": 1})
        assert cache.get(KEY_A) == {"value": 1}
        info = cache.storage_stats()
        assert info["counters"] == {"hits": 1, "misses": 1, "puts": 1}
        assert info["counters"] == cache.stats

    def test_compact_preserves_every_row(self, make_cache, cache, backend):
        cache.put(KEY_A, {"value": 1})
        cache.put(KEY_A, {"value": 2})
        cache.put(KEY_B, {"value": 9})
        info = cache.compact()
        assert info["backend"] == backend
        assert info["bytes_reclaimed"] >= 0
        assert info["records_evicted"] == 0
        assert cache.get(KEY_A) == {"value": 2}
        assert cache.get(KEY_B) == {"value": 9}
        reloaded = make_cache()
        assert reloaded.get(KEY_A) == {"value": 2}
        assert len(reloaded) == 2

    def test_compact_max_age_zero_evicts_everything(self, cache):
        # max_age_days=0 puts the horizon at "now"; every record was
        # written strictly before, so the policy empties the store
        cache.put(KEY_A, {"value": 1})
        cache.put(KEY_B, {"value": 2})
        info = cache.compact(max_age_days=0)
        assert info["records_evicted"] == 2
        assert cache.get(KEY_A) is None
        assert cache.get(KEY_B) is None
        assert len(cache) == 0

    def test_compact_max_bytes_keeps_newest(self, cache):
        pad = "x" * 512
        cache.put(KEY_A, {"value": 1, "pad": pad})
        time.sleep(0.02)  # distinct write timestamps
        cache.put(KEY_B, {"value": 2, "pad": pad})
        # budget fits one ~600-byte record on every backend: the older
        # KEY_A goes, the newer KEY_B survives
        info = cache.compact(max_bytes=800)
        assert info["records_evicted"] == 1
        assert cache.get(KEY_A) is None
        assert cache.get(KEY_B) == {"value": 2, "pad": pad}

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(ReproError):
            ResultCache(tmp_path, backend="cloud")
        with pytest.raises(ReproError, match="unknown cache backend"):
            ResultCache(tmp_path, backend="sqlite")  # retired

    def test_http_backend_needs_url(self, tmp_path):
        with pytest.raises(ReproError):
            ResultCache(tmp_path, backend="http")

    def test_url_rejected_for_local_backends(self, tmp_path):
        with pytest.raises(ReproError):
            ResultCache(tmp_path, backend="jsonl", url="http://x")

    def test_local_backend_needs_root(self):
        with pytest.raises(ReproError, match="root directory"):
            ResultCache()


class TestJsonlBackend:
    def test_sharding_by_key_prefix(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY_A, {"value": 1})
        cache.put(KEY_B, {"value": 2})
        assert (tmp_path / "aa.jsonl").exists()
        assert (tmp_path / "ab.jsonl").exists()
        assert len(cache) == 2

    def test_corrupt_lines_degrade_to_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY_A, {"value": 1})
        shard = tmp_path / "aa.jsonl"
        shard.write_text(
            "not json at all\n"
            + json.dumps({"version": CACHE_VERSION - 1, "key": KEY_A,
                          "row": {"value": "stale"}}) + "\n"
            + json.dumps({"wrong": "shape"}) + "\n"
        )
        assert ResultCache(tmp_path).get(KEY_A) is None

    def test_compact_drops_superseded_duplicate_lines(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY_A, {"value": 0, "mapping": {"big": "x" * 200}})
        for i in range(20):  # 20 superseded re-puts of the same key
            cache.put(KEY_A, {"value": i + 1, "mapping": {"big": "x" * 200}})
        shard = tmp_path / "aa.jsonl"
        before = shard.stat().st_size
        assert cache.storage_stats()["stale_records"] == 20
        info = cache.compact()
        assert info["records_dropped"] == 20
        assert info["bytes_reclaimed"] > 0
        assert shard.stat().st_size < before
        assert sum(1 for line in shard.open() if line.strip()) == 1
        assert ResultCache(tmp_path).get(KEY_A)["value"] == 20
        # a second compact is a no-op
        assert cache.compact()["records_dropped"] == 0

    def test_torn_trailing_line_is_counted_and_repaired(self, tmp_path):
        # simulate a crash mid-append: the shard ends in half a record
        cache = ResultCache(tmp_path)
        cache.put(KEY_A, {"value": 1})
        cache.put(KEY_B, {"value": 2})
        shard = tmp_path / "aa.jsonl"
        whole = shard.read_text()
        line = json.dumps({"version": CACHE_VERSION, "key": KEY_A,
                           "row": {"value": 99}})
        shard.write_text(whole + line[: len(line) // 2])  # torn append
        fresh = ResultCache(tmp_path)
        # the torn write is lost (its key keeps the previous value)...
        assert fresh.get(KEY_A) == {"value": 1}
        assert fresh.get(KEY_B) == {"value": 2}
        stats = fresh.storage_stats()
        assert stats["corrupt_lines"] == 1
        assert stats["stale_records"] == 0
        # ...and compact repairs the shard in place
        info = fresh.compact()
        assert info["corrupt_dropped"] == 1
        assert info["records_dropped"] == 0
        repaired = ResultCache(tmp_path)
        assert repaired.get(KEY_A) == {"value": 1}
        assert repaired.storage_stats()["corrupt_lines"] == 0

    def test_compact_drops_corrupt_and_stale_version_lines(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY_A, {"value": 1})
        shard = tmp_path / "aa.jsonl"
        with shard.open("a") as fh:
            fh.write("garbage line\n")
            fh.write(json.dumps({"version": CACHE_VERSION + 1,
                                 "key": KEY_B, "row": {}}) + "\n")
        fresh = ResultCache(tmp_path)
        stats = fresh.storage_stats()
        assert stats["stale_records"] == 1  # the version-mismatched record
        assert stats["corrupt_lines"] == 1  # the unparseable garbage line
        info = fresh.compact()
        assert info["records_dropped"] == 1
        assert info["corrupt_dropped"] == 1
        assert ResultCache(tmp_path).get(KEY_A) == {"value": 1}


class TestJsonlShardIndex:
    """The shard index reads key and stamp from a record's fixed layout
    and decodes the row only when a hit returns it."""

    def _lines(self, shard):
        return [line for line in shard.read_text().split("\n") if line]

    def _store_lines(self, store):
        return {line for path in store.glob("*.jsonl")
                for line in self._lines(path)}

    def test_row_strings_containing_the_ts_marker(self, tmp_path):
        row = {"note": 'a,"ts":1} b', "keys": {',"ts":': ',"ts":2}'},
               "nested": {"ts": 3}}
        ResultCache(tmp_path).put(KEY_A, row)
        fresh = ResultCache(tmp_path)
        assert fresh.get(KEY_A) == row
        assert fresh.storage_stats()["corrupt_lines"] == 0

    def test_hand_formatted_line_takes_the_fallback_path(self, tmp_path):
        (tmp_path / "aa.jsonl").write_text(json.dumps(
            {"key": KEY_A, "version": CACHE_VERSION, "row": {"value": 7},
             "ts": 12.5}, indent=None, separators=(", ", ": ")
        ) + "\n")
        cache = ResultCache(tmp_path)
        assert cache.get(KEY_A) == {"value": 7}
        stats = cache.storage_stats()
        assert (stats["keys"], stats["stale_records"],
                stats["corrupt_lines"]) == (1, 0, 0)

    def test_torn_trailing_line_is_a_counted_miss(self, tmp_path):
        line = json.dumps({"version": CACHE_VERSION, "key": KEY_A,
                           "row": {"value": 1}, "ts": 1.0},
                          separators=(",", ":"))
        (tmp_path / "aa.jsonl").write_text(line[:-9])
        cache = ResultCache(tmp_path)
        assert cache.get(KEY_A) is None
        assert cache.storage_stats()["corrupt_lines"] == 1

    def test_append_after_torn_tail_starts_a_fresh_line(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY_A, {"value": 1})
        shard = tmp_path / "aa.jsonl"
        torn = self._lines(shard)[0]
        shard.write_text(shard.read_text() + torn[:40])  # no newline
        other = "aa" + "1" * 62
        ResultCache(tmp_path).put(other, {"value": 2})
        fresh = ResultCache(tmp_path)
        assert fresh.get(KEY_A) == {"value": 1}
        assert fresh.get(other) == {"value": 2}
        assert fresh.storage_stats()["corrupt_lines"] == 1

    def test_version_mismatched_record_is_skipped(self, tmp_path):
        ResultCache(tmp_path).put(KEY_A, {"value": 1})
        shard = tmp_path / "aa.jsonl"
        line = self._lines(shard)[0]
        stale = line.replace('"version":%d' % CACHE_VERSION,
                             '"version":%d' % (CACHE_VERSION + 1), 1)
        shard.write_text(line + "\n" + stale.replace('"value":1',
                                                     '"value":2') + "\n")
        cache = ResultCache(tmp_path)
        assert cache.get(KEY_A) == {"value": 1}  # the stale re-put is not
        stats = cache.storage_stats()
        assert (stats["stale_records"], stats["corrupt_lines"]) == (1, 0)

    def test_row_that_fails_to_decode_is_a_corrupt_miss(self, tmp_path):
        # the head and tail match the writer's layout, the row does not
        # parse: indexed on load, a miss (counted once) on get
        (tmp_path / "aa.jsonl").write_text(
            '{"version":%d,"key":"%s","row":{"value":1,"ts":2}'
            % (CACHE_VERSION, KEY_A) + "\n"
        )
        cache = ResultCache(tmp_path)
        assert cache.get(KEY_A) is None
        assert cache.get(KEY_A) is None
        stats = cache.storage_stats()
        assert (stats["keys"], stats["corrupt_lines"],
                stats["stale_records"]) == (0, 1, 0)
        assert cache.compact()["corrupt_dropped"] == 1
        assert (tmp_path / "aa.jsonl").read_text() == ""

    def test_compact_keeps_records_byte_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY_A, {"value": 1})
        cache.put(KEY_A, {"value": 2, "pad": "x" * 50})
        cache.put(KEY_B, {"value": 3})
        shard = tmp_path / "aa.jsonl"
        kept = self._lines(shard)[-1]
        hand = json.dumps({"version": CACHE_VERSION, "key": "aa" + "2" * 62,
                           "row": {"value": 4}})  # default, spaced layout
        shard.write_text(shard.read_text() + hand + "\n")
        before_b = (tmp_path / "ab.jsonl").read_text()
        info = ResultCache(tmp_path).compact()
        assert info["records_dropped"] == 1
        assert self._lines(shard) == [kept, hand]
        assert (tmp_path / "ab.jsonl").read_text() == before_b

    def test_max_bytes_budget_is_exact_line_sizes(self, tmp_path,
                                                  monkeypatch):
        clock = iter(range(100, 200))
        monkeypatch.setattr(cache_mod, "_now", lambda: float(next(clock)))
        cache = ResultCache(tmp_path)
        for i in range(4):
            cache.put(f"a{i}" + "0" * 62, {"value": i})
        sizes = sorted(path.stat().st_size
                       for path in tmp_path.glob("*.jsonl"))
        budget = sum(sizes[-2:])  # lines are equal-sized: two fit exactly
        info = cache.compact(max_bytes=budget)
        assert info["records_evicted"] == 2
        assert info["bytes_after"] == budget
        assert sorted(cache.keys()) == ["a2" + "0" * 62, "a3" + "0" * 62]

    def test_legacy_shards_read_back_to_the_same_rows(self, tmp_path):
        store = tmp_path / "store"
        shutil.copytree(LEGACY_SHARDS, store)
        expected = json.loads((store / "expected.json").read_text())
        cache = ResultCache(store)
        assert {key: cache.get(key) for key in expected} == expected
        stats = cache.storage_stats()
        assert stats["keys"] == len(expected)
        assert (stats["stale_records"], stats["corrupt_lines"]) == (1, 0)
        # compact drops the superseded line, keeps every other verbatim
        before = self._store_lines(store)
        cache.compact()
        after = self._store_lines(store)
        assert after < before and len(before - after) == 1
        again = ResultCache(store)
        assert {key: again.get(key) for key in expected} == expected

    def test_mutations_never_reach_later_hits(self, tmp_path):
        row = {"mapping": {"groups": [{"stages": [0]}]}, "tags": ["a"]}
        cache = ResultCache(tmp_path)
        cache.put(KEY_A, row)
        row["mapping"]["groups"][0]["stages"].append(1)
        row["tags"].clear()
        hit = cache.get(KEY_A)
        assert hit == {"mapping": {"groups": [{"stages": [0]}]},
                       "tags": ["a"]}
        hit["mapping"]["groups"].append("poison")
        hit["tags"].append("poison")
        again = cache.get(KEY_A)
        assert again == {"mapping": {"groups": [{"stages": [0]}]},
                         "tags": ["a"]}
        assert again is not hit
        assert again["mapping"] is not hit["mapping"]


class TestEvictionPolicies:
    """Pinned-clock eviction behaviour (the http backend's server runs
    in-process, so the pinned clock stamps its records too)."""

    def test_age_horizon_is_precise(self, make_cache, monkeypatch):
        day = 86400.0
        t0 = 1_000_000_000.0
        monkeypatch.setattr(cache_mod, "_now", lambda: t0)
        cache = make_cache()
        cache.put(KEY_A, {"value": "old"})
        monkeypatch.setattr(cache_mod, "_now", lambda: t0 + 10 * day)
        cache.put(KEY_B, {"value": "new"})
        info = cache.compact(max_age_days=5)
        assert info["records_evicted"] == 1
        assert cache.get(KEY_A) is None
        assert cache.get(KEY_B) == {"value": "new"}
        # stamps survive the rewrite: a reload under a wider horizon
        # keeps the young record
        cache.close()
        reloaded = make_cache()
        assert reloaded.compact(max_age_days=20)["records_evicted"] == 0
        assert reloaded.get(KEY_B) == {"value": "new"}
        reloaded.close()

    def test_max_bytes_noop_when_under_budget(self, cache):
        cache.put(KEY_A, {"value": 1})
        info = cache.compact(max_bytes=10_000_000)
        assert info["records_evicted"] == 0
        assert cache.get(KEY_A) == {"value": 1}
        cache.close()

    def test_pre_timestamp_jsonl_records_evicted_first(self, tmp_path):
        # a shard written before record timestamps existed: its records
        # read as age 0.0 and fall to any age policy
        shard = tmp_path / "aa.jsonl"
        shard.write_text(json.dumps({
            "version": CACHE_VERSION, "key": KEY_A,
            "row": {"value": "ancient"},
        }) + "\n")
        cache = ResultCache(tmp_path)
        cache.put(KEY_B, {"value": "fresh"})
        # one-year horizon: far older than the fresh record, far younger
        # than the epoch the stamp-less record is pinned to
        info = cache.compact(max_age_days=365)
        assert info["records_evicted"] == 1
        assert cache.get(KEY_A) is None
        assert cache.get(KEY_B) == {"value": "fresh"}


class TestSqliteImport:
    """A ``cache.sqlite`` of the retired sqlite backend is imported into
    the jsonl shards once, on first open."""

    KEY_C = "ac" + "0" * 62
    KEY_D = "ad" + "0" * 62

    def _write_db(self, root, with_ts):
        db = sqlite3.connect(root / "cache.sqlite")
        db.execute(
            "CREATE TABLE rows (key TEXT PRIMARY KEY,"
            " version INTEGER NOT NULL, row TEXT NOT NULL"
            + (", ts REAL NOT NULL DEFAULT 0)" if with_ts else ")")
        )
        rows = [
            (KEY_A, CACHE_VERSION, '{"value":1,"mapping":{"groups":[[0]]}}',
             1000.0),
            (KEY_B, CACHE_VERSION, '{"value":2.5}', 2000.0),
            (self.KEY_C, CACHE_VERSION + 1, '{"value":"future"}', 3000.0),
            (self.KEY_D, CACHE_VERSION, "not json", 4000.0),
            ("/tkey", CACHE_VERSION, '{"value":"escape"}', 5000.0),
        ]
        if with_ts:
            db.executemany("INSERT INTO rows VALUES (?, ?, ?, ?)", rows)
        else:
            db.executemany("INSERT INTO rows VALUES (?, ?, ?)",
                           [r[:3] for r in rows])
        db.commit()
        db.close()

    def _stamps(self, root):
        return {record["key"]: record["ts"]
                for path in root.glob("*.jsonl")
                for record in map(json.loads, path.read_text().splitlines())}

    @pytest.mark.parametrize("with_ts", [True, False],
                             ids=["with-ts", "before-ts"])
    def test_rows_and_stamps_imported_once(self, tmp_path, with_ts):
        store = tmp_path / "store"
        store.mkdir()
        self._write_db(store, with_ts)
        cache = ResultCache(store)
        assert cache.get(KEY_A) == {"value": 1,
                                    "mapping": {"groups": [[0]]}}
        assert cache.get(KEY_B) == {"value": 2.5}
        # stale-version, undecodable and malformed-key rows stay behind
        assert cache.get(self.KEY_C) is None
        assert cache.get(self.KEY_D) is None
        assert sorted(cache.keys()) == [KEY_A, KEY_B]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["store"]
        assert self._stamps(store) == (
            {KEY_A: 1000.0, KEY_B: 2000.0} if with_ts
            else {KEY_A: 0.0, KEY_B: 0.0}
        )
        assert not (store / "cache.sqlite").exists()
        assert (store / "cache.sqlite.migrated").exists()
        shards = {p.name: p.read_bytes() for p in store.glob("*.jsonl")}
        again = ResultCache(store)
        assert {p.name: p.read_bytes()
                for p in store.glob("*.jsonl")} == shards
        assert again.get(KEY_B) == {"value": 2.5}
        assert again.storage_stats()["stale_records"] == 0

    def test_imported_stamps_drive_age_eviction(self, tmp_path,
                                                monkeypatch):
        self._write_db(tmp_path, with_ts=True)
        monkeypatch.setattr(cache_mod, "_now", lambda: 1500.0)
        cache = ResultCache(tmp_path)
        # the horizon (1500 s - 0.001 day = 1413.6 s) falls between the
        # two imported stamps
        assert cache.compact(max_age_days=0.001)["records_evicted"] == 1
        assert cache.get(KEY_A) is None
        assert cache.get(KEY_B) == {"value": 2.5}

    def test_newer_shard_records_win(self, tmp_path, monkeypatch):
        # a directory used with both backends: per key, the record with
        # the later stamp survives the import
        monkeypatch.setattr(cache_mod, "_now", lambda: 1500.0)
        shards = ResultCache(tmp_path)
        shards.put(KEY_A, {"value": "jsonl, newer"})   # sqlite: 1000.0
        shards.put(KEY_B, {"value": "jsonl, older"})   # sqlite: 2000.0
        self._write_db(tmp_path, with_ts=True)
        cache = ResultCache(tmp_path)
        assert cache.get(KEY_A) == {"value": "jsonl, newer"}
        assert cache.get(KEY_B) == {"value": 2.5}
        assert self._stamps(tmp_path) == {KEY_A: 1500.0, KEY_B: 2000.0}

    def test_unreadable_database_is_a_repro_error(self, tmp_path):
        (tmp_path / "cache.sqlite").write_text("not a database")
        with pytest.raises(ReproError, match="cannot import"):
            ResultCache(tmp_path)


class TestKeyValidation:
    BAD_KEYS = ("/tkey", "a", "AB" * 32, "ab" * 32 + "\n", "ab" * 33,
                "../" + "a" * 61, None)

    class Recording(CacheBackend):
        name = "recording"

        def __init__(self):
            self.calls = []

        def load(self, key):
            self.calls.append(("load", key))

        def store(self, key, row):
            self.calls.append(("store", key))

    @pytest.mark.parametrize("key", BAD_KEYS)
    def test_rejected_before_any_backend_call(self, key):
        backend = self.Recording()
        cache = ResultCache(backend=backend)
        with pytest.raises(ReproError, match="malformed cache key"):
            cache.put(key, {"value": 1})
        with pytest.raises(ReproError, match="malformed cache key"):
            cache.get(key)
        with pytest.raises(ReproError, match="malformed cache key"):
            key in cache
        assert backend.calls == []
        assert cache.stats == {"hits": 0, "misses": 0, "puts": 0}
        cache.put(KEY_A, {"value": 1})  # a content hash goes through
        assert backend.calls == [("store", KEY_A)]

    def test_malformed_keys_on_disk_are_skipped(self, tmp_path):
        # a hand-written record whose key is not a content hash is never
        # listed, so keys() cannot hand get() a key it would reject
        (tmp_path / "aa.jsonl").write_text(json.dumps(
            {"version": CACHE_VERSION, "key": "aa/../x", "row": {}}
        ) + "\n")
        cache = ResultCache(tmp_path)
        assert cache.keys() == []
        assert cache.storage_stats()["stale_records"] == 1
