"""Tests for the campaign runner: determinism, caching, isolation."""

from collections import Counter

import pytest

from repro.campaign import (
    CampaignSpec,
    ResultCache,
    load_rows,
    run_campaign,
    save_rows,
    strip_volatile,
)
from repro.core import ReproError


def grid_spec(**overrides):
    fields = dict(
        name="grid",
        instances=(
            {"type": "random", "graph": "pipeline", "count": 4, "seed": 3,
             "n": [3, 5], "p": [3, 4]},
            {"type": "random", "graph": "fork", "count": 3, "seed": 4,
             "n": [2, 4], "p": 3},
        ),
        objectives=("period", "latency"),
        solvers=(
            {"name": "exact", "mode": "auto", "exact_fallback": True},
            {"name": "random", "mode": "random", "seed": 5, "samples": 8},
        ),
    )
    fields.update(overrides)
    return CampaignSpec(**fields)


POISON = {
    "type": "explicit",
    "id": "poisoned",
    "application": {"kind": "pipeline", "works": [-1.0, 2.0]},
    "platform": {"kind": "platform", "speeds": [1.0]},
}


#: The NP-hard cell through the process fan-out: exact het-pipeline
#: periods on bnb, next to the polynomial Theorem 6 latency cell.
HET_BNB = dict(
    name="het-bnb",
    instances=(
        {"type": "random", "graph": "pipeline", "count": 6, "seed": 2007,
         "n": [6, 7], "p": [5, 6], "work_high": 9, "speed_high": 6},
    ),
    solvers=({"name": "exact", "mode": "auto", "exact_fallback": True,
              "engine": "bnb"},),
)


class TestDeterminism:
    @pytest.mark.parametrize("overrides, algorithms", [
        ({}, {"bnb": 10, "random-portfolio": 14,
              "thm6-fastest-processor": 4}),
        (HET_BNB, {"bnb": 6, "thm6-fastest-processor": 6}),
    ], ids=["grid", "het-bnb"])
    def test_serial_and_parallel_rows_identical(self, tmp_path, overrides,
                                                algorithms):
        spec = grid_spec(**overrides)
        serial = run_campaign(spec, workers=0)
        rows = [strip_volatile(r) for r in serial.rows]
        cache = ResultCache(tmp_path)
        parallel = run_campaign(spec, cache=cache, workers=2, chunk_size=3)
        assert [strip_volatile(r) for r in parallel.rows] == rows
        assert serial.stats["errors"] == 0
        # a warm re-run of the fan-out is served entirely by its cache
        warm = run_campaign(spec, cache=cache, workers=2, chunk_size=3)
        assert warm.stats["cache_hits"] == warm.stats["tasks"]
        assert [strip_volatile(r) for r in warm.rows] == rows
        assert Counter(r["algorithm"] for r in serial.rows) == algorithms

    def test_rows_come_back_in_task_order(self):
        result = run_campaign(grid_spec(), workers=2, chunk_size=1)
        assert [r["index"] for r in result.rows] == \
            list(range(result.stats["tasks"]))


class TestStreaming:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_progress_reported_incrementally(self, workers):
        spec = grid_spec(objectives=("period",),
                         solvers=({"name": "exact", "mode": "auto",
                                   "exact_fallback": True},))
        calls = []
        run_campaign(spec, workers=workers, chunk_size=1,
                     progress=lambda done, total: calls.append((done, total)))
        total = len(spec.tasks())
        assert len(calls) == total  # one callback per task-sized chunk
        assert [c[0] for c in calls] == sorted(c[0] for c in calls)
        assert calls[-1] == (total, total)

    def test_cache_written_as_chunks_complete(self, tmp_path):
        # every put must land before the run returns AND incrementally:
        # observe the cache growing from inside the progress callback
        spec = grid_spec(objectives=("period",),
                         solvers=({"name": "exact", "mode": "auto",
                                   "exact_fallback": True},))
        cache = ResultCache(tmp_path)
        puts_seen = []
        run_campaign(spec, cache=cache, workers=0, chunk_size=1,
                     progress=lambda done, total: puts_seen.append(cache.puts))
        assert puts_seen == sorted(puts_seen)
        assert puts_seen[0] >= 1  # first chunk was cached before the last ran
        assert cache.puts == len(spec.tasks())


class TestCache:
    def test_second_run_fully_cached(self, tmp_path):
        spec = grid_spec()
        cache = ResultCache(tmp_path)
        first = run_campaign(spec, cache=cache, workers=0)
        assert first.stats["cache_hits"] == 0
        second = run_campaign(spec, cache=cache, workers=0)
        assert second.stats["cache_hits"] == second.stats["tasks"]
        assert [strip_volatile(r) for r in first.rows] == \
            [strip_volatile(r) for r in second.rows]

    def test_cache_shared_between_serial_and_parallel(self, tmp_path):
        spec = grid_spec()
        cache = ResultCache(tmp_path)
        run_campaign(spec, cache=cache, workers=0)
        parallel = run_campaign(spec, cache=cache, workers=2)
        assert parallel.stats["cache_hits"] == parallel.stats["tasks"]

    def test_solver_knob_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        base = grid_spec(solvers=({"name": "r", "mode": "random",
                                   "seed": 5},))
        run_campaign(base, cache=cache, workers=0)
        reseeded = grid_spec(solvers=({"name": "r", "mode": "random",
                                       "seed": 6},))
        result = run_campaign(reseeded, cache=cache, workers=0)
        assert result.stats["cache_hits"] == 0

    def test_permuted_platform_never_served_foreign_mapping(self, tmp_path):
        # speeds [3, 1] and [1, 3] describe the same instance up to
        # renumbering, but a cached mapping's processor indices only make
        # sense for the ordering it was solved with — permutations must
        # miss, and every returned mapping must embed the caller's platform
        def spec_for(speeds):
            return grid_spec(instances=(
                {"type": "explicit", "id": "perm",
                 "application": {"kind": "pipeline", "works": [9.0, 2.0]},
                 "platform": {"kind": "platform", "speeds": list(speeds)}},
            ), solvers=({"name": "exact", "mode": "exact"},))

        cache = ResultCache(tmp_path)
        first = run_campaign(spec_for([3.0, 1.0]), cache=cache, workers=0)
        second = run_campaign(spec_for([1.0, 3.0]), cache=cache, workers=0)
        assert second.stats["cache_hits"] == 0
        for result, speeds in ((first, [3.0, 1.0]), (second, [1.0, 3.0])):
            for row in result.ok_rows:
                assert row["mapping"]["platform"]["speeds"] == speeds

    def test_transient_errors_not_cached_deterministic_ones_are(
        self, tmp_path
    ):
        # a malformed document raises KeyError (not a ReproError): retried
        # every run; the NP-hard refusal is deterministic: served from cache
        spec = grid_spec(
            instances=(
                {"type": "explicit", "id": "malformed",
                 "application": {"kind": "pipeline"},
                 "platform": {"kind": "platform", "speeds": [1.0]}},
                {"type": "explicit", "id": "np",
                 "application": {"kind": "pipeline", "works": [9.0, 2.0, 7.0]},
                 "platform": {"kind": "platform", "speeds": [3.0, 1.0]}},
            ),
            objectives=("period",),
            solvers=({"name": "auto"},),
        )
        cache = ResultCache(tmp_path)
        first = run_campaign(spec, cache=cache, workers=0)
        assert first.stats["errors"] == 2
        second = run_campaign(spec, cache=cache, workers=0)
        by_id = {r["instance_id"]: r for r in second.rows}
        assert not by_id["malformed"]["cached"]
        assert by_id["np"]["cached"]
        assert by_id["np"]["error_type"] == "NPHardError"
        # the volatile-stripped rows still agree between runs
        assert [strip_volatile(r) for r in first.rows] == \
            [strip_volatile(r) for r in second.rows]

    def test_solver_rename_does_not_invalidate(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_campaign(
            grid_spec(solvers=({"name": "a", "mode": "random", "seed": 5},)),
            cache=cache, workers=0,
        )
        renamed = run_campaign(
            grid_spec(solvers=({"name": "b", "mode": "random", "seed": 5},)),
            cache=cache, workers=0,
        )
        assert renamed.stats["cache_hits"] == renamed.stats["tasks"]


class TestFailureIsolation:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_poisoned_instance_yields_one_error_row(self, workers):
        spec = grid_spec(
            instances=(
                POISON,
                {"type": "random", "graph": "pipeline", "count": 3,
                 "seed": 3, "n": 3, "p": 3},
            ),
            objectives=("period",),
            solvers=({"name": "exact", "mode": "auto",
                      "exact_fallback": True},),
        )
        result = run_campaign(spec, workers=workers)
        assert result.stats["tasks"] == 4
        assert result.stats["errors"] == 1
        [bad] = result.error_rows
        assert bad["instance_id"] == "poisoned"
        assert bad["error_type"] == "InvalidApplicationError"
        assert bad["value"] is None and bad["error"]
        assert len(result.ok_rows) == 3

    def test_np_hard_without_fallback_is_an_error_row(self):
        spec = grid_spec(
            instances=(
                {"type": "explicit", "id": "np",
                 "application": {"kind": "pipeline", "works": [9.0, 2.0, 7.0]},
                 "platform": {"kind": "platform", "speeds": [3.0, 1.0]}},
            ),
            objectives=("period",),
            solvers=({"name": "auto"},),
        )
        [row] = run_campaign(spec, workers=0).rows
        assert row["status"] == "error"
        assert row["error_type"] == "NPHardError"

    def test_heuristic_mode_mismatch_is_isolated(self):
        # LPT only targets latency: the period task errors, latency works
        spec = grid_spec(
            instances=(
                {"type": "random", "graph": "fork", "count": 1, "seed": 9,
                 "n": 4, "p": 2, "homogeneous_platform": True},
            ),
            objectives=("period", "latency"),
            solvers=({"name": "lpt", "mode": "heuristic"},),
        )
        rows = run_campaign(spec, workers=0).rows
        by_objective = {r["objective"]: r for r in rows}
        assert by_objective["latency"]["status"] == "ok"
        assert by_objective["period"]["status"] == "error"
        assert by_objective["period"]["error_type"] == "ReproError"


class TestModes:
    def test_exact_mode_matches_auto_on_poly_cell(self):
        # hom pipeline on hom platform: poly algorithm vs forced brute force
        spec = grid_spec(
            instances=(
                {"type": "explicit", "id": "tiny",
                 "application": {"kind": "pipeline",
                                 "works": [14.0, 4.0, 2.0, 4.0]},
                 "platform": {"kind": "platform",
                              "speeds": [1.0, 1.0, 1.0]}},
            ),
            objectives=("period",),
            solvers=({"name": "poly", "mode": "auto"},
                     {"name": "brute", "mode": "exact"}),
        )
        poly, brute = run_campaign(spec, workers=0).rows
        assert poly["status"] == brute["status"] == "ok"
        assert poly["value"] == pytest.approx(brute["value"])

    def test_random_mode_seed_determinism(self):
        spec = grid_spec(solvers=({"name": "r", "mode": "random",
                                   "seed": 7, "samples": 16},))
        a = run_campaign(spec, workers=0)
        b = run_campaign(spec, workers=2)
        assert [strip_volatile(r) for r in a.rows] == \
            [strip_volatile(r) for r in b.rows]


class TestRetryErrors:
    def mixed_spec(self, ok_count=3):
        # NP-hard cell without fallback -> deterministic cached error rows
        return grid_spec(
            instances=(
                {"type": "explicit", "id": "np",
                 "application": {"kind": "pipeline",
                                 "works": [9.0, 2.0, 7.0]},
                 "platform": {"kind": "platform", "speeds": [3.0, 1.0]}},
                {"type": "random", "graph": "pipeline", "count": ok_count,
                 "seed": 11, "n": 3, "p": 3, "homogeneous_app": True,
                 "homogeneous_platform": True},
            ),
            objectives=("period",),
            solvers=({"name": "auto"},),
        )

    @pytest.mark.parametrize("workers", [0, 2])
    def test_serial_parallel_identical_with_error_rows(self, workers,
                                                       tmp_path):
        spec = grid_spec(
            instances=(
                POISON,
                {"type": "explicit", "id": "np",
                 "application": {"kind": "pipeline",
                                 "works": [9.0, 2.0, 7.0]},
                 "platform": {"kind": "platform", "speeds": [3.0, 1.0]}},
                {"type": "random", "graph": "pipeline", "count": 3,
                 "seed": 3, "n": 3, "p": 3},
            ),
            objectives=("period",),
            solvers=({"name": "auto"},),
        )
        serial = run_campaign(spec, workers=0)
        assert serial.stats["errors"] >= 2
        other = run_campaign(spec, cache=ResultCache(tmp_path),
                             workers=workers, chunk_size=2,
                             retry_errors=True)
        assert [strip_volatile(r) for r in serial.rows] == \
            [strip_volatile(r) for r in other.rows]

    def test_retry_resolves_only_error_and_missing_rows(
        self, tmp_path, monkeypatch
    ):
        from repro.campaign import runner as runner_mod

        spec = self.mixed_spec(ok_count=3)
        cache = ResultCache(tmp_path)
        first = run_campaign(spec, cache=cache, workers=0)
        assert first.stats == {**first.stats, "ok": 3, "errors": 1,
                               "retried": 0}

        solved_keys = []
        real_solve = runner_mod.solve_task
        monkeypatch.setattr(
            runner_mod, "solve_task",
            lambda task, *a, **kw: (
                solved_keys.append(task.key) or real_solve(task, *a, **kw)
            ),
        )

        # plain re-run: everything (even the error row) is served cached
        second = run_campaign(spec, cache=cache, workers=0)
        assert solved_keys == []
        assert second.stats["cache_hits"] == second.stats["tasks"]

        # --retry-errors: exactly the one error row is re-solved
        third = run_campaign(spec, cache=cache, workers=0,
                             retry_errors=True)
        errors = [r for r in first.rows if r["status"] == "error"]
        assert solved_keys == [r["key"] for r in errors]
        assert third.stats["retried"] == 1
        assert third.stats["cache_hits"] == 3

        # a grid extension re-solves errors + the genuinely new rows only
        solved_keys.clear()
        bigger = self.mixed_spec(ok_count=5)
        fourth = run_campaign(bigger, cache=cache, workers=0,
                              retry_errors=True)
        old_keys = {r["key"] for r in first.rows}
        fresh = [r["key"] for r in fourth.rows if r["key"] not in old_keys]
        assert sorted(solved_keys) == sorted([errors[0]["key"], *fresh])
        assert len(fresh) == 2

    def test_resolution_field_values(self, tmp_path):
        spec = self.mixed_spec()
        cache = ResultCache(tmp_path)
        first = run_campaign(spec, cache=cache, workers=0)
        assert {r["resolution"] for r in first.rows} == {"solved"}
        second = run_campaign(spec, cache=cache, workers=0)
        by_status = {r["status"]: r["resolution"] for r in second.rows}
        assert by_status == {"ok": "cached-ok", "error": "cached-error"}
        third = run_campaign(spec, cache=cache, workers=0,
                             retry_errors=True)
        assert sorted(r["resolution"] for r in third.rows) == \
            ["cached-ok"] * 3 + ["retried"]

    @pytest.mark.parametrize("backend", ["jsonl", "http"])
    def test_solver_fix_changes_cached_verdict(self, tmp_path, backend,
                                               request):
        # simulate "a solver fix changes the verdict": overwrite the ok
        # rows with error payloads, as if the first run predated the fix
        spec = grid_spec(objectives=("period",),
                         solvers=({"name": "exact", "mode": "auto",
                                   "exact_fallback": True},))
        if backend == "http":
            server = request.getfixturevalue("server")
            cache = ResultCache(url=server.url, backend="http")
        else:
            cache = ResultCache(tmp_path)
        first = run_campaign(spec, cache=cache, workers=0)
        assert first.stats["errors"] == 0
        broken = dict(first.rows[0])
        for field_name in ("index", "instance_id", "key", "objective",
                          "period_bound", "latency_bound", "solver",
                          "seconds", "cached", "resolution"):
            broken.pop(field_name)
        broken.update(status="error", period=None, latency=None, value=None,
                      mapping=None, algorithm=None,
                      error="pre-fix solver crash", error_type="ReproError")
        for row in first.rows:
            cache.put(row["key"], broken)

        stale = run_campaign(spec, cache=cache, workers=0)
        assert stale.stats["errors"] == stale.stats["tasks"]

        fixed = run_campaign(spec, cache=cache, workers=0,
                             retry_errors=True)
        assert fixed.stats["errors"] == 0
        assert fixed.stats["retried"] == fixed.stats["tasks"]
        assert [strip_volatile(r) for r in fixed.rows] == \
            [strip_volatile(r) for r in first.rows]
        # the re-puts overwrote the cache: a plain re-run is all ok again
        healed = run_campaign(spec, cache=cache, workers=0)
        assert healed.stats["errors"] == 0
        assert healed.stats["cache_hits"] == healed.stats["tasks"]

    @pytest.mark.parametrize("workers", [0, 2])
    def test_retry_serial_parallel_equivalent(self, tmp_path, workers):
        spec = self.mixed_spec()
        cache = ResultCache(tmp_path)
        reference = run_campaign(spec, workers=0)
        run_campaign(spec, cache=cache, workers=0)
        resumed = run_campaign(spec, cache=cache, workers=workers,
                               chunk_size=1, retry_errors=True)
        assert [strip_volatile(r) for r in resumed.rows] == \
            [strip_volatile(r) for r in reference.rows]


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        result = run_campaign(grid_spec(), workers=0)
        path = tmp_path / "rows.jsonl"
        save_rows(path, result)
        back = load_rows(path)
        assert back.name == result.name
        assert back.rows == result.rows
        assert back.stats == result.stats

    def test_load_rejects_other_files(self, tmp_path):
        path = tmp_path / "bogus.jsonl"
        path.write_text('{"kind": "something-else"}\n')
        with pytest.raises(ReproError):
            load_rows(path)
