"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestTable1Command:
    def test_render(self):
        code, text = run_cli("table1")
        assert code == 0
        assert "Homogeneous platforms" in text
        assert "NP-hard (**)" in text


class _ClosedPipe:
    """An output whose reader has gone away, like ``repro ... | head``."""

    def __init__(self):
        self.writes = 0

    def write(self, text):
        self.writes += 1
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_broken_pipe_exits_cleanly_without_writing_again():
    out = _ClosedPipe()
    # the first write raises; main must not re-raise nor write "error: ..."
    assert main(["table1"], out=out) == 1
    assert out.writes == 1


class TestSolveCommand:
    def test_pipeline_hom(self):
        code, text = run_cli(
            "solve", "--graph", "pipeline", "--works", "14,4,2,4",
            "--speeds", "1,1,1", "--objective", "period",
        )
        assert code == 0
        assert "period=8" in text

    def test_pipeline_dp_latency(self):
        code, text = run_cli(
            "solve", "--graph", "pipeline", "--works", "14,4,2,4",
            "--speeds", "1,1,1", "--data-parallel", "--objective", "latency",
        )
        assert code == 0
        assert "latency=17" in text

    def test_fork(self):
        code, text = run_cli(
            "solve", "--graph", "fork", "--root-work", "2",
            "--works", "5,5,5", "--speeds", "1,2,4", "--objective", "period",
        )
        assert code == 0
        assert "Thm 14" in text

    def test_forkjoin(self):
        code, text = run_cli(
            "solve", "--graph", "forkjoin", "--root-work", "2",
            "--works", "3,3", "--join-work", "4", "--speeds", "2,1",
            "--objective", "latency",
        )
        assert code == 0
        assert "solution" in text

    def test_np_hard_refusal(self):
        code, text = run_cli(
            "solve", "--graph", "pipeline", "--works", "9,2,7",
            "--speeds", "3,1", "--objective", "period",
        )
        assert code == 2
        assert "NP-hard" in text

    def test_np_hard_exact(self):
        code, text = run_cli(
            "solve", "--graph", "pipeline", "--works", "9,2,7",
            "--speeds", "3,1", "--objective", "period", "--exact",
        )
        assert code == 0
        assert "solution" in text

    def test_np_hard_heuristic(self):
        code, text = run_cli(
            "solve", "--graph", "pipeline", "--works", "9,2,7,3,5,1,8",
            "--speeds", "3,1,2,2", "--objective", "period", "--heuristic",
        )
        assert code == 0
        assert "portfolio" in text

    def test_bicriteria(self):
        code, text = run_cli(
            "solve", "--graph", "pipeline", "--works", "14,4,2,4",
            "--speeds", "1,1,1", "--data-parallel", "--objective", "latency",
            "--period-bound", "10",
        )
        assert code == 0
        assert "latency=17" in text

    def test_bad_numbers(self):
        with pytest.raises(SystemExit):
            run_cli("solve", "--graph", "pipeline", "--works", "a,b",
                    "--speeds", "1")

    def test_file_input(self, tmp_path):
        import json

        path = tmp_path / "instance.json"
        path.write_text(json.dumps({"kind": "pipeline", "works": [14, 4, 2, 4]}))
        code, text = run_cli(
            "solve", "--file", str(path), "--speeds", "1,1,1",
            "--objective", "period",
        )
        assert code == 0
        assert "period=8" in text

    def test_file_instance_document_needs_no_speeds(self, tmp_path):
        import json

        path = tmp_path / "instance.json"
        path.write_text(json.dumps({
            "kind": "instance",
            "application": {"kind": "pipeline", "works": [14, 4, 2, 4]},
            "platform": {"kind": "platform", "speeds": [1, 1, 1]},
            "allow_data_parallel": True,
        }))
        code, text = run_cli(
            "solve", "--file", str(path), "--objective", "latency",
        )
        assert code == 0
        assert "with data-parallelism" in text
        assert "latency=17" in text

    def test_file_mapping_document(self, tmp_path):
        import repro
        from repro.serialization import dumps as ser_dumps

        spec = repro.ProblemSpec(
            repro.PipelineApplication.from_works([14, 4, 2, 4]),
            repro.Platform.homogeneous(3, 1.0),
            allow_data_parallel=True,
        )
        sol = repro.solve(spec, repro.Objective.LATENCY)
        path = tmp_path / "mapping.json"
        path.write_text(ser_dumps(sol.mapping))
        code, text = run_cli(
            "solve", "--file", str(path), "--objective", "latency",
        )
        assert code == 0
        # data-parallel groups in the document imply the DP strategy
        assert "with data-parallelism" in text
        assert "latency=17" in text

    def test_file_speeds_flag_overrides_platform(self, tmp_path):
        import json

        path = tmp_path / "instance.json"
        path.write_text(json.dumps({
            "kind": "instance",
            "application": {"kind": "pipeline", "works": [14, 4, 2, 4]},
            "platform": {"kind": "platform", "speeds": [1, 1, 1]},
        }))
        code, text = run_cli(
            "solve", "--file", str(path), "--speeds", "2,2,2",
            "--objective", "period",
        )
        assert code == 0
        assert "period=4" in text

    def test_file_application_without_speeds_errors(self, tmp_path):
        import json

        path = tmp_path / "app.json"
        path.write_text(json.dumps({"kind": "pipeline", "works": [1, 2]}))
        code, text = run_cli("solve", "--file", str(path))
        assert code == 2
        assert "platform-bearing" in text

    def test_missing_works(self):
        code, text = run_cli("solve", "--speeds", "1,1")
        assert code == 2
        assert "provide --works or --file" in text


class TestScenarioCommand:
    def test_known(self):
        code, text = run_cli("scenario", "master-slave-fork",
                             "--objective", "period")
        assert code == 0
        assert "master-slave" in text

    def test_unknown(self):
        code, text = run_cli("scenario", "nope")
        assert code == 2
        assert "error" in text


class TestCampaignCommand:
    CAMPAIGN = {
        "kind": "campaign",
        "version": 1,
        "name": "cli-e2e",
        "instances": [
            {"type": "random", "graph": "pipeline", "count": 4, "seed": 5,
             "n": [3, 4], "p": 3},
        ],
        "objectives": ["period"],
        "solvers": [
            {"name": "exact", "mode": "auto", "exact_fallback": True},
            {"name": "random", "mode": "random", "seed": 2, "samples": 8},
        ],
    }

    def _write_spec(self, tmp_path):
        import json

        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(self.CAMPAIGN))
        return path

    def test_run_then_report_end_to_end(self, tmp_path):
        spec = self._write_spec(tmp_path)
        rows = tmp_path / "rows.jsonl"
        code, text = run_cli(
            "campaign", "run", "--spec", str(spec),
            "--workers", "2", "--cache-dir", str(tmp_path / "cache"),
            "--out", str(rows),
        )
        assert code == 0
        assert "8 tasks" in text and "8 ok" in text
        assert rows.exists()

        code, text = run_cli(
            "campaign", "report", "--results", str(rows),
            "--baseline", "exact",
        )
        assert code == 0
        assert "campaign 'cli-e2e'" in text
        assert "mean ratio" in text

    def test_second_run_hits_cache(self, tmp_path):
        spec = self._write_spec(tmp_path)
        cache = tmp_path / "cache"
        code, _ = run_cli(
            "campaign", "run", "--spec", str(spec),
            "--cache-dir", str(cache),
        )
        assert code == 0
        code, text = run_cli(
            "campaign", "run", "--spec", str(spec),
            "--cache-dir", str(cache),
        )
        assert code == 0
        assert "8 from cache" in text

    def test_report_shows_error_rows(self, tmp_path):
        import json

        doc = dict(self.CAMPAIGN)
        doc["instances"] = [
            {"type": "explicit", "id": "bad",
             "application": {"kind": "pipeline", "works": [-1.0]},
             "platform": {"kind": "platform", "speeds": [1.0]}},
        ]
        doc["solvers"] = [{"name": "auto"}]
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps(doc))
        rows = tmp_path / "rows.jsonl"
        code, text = run_cli(
            "campaign", "run", "--spec", str(spec), "--out", str(rows),
        )
        assert code == 0
        assert "1 errors" in text
        code, text = run_cli("campaign", "report", "--results", str(rows))
        assert code == 0
        assert "1 error rows" in text
        assert "InvalidApplicationError" in text

    def test_retry_errors_flag(self, tmp_path):
        import json

        doc = dict(self.CAMPAIGN)
        doc["instances"] = list(doc["instances"]) + [
            {"type": "explicit", "id": "poisoned",
             "application": {"kind": "pipeline", "works": [-1.0]},
             "platform": {"kind": "platform", "speeds": [1.0]}},
        ]
        doc["solvers"] = [
            {"name": "exact", "mode": "auto", "exact_fallback": True},
        ]
        spec = tmp_path / "campaign.json"
        spec.write_text(json.dumps(doc))
        cache = tmp_path / "cache"
        code, text = run_cli(
            "campaign", "run", "--spec", str(spec), "--cache-dir", str(cache),
        )
        assert code == 0
        assert "1 errors" in text
        code, text = run_cli(
            "campaign", "run", "--spec", str(spec), "--cache-dir", str(cache),
            "--retry-errors",
        )
        assert code == 0
        assert "1 retried" in text
        assert "4 from cache" in text

    def test_retry_errors_needs_cache_dir(self, tmp_path):
        spec = self._write_spec(tmp_path)
        code, text = run_cli(
            "campaign", "run", "--spec", str(spec), "--retry-errors",
        )
        assert code == 2
        assert "cache-dir" in text

    def test_bad_spec_file(self, tmp_path):
        import json

        path = tmp_path / "nope.json"
        path.write_text(json.dumps({"kind": "pipeline"}))
        code, text = run_cli("campaign", "run", "--spec", str(path))
        assert code == 2
        assert "error" in text

    def test_missing_spec_file_no_traceback(self, tmp_path):
        code, text = run_cli(
            "campaign", "run", "--spec", str(tmp_path / "absent.json")
        )
        assert code == 2
        assert text.startswith("error:")

    def test_malformed_json_no_traceback(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, text = run_cli("campaign", "run", "--spec", str(path))
        assert code == 2
        assert text.startswith("error:")
        code, text = run_cli("campaign", "report", "--results", str(path))
        assert code == 2
        assert text.startswith("error:")

    def test_missing_solve_file_no_traceback(self, tmp_path):
        code, text = run_cli(
            "solve", "--file", str(tmp_path / "absent.json"),
            "--speeds", "1,1",
        )
        assert code == 2
        assert text.startswith("error:")


class TestCampaignParetoCommand:
    def _instance_doc(self):
        return {
            "kind": "instance",
            "application": {"kind": "pipeline",
                            "works": [14.0, 4.0, 2.0, 4.0]},
            "platform": {"kind": "platform",
                         "speeds": [1.0, 1.0, 1.0, 1.0]},
            "allow_data_parallel": True,
        }

    def _parse_points(self, text, iid):
        points, collecting = [], False
        for line in text.splitlines():
            if line.startswith(f"front {iid!r}"):
                collecting = True
                continue
            if collecting:
                if not line.startswith("  period="):
                    break
                period, latency = line.split()
                points.append((float(period.split("=")[1]),
                               float(latency.split("=")[1])))
        return points

    def test_matches_analysis_pareto_front(self, tmp_path):
        import json

        import repro
        from repro.analysis import pareto_front

        doc = self._instance_doc()
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        code, text = run_cli(
            "campaign", "pareto", "--file", str(path), "--points", "8",
        )
        assert code == 0
        assert "'inst'" in text  # comparison table row, named by file stem

        spec = repro.ProblemSpec(
            repro.PipelineApplication.from_works(doc["application"]["works"]),
            repro.Platform.heterogeneous(doc["platform"]["speeds"]),
            allow_data_parallel=True,
        )
        expected = [(s.period, s.latency)
                    for s in pareto_front(spec, num_points=8)]
        assert self._parse_points(text, "inst") == expected

    def test_scenario_and_shared_cache(self, tmp_path):
        cache = tmp_path / "cache"
        code, text = run_cli(
            "campaign", "pareto", "--scenario", "image-pipeline",
            "--points", "5", "--exact", "--cache-dir", str(cache),
        )
        assert code == 0
        first = self._parse_points(text, "image-pipeline")
        assert first
        code, text = run_cli(
            "campaign", "pareto", "--scenario", "image-pipeline",
            "--points", "5", "--exact", "--cache-dir", str(cache),
        )
        assert code == 0
        assert self._parse_points(text, "image-pipeline") == first

    def test_mapping_document_infers_data_parallel(self, tmp_path):
        # a mapping doc carries no allow_data_parallel field: like
        # `solve --file`, data-parallel groups must imply the strategy
        import repro
        from repro.analysis import pareto_front
        from repro.serialization import dumps as ser_dumps

        spec = repro.ProblemSpec(
            repro.PipelineApplication.from_works([14, 4, 2, 4]),
            repro.Platform.homogeneous(4, 1.0),
            allow_data_parallel=True,
        )
        sol = repro.solve(spec, repro.Objective.LATENCY)
        assert any(g.kind.name == "DATA_PARALLEL"
                   for g in sol.mapping.groups)
        path = tmp_path / "mapping.json"
        path.write_text(ser_dumps(sol.mapping))
        code, text = run_cli(
            "campaign", "pareto", "--file", str(path), "--points", "6",
        )
        assert code == 0
        expected = [(s.period, s.latency)
                    for s in pareto_front(spec, num_points=6)]
        assert self._parse_points(text, "mapping") == expected

    def test_out_artifact_round_trips_printed_points(self, tmp_path):
        import json

        from repro.campaign import load_pareto_fronts

        doc = self._instance_doc()
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        out_path = tmp_path / "fronts.json"
        code, text = run_cli(
            "campaign", "pareto", "--file", str(path), "--points", "8",
            "--out", str(out_path),
        )
        assert code == 0
        assert f"[fronts -> {out_path}]" in text
        artifact = load_pareto_fronts(out_path)
        assert artifact["num_points"] == 8
        # the artifact carries exactly the printed points (the printed
        # reprs round-trip to the stored full-precision floats)
        assert [(p["period"], p["latency"])
                for p in artifact["fronts"]["inst"]] == \
            self._parse_points(text, "inst")
        assert all(p["mapping"]["kind"] == "mapping"
                   for p in artifact["fronts"]["inst"])

    def test_needs_an_instance(self):
        code, text = run_cli("campaign", "pareto")
        assert code == 2
        assert "at least one" in text

    def test_rejects_platformless_document(self, tmp_path):
        import json

        path = tmp_path / "app.json"
        path.write_text(json.dumps({"kind": "pipeline",
                                    "works": [1.0, 2.0]}))
        code, text = run_cli("campaign", "pareto", "--file", str(path))
        assert code == 2
        assert "instance" in text


class TestCampaignCacheCommand:
    """``campaign cache`` on a local directory and on a remote service
    (whose cache is a jsonl directory too, so the reports agree)."""

    @pytest.fixture(params=["jsonl", "http"])
    def location(self, request, tmp_path):
        """``(backend, cache flags)`` of a cache holding one key that was
        re-put ten times."""
        from repro.campaign import ResultCache

        if request.param == "http":
            url = request.getfixturevalue("server").url
            cache = ResultCache(url=url, backend="http")
            flags = ("--cache-url", url)
        else:
            cache = ResultCache(tmp_path / "cache")
            flags = ("--cache-dir", str(tmp_path / "cache"))
        key = "aa" + "0" * 62
        cache.put(key, {"status": "ok", "value": 1.0,
                        "mapping": {"pad": "x" * 100}})
        for i in range(10):  # superseded re-puts
            cache.put(key, {"status": "ok", "value": float(i),
                            "mapping": {"pad": "x" * 100}})
        cache.close()
        return request.param, flags

    def test_stats_then_compact(self, location):
        backend, flags = location
        code, text = run_cli("campaign", "cache", "stats", *flags)
        assert code == 0
        assert f"[{backend}]" in text
        assert "keys          : 1" in text
        assert "stale records : 10" in text

        code, text = run_cli("campaign", "cache", "compact", *flags)
        assert code == 0
        assert "compacted" in text
        assert "10 superseded records dropped" in text

        code, text = run_cli("campaign", "cache", "stats", *flags)
        assert code == 0
        assert "stale records : 0" in text

    def test_compact_eviction_flags(self, location):
        _, flags = location
        # generous budget: nothing evicted
        code, text = run_cli(
            "campaign", "cache", "compact", *flags,
            "--max-bytes", "10000000",
        )
        assert code == 0
        assert "0 evicted by policy" in text
        # zero-day horizon: the single live record is evicted
        code, text = run_cli(
            "campaign", "cache", "compact", *flags, "--max-age-days", "0",
        )
        assert code == 0
        assert "1 evicted by policy" in text
        code, text = run_cli("campaign", "cache", "stats", *flags)
        assert code == 0
        assert "keys          : 0" in text

    def test_needs_a_location(self):
        code, text = run_cli("campaign", "cache", "stats")
        assert code == 2
        assert "cache-dir" in text

    def test_cache_dir_rejected_with_http_backend(self, tmp_path):
        # an ignored --cache-dir would let `compact --max-age-days 0`
        # silently empty the *remote* cache the operator didn't target
        code, text = run_cli(
            "campaign", "cache", "compact", "--cache-dir", str(tmp_path),
            "--cache-url", "http://127.0.0.1:1", "--max-age-days", "0",
        )
        assert code == 2
        assert "does not apply" in text

    def test_http_backend_needs_url(self, tmp_path):
        # the circuit breaker guards the http cache, which only a URL opens
        code, text = run_cli(
            "campaign", "cache", "stats",
            "--cache-fallback-dir", str(tmp_path / "journal"),
        )
        assert code == 2
        assert "--cache-fallback-dir only applies to --cache-url" in text
        code, text = run_cli(
            "campaign", "cache", "stats", "--cache-dir", str(tmp_path),
            "--cache-fallback-dir", str(tmp_path / "journal"),
        )
        assert code == 2
        assert "--cache-url" in text

    def test_no_parser_offers_cache_backend(self, capsys):
        from repro.cli import build_parser

        for argv in (["campaign", "run", "--spec", "x.json"],
                     ["campaign", "pareto"],
                     ["campaign", "cache", "stats"],
                     ["campaign", "cache", "compact"],
                     ["campaign", "profile"],
                     ["serve"]):
            build_parser().parse_args(argv)  # valid without the flag
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv + ["--cache-backend", "jsonl"])
            assert "unrecognized arguments: --cache-backend" in \
                capsys.readouterr().err


class TestSimulateCommand:
    def test_pipeline(self):
        # homogeneous pipeline -> the polynomial Theorem 7 route
        code, text = run_cli(
            "simulate", "--graph", "pipeline", "--works", "6,6,6",
            "--speeds", "2,1", "--objective", "period", "--data-sets", "200",
        )
        assert code == 0
        assert "measured period" in text
        assert "order inversions" in text

    def test_np_hard_instance_with_exact(self):
        code, text = run_cli(
            "simulate", "--graph", "pipeline", "--works", "6,2,8",
            "--speeds", "2,1", "--objective", "period", "--exact",
            "--data-sets", "200",
        )
        assert code == 0
        assert "measured period" in text
