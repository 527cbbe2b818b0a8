"""Tests for campaign specs: round-trips, expansion, task keys."""

import pytest

from repro.core import ReproError
from repro.campaign import CampaignSpec, SolverConfig
from repro.campaign.spec import canonical_solver_dict

PIPE = {"kind": "pipeline", "works": [3.0, 5.0, 2.0]}
PLAT = {"kind": "platform", "speeds": [2.0, 1.0]}


def small_spec(**overrides):
    fields = dict(
        name="t",
        instances=(
            {"type": "explicit", "application": PIPE, "platform": PLAT,
             "id": "one"},
        ),
        objectives=("period",),
        solvers=({"name": "auto"},),
    )
    fields.update(overrides)
    return CampaignSpec(**fields)


class TestSolverConfig:
    def test_roundtrip(self):
        cfg = SolverConfig(name="x", mode="random", seed=3, samples=9)
        assert SolverConfig.from_dict(cfg.to_dict()) == cfg

    def test_rejects_unknown_mode(self):
        with pytest.raises(ReproError):
            SolverConfig(name="x", mode="quantum")

    def test_rejects_unknown_engine(self):
        with pytest.raises(ReproError):
            SolverConfig(name="x", engine="dfs")

    def test_rejects_unknown_fields(self):
        with pytest.raises(ReproError):
            SolverConfig.from_dict({"name": "x", "threads": 4})

    def test_requires_name(self):
        with pytest.raises(ReproError):
            SolverConfig.from_dict({"mode": "auto"})


class TestCampaignSpec:
    def test_json_roundtrip_preserves_tasks(self):
        spec = small_spec(
            objectives=("period", {"objective": "latency",
                                   "period_bound": 4.0}),
            solvers=({"name": "a"}, {"name": "b", "mode": "random"}),
        )
        back = CampaignSpec.loads(spec.dumps())
        assert [t.to_dict() for t in back.tasks()] == \
            [t.to_dict() for t in spec.tasks()]

    def test_version_check(self):
        with pytest.raises(ReproError):
            small_spec(version=99)
        doc = small_spec().to_dict()
        doc["version"] = 99
        with pytest.raises(ReproError):
            CampaignSpec.from_dict(doc)

    def test_not_a_campaign_document(self):
        with pytest.raises(ReproError):
            CampaignSpec.from_dict({"kind": "pipeline"})

    def test_needs_instances_and_solvers(self):
        with pytest.raises(ReproError):
            small_spec(instances=())
        with pytest.raises(ReproError):
            small_spec(solvers=())

    def test_duplicate_solver_names_rejected(self):
        with pytest.raises(ReproError):
            small_spec(solvers=({"name": "a"}, {"name": "a", "seed": 1}))

    def test_bad_objective_rejected(self):
        with pytest.raises(ReproError):
            small_spec(objectives=("throughput",))

    def test_random_source_is_deterministic(self):
        src = {"type": "random", "graph": "fork", "count": 5, "seed": 11,
               "n": [2, 4], "p": 3}
        a = small_spec(instances=(src,)).expand_instances()
        b = small_spec(instances=(src,)).expand_instances()
        assert a == b
        assert len(a) == 5
        assert len({iid for iid, _ in a}) == 5

    def test_typoed_source_field_rejected(self):
        # "works_high" is a typo for "work_high": must fail loudly, not
        # silently run a different experiment
        with pytest.raises(ReproError, match="works_high"):
            small_spec(instances=(
                {"type": "random", "graph": "pipeline", "count": 2,
                 "seed": 1, "works_high": 9},
            )).expand_instances()
        with pytest.raises(ReproError, match="nam"):
            small_spec(instances=(
                {"type": "scenario", "nam": "scatter-gather"},
            )).expand_instances()

    def test_random_source_requires_seed(self):
        with pytest.raises(ReproError):
            small_spec(
                instances=({"type": "random", "graph": "pipeline"},)
            ).expand_instances()

    def test_scenario_source(self):
        spec = small_spec(
            instances=({"type": "scenario", "name": "scatter-gather"},)
        )
        [(iid, doc)] = spec.expand_instances()
        assert iid == "scatter-gather"
        assert doc["kind"] == "instance"
        assert doc["application"]["kind"] == "fork-join"

    def test_unknown_source_type(self):
        with pytest.raises(ReproError):
            small_spec(instances=({"type": "warp"},)).expand_instances()

    def test_duplicate_instance_ids_disambiguated(self):
        src = {"type": "scenario", "name": "scatter-gather"}
        ids = [iid for iid, _ in
               small_spec(instances=(src, src)).expand_instances()]
        assert len(set(ids)) == 2

    def test_grid_order_and_indices(self):
        spec = small_spec(
            objectives=("period", "latency"),
            solvers=({"name": "a"}, {"name": "b", "mode": "random"}),
        )
        tasks = spec.tasks()
        assert [t.index for t in tasks] == list(range(4))
        assert [(t.objective, t.solver["name"]) for t in tasks] == [
            ("period", "a"), ("period", "b"),
            ("latency", "a"), ("latency", "b"),
        ]


class TestTaskKeys:
    def task(self, **overrides):
        tasks = small_spec(**overrides).tasks()
        return tasks[0]

    def test_key_stable_across_processes(self):
        # pure function of content: recomputing gives the same hex digest
        t = self.task()
        assert t.key == self.task().key
        assert len(t.key) == 64

    def test_key_ignores_solver_name_and_irrelevant_knobs(self):
        base = self.task()
        renamed = self.task(solvers=({"name": "zzz"},))
        assert base.key == renamed.key
        # 'samples' cannot affect an auto solve
        assert canonical_solver_dict({"name": "a", "samples": 9}) == \
            canonical_solver_dict({"name": "b", "samples": 4})

    def test_key_changes_with_result_relevant_fields(self):
        base = self.task()
        variants = [
            self.task(objectives=("latency",)),
            self.task(objectives=({"objective": "period",
                                   "period_bound": None,
                                   "latency_bound": 9.0},)),
            self.task(solvers=({"name": "auto", "exact_fallback": True},)),
            self.task(solvers=({"name": "auto", "mode": "random"},)),
        ]
        keys = {base.key} | {v.key for v in variants}
        assert len(keys) == 5

    def test_key_normalizes_int_float_documents(self):
        int_doc = {"kind": "pipeline", "works": [3, 5, 2]}
        int_plat = {"kind": "platform", "speeds": [2, 1]}
        a = self.task()
        b = self.task(instances=(
            {"type": "explicit", "application": int_doc,
             "platform": int_plat, "id": "one"},
        ))
        assert a.key == b.key

    def test_key_distinguishes_speed_permutations(self):
        # a cached mapping's processor indices must match the instance it
        # is served for, so permuted platforms get distinct keys (value-
        # level identity is instance_digest's job, not the cache key's)
        from repro.serialization import instance_digest

        plat2 = {"kind": "platform", "speeds": [1.0, 2.0]}
        a = self.task()
        b = self.task(instances=(
            {"type": "explicit", "application": PIPE, "platform": plat2,
             "id": "one"},
        ))
        assert a.key != b.key
        assert instance_digest(a.instance) == instance_digest(b.instance)

    def test_instance_normalized_once_per_expansion(self, monkeypatch):
        from dataclasses import replace

        import repro.campaign.spec as spec_mod

        calls = []
        real = spec_mod.normalized_instance_dict
        monkeypatch.setattr(spec_mod, "normalized_instance_dict",
                            lambda doc: calls.append(doc) or real(doc))
        tasks = small_spec(
            objectives=("period", "latency"),
            solvers=({"name": "a"}, {"name": "b", "mode": "random"}),
        ).tasks()
        assert len(tasks) == 4 and len(calls) == 1
        # keys are computed during expansion, the shared document is
        # released, and each key matches a task normalizing on its own
        assert all(t.normalized_instance is None for t in tasks)
        alone = [replace(t) for t in tasks]
        assert [t.key for t in tasks] == [t.key for t in alone]
        assert len(calls) == 1 + len(tasks)

    def test_invalid_instance_keys_raw_document(self):
        bad = small_spec(instances=(
            {"type": "explicit", "application": {"kind": "pipeline"},
             "platform": PLAT, "id": "bad"},
        )).tasks()[0]
        assert bad.normalized_instance is None
        assert len(bad.key) == 64

    def test_budget_knobs_key_exact_modes_only(self):
        base = self.task()
        budgeted = self.task(solvers=({"name": "auto", "max_nodes": 2000},))
        tighter = self.task(solvers=({"name": "auto", "max_nodes": 1000},))
        timed = self.task(solvers=({"name": "auto", "max_seconds": 1.5},))
        assert len({base.key, budgeted.key, tighter.key, timed.key}) == 4
        # budgets cannot affect heuristic/random solves, so they don't key
        assert canonical_solver_dict(
            {"name": "a", "mode": "random", "max_nodes": 2000}
        ) == canonical_solver_dict({"name": "b", "mode": "random"})

    def test_unset_budget_keys_are_byte_identical_to_pre_budget(self):
        # None budget knobs must not appear in the canonical dict at all:
        # every cache row written before budgets existed stays reachable
        assert canonical_solver_dict({"name": "a"}) == \
            canonical_solver_dict(
                {"name": "a", "max_seconds": None, "max_nodes": None}
            )
        assert "max_nodes" not in canonical_solver_dict({"name": "a"})

    def test_budget_validation_at_spec_parse_time(self):
        with pytest.raises(ReproError, match="max_nodes"):
            SolverConfig.from_dict({"name": "bad", "max_nodes": 0})
        with pytest.raises(ReproError, match="max_seconds"):
            SolverConfig.from_dict({"name": "bad", "max_seconds": -1.0})
        cfg = SolverConfig.from_dict(
            {"name": "ok", "max_seconds": 2.0, "max_nodes": 500}
        )
        assert cfg.budget().to_dict() == \
            {"max_seconds": 2.0, "max_nodes": 500}
        assert SolverConfig.from_dict({"name": "ok"}).budget() is None


class TestGoldenKeys:
    """Pinned cache keys: adding the milp engine must not move any.

    These hex digests were recorded before the milp engine landed (the
    canonical solver dict for bnb / enumerate / auto is untouched by it).
    If one of these assertions ever fails, a change has silently
    invalidated every cached campaign row of that solver column —
    deliberate key-scheme migrations must bump them *knowingly*.
    """

    GOLDEN = {
        ("exact", "bnb"):
            "50825c07fda94c08a238c1e0b7aa5e8ca42a9362abed671f3d56e4bbdfdfd775",
        ("exact", "enumerate"):
            "ea5d0272c662642998211ab3e63cd71de5910898b120923b47a64b7115fa8d4d",
        ("auto", None):
            "b8daa37c2c9c3f8344c90108e245e3b55a0e778e85ffe1903b6f6ea3845af301",
    }

    def key(self, mode, engine):
        solver = {"name": "s", "mode": mode}
        if engine is not None:
            solver["engine"] = engine
        spec = small_spec(solvers=(solver,))
        return spec.tasks()[0].key

    def test_combinatorial_keys_byte_identical(self):
        for (mode, engine), digest in self.GOLDEN.items():
            assert self.key(mode, engine) == digest, (
                f"cache key for mode={mode} engine={engine} moved"
            )

    def test_milp_key_is_new_and_round_trips(self):
        # selecting the milp engine gets its own key (never aliases a
        # combinatorial row) and the config survives a document round-trip
        milp_key = self.key("exact", "milp")
        assert milp_key not in set(self.GOLDEN.values())
        assert len(milp_key) == 64
        cfg = SolverConfig.from_dict(
            {"name": "m", "mode": "exact", "engine": "milp"}
        )
        assert SolverConfig.from_dict(cfg.to_dict()) == cfg
        assert canonical_solver_dict(cfg.to_dict())["engine"] == "milp"
        # recomputing from an equivalent fresh document is stable
        assert self.key("exact", "milp") == milp_key
