"""Tests for the guarded exact entry point, the Thm 12 ``P || Cmax``
reduction and the Lemma 1/2 transforms."""

import json
import random
from pathlib import Path

import pytest

from repro.algorithms import brute_force as bf
from repro.algorithms import exact
from repro.algorithms.lemmas import (
    strip_data_parallelism_hom,
    strip_replication_for_latency,
)
from repro.algorithms.problem import GraphKind, Objective, ProblemSpec
from repro.core import (
    ForkApplication,
    ForkJoinApplication,
    PipelineApplication,
    Platform,
    ReproError,
    evaluate,
)
from repro.heuristics import random_fork_mapping, random_pipeline_mapping


class TestLemma1:
    def test_period_preserved_on_hom_platform(self):
        rng = random.Random(81)
        plat = Platform.homogeneous(4, 2.0)
        for _ in range(20):
            app = PipelineApplication.from_works(
                [rng.randint(1, 9) for _ in range(rng.randint(1, 5))]
            )
            sol = random_pipeline_mapping(app, plat, rng, allow_data_parallel=True)
            stripped = strip_data_parallelism_hom(sol.mapping)
            period, _ = evaluate(stripped)
            assert period == pytest.approx(sol.period)

    def test_rejects_het_platform(self):
        rng = random.Random(1)
        app = PipelineApplication.from_works([1, 2])
        plat = Platform.heterogeneous([1.0, 2.0])
        sol = random_pipeline_mapping(app, plat, rng)
        with pytest.raises(ReproError):
            strip_data_parallelism_hom(sol.mapping)


class TestLemma2:
    def test_latency_preserved_any_platform(self):
        rng = random.Random(82)
        for _ in range(20):
            p = rng.randint(1, 5)
            plat = Platform.heterogeneous([rng.randint(1, 5) for _ in range(p)])
            app = ForkApplication.from_works(
                rng.randint(1, 5),
                [rng.randint(1, 9) for _ in range(rng.randint(1, 4))],
            )
            sol = random_fork_mapping(app, plat, rng, allow_data_parallel=False)
            stripped = strip_replication_for_latency(sol.mapping)
            _, latency = evaluate(stripped)
            assert latency == pytest.approx(sol.latency)

    def test_frees_processors(self):
        rng = random.Random(83)
        app = PipelineApplication.from_works([3, 3])
        plat = Platform.homogeneous(4, 1.0)
        sol = random_pipeline_mapping(app, plat, rng)
        stripped = strip_replication_for_latency(sol.mapping)
        for group in stripped.groups:
            if group.kind.value == "replicated":
                assert group.k == 1


class TestMakespanExact:
    def test_trivial(self):
        value, assign = exact.makespan_partition_exact([5.0], 3)
        assert value == pytest.approx(5.0)
        assert sorted(i for m in assign for i in m) == [0]

    def test_perfect_split(self):
        value, _ = exact.makespan_partition_exact([3.0, 3.0, 2.0, 2.0, 2.0], 2)
        assert value == pytest.approx(6.0)

    def test_matches_enumeration(self):
        rng = random.Random(92)
        import itertools

        for _ in range(10):
            n, m = rng.randint(1, 7), rng.randint(1, 3)
            works = [float(rng.randint(1, 9)) for _ in range(n)]
            want = min(
                max(
                    sum(w for w, c in zip(works, coloring) if c == machine)
                    for machine in range(m)
                )
                for coloring in itertools.product(range(m), repeat=n)
            )
            got, _ = exact.makespan_partition_exact(works, m)
            assert got == pytest.approx(want)

    def test_rejects_zero_machines(self):
        with pytest.raises(ReproError):
            exact.makespan_partition_exact([1.0], 0)


class TestForkLatencyExact:
    def test_matches_brute_force(self):
        rng = random.Random(93)
        for _ in range(8):
            n, p = rng.randint(1, 5), rng.randint(1, 4)
            app = ForkApplication.from_works(
                rng.randint(1, 9),
                [rng.randint(1, 9) for _ in range(n)],
            )
            plat = Platform.homogeneous(p, 1.0)
            want = bf.optimal(
                ProblemSpec(app, plat, False), Objective.LATENCY
            ).latency
            got = exact.fork_latency_exact_hom_platform(app, plat)
            assert got.latency == pytest.approx(want)

    def test_rejects_het_platform(self):
        app = ForkApplication.from_works(1.0, [1.0])
        with pytest.raises(ReproError):
            exact.fork_latency_exact_hom_platform(
                app, Platform.heterogeneous([1, 2])
            )


class TestBruteGuards:
    def test_size_guard_bnb(self):
        # single-criterion pipeline periods reach p = 10, but no further
        app = PipelineApplication.homogeneous(11)
        plat = Platform.homogeneous(11)
        with pytest.raises(ReproError):
            exact.guarded_optimal(
                ProblemSpec(app, plat, False), Objective.PERIOD
            )

    def test_size_guard_enumerate(self):
        # flat enumeration keeps its historical n, p <= 7 guard
        app = PipelineApplication.homogeneous(8)
        plat = Platform.homogeneous(8)
        with pytest.raises(ReproError):
            exact.guarded_optimal(
                ProblemSpec(app, plat, False), Objective.PERIOD,
                engine="enumerate",
            )

    def test_bnb_engine_reaches_past_enumerate_guard(self):
        # n = p = 8 was out of reach for the old guard; bnb solves it
        app = PipelineApplication.homogeneous(8)
        plat = Platform.homogeneous(8)
        sol = exact.guarded_optimal(
            ProblemSpec(app, plat, False), Objective.PERIOD
        )
        # 8 unit stages replicated over 8 unit processors: period 1
        assert sol.period == pytest.approx(1.0)

    def test_bnb_guard_is_shape_aware(self):
        # pipeline periods reach n = 16; bi-criteria solves and fork
        # periods keep the engine-wide n, p <= 10 default, pipeline, fork
        # and fork-join latency stop earlier (a fork's root and a
        # fork-join's join count as stages)
        plat = Platform.homogeneous(10)
        spec = ProblemSpec(PipelineApplication.homogeneous(16), plat, False)
        sol = exact.guarded_optimal(spec, Objective.PERIOD)
        assert sol.period == pytest.approx(1.6)
        refused = [
            (ProblemSpec(PipelineApplication.homogeneous(17), plat, False),
             Objective.PERIOD, {}, "limited to 16 stages/10 processors"),
            (ProblemSpec(PipelineApplication.homogeneous(11), plat, True),
             Objective.LATENCY, {}, "pipeline latency"),
            (spec, Objective.PERIOD, {"latency_bound": 100.0},
             "pipeline bicriteria"),
            (ProblemSpec(ForkApplication.homogeneous(10), plat, False),
             Objective.PERIOD, {}, "(got n=11, p=10)"),
            (ProblemSpec(ForkJoinApplication.homogeneous(9), plat, False),
             Objective.PERIOD, {}, "(got n=11, p=10)"),
        ]
        for spec_, objective, bounds, message in refused:
            with pytest.raises(ReproError, match="limited to") as err:
                exact.guarded_optimal(spec_, objective, **bounds)
            assert message in str(err.value)

    @pytest.mark.parametrize(
        "kind,build,corner",
        [(GraphKind.PIPELINE, PipelineApplication.homogeneous, (9, 8)),
         (GraphKind.FORK, lambda n: ForkApplication.homogeneous(n - 1),
          (8, 8)),
         (GraphKind.FORK_JOIN,
          lambda n: ForkJoinApplication.homogeneous(n - 2), (7, 7))],
        ids=["pipeline", "fork", "fork-join"],
    )
    def test_bnb_latency_corners_refuse_one_step_past(self, kind, build,
                                                      corner):
        # unbudgeted latency solves stop where bnb closes in about a
        # second; one more stage or processor is refused
        assert exact._ENGINE_LIMITS[("bnb", kind, "latency")] == corner
        n, p = corner
        for n_, p_ in ((n + 1, p), (n, p + 1)):
            spec = ProblemSpec(build(n_), Platform.homogeneous(p_), True)
            with pytest.raises(ReproError, match="latency solves") as err:
                exact.guarded_optimal(spec, Objective.LATENCY)
            assert f"(got n={n_}, p={p_})" in str(err.value)

    def test_every_bnb_limit_is_a_recorded_gap0_corner(self):
        # each bnb corner must be backed by a committed unbudgeted solve
        # at exactly that size, closed at gap 0
        bench = Path(__file__).resolve().parents[2] / "BENCH_exact.json"
        closed = {
            (e["graph"], e["criterion"], e["n"], e["p"])
            for e in json.loads(bench.read_text())["guard"]["entries"]
            if e["engine"] == "bnb" and e["status"] == "optimal"
            and e["gap"] == 0.0
        }
        limits = [(key, corner) for key, corner in
                  exact._ENGINE_LIMITS.items() if key[0] == "bnb"]
        assert len(limits) >= 2
        for (_, graph, crit), (n, p) in limits:
            assert (graph and graph.value, crit, n, p) in closed

    def test_unknown_engine_rejected(self):
        from repro.algorithms import brute_force as bf

        app = PipelineApplication.homogeneous(2)
        plat = Platform.homogeneous(2)
        with pytest.raises(ReproError):
            bf.optimal(
                ProblemSpec(app, plat, False), Objective.PERIOD,
                engine="quantum",
            )


#: Seeded Thm 9 instances (het pipeline, het platform, period, no data
#: parallelism) with the optimum an independent structured search
#: (interval partitions x blocks of speed-sorted processors) computed for
#: each; bnb must keep returning them unbudgeted.
THM9_PINS = [
    ((8, 6, 5, 3, 3, 1, 6, 9, 8), (5, 1, 3, 5, 5, 6, 1, 6), 1.5833333333333333),
    ((8, 5, 9, 6, 3, 7, 1, 6, 8, 5, 8, 4), (5, 1, 6, 5, 2, 4, 3, 2), 2.7),
    ((2, 9, 4, 5, 5, 5, 2, 8, 5, 8, 7, 7, 2, 5),
     (2, 3, 3, 3, 3, 6, 6, 5), 2.5),
    ((6, 8, 8, 5, 7, 4, 8, 1, 7, 5, 4, 4, 1, 5, 5, 6),
     (6, 2, 6, 5, 3, 1, 2, 5, 3, 1), 2.6666666666666665),
]


@pytest.mark.parametrize(
    "works,speeds,want", THM9_PINS, ids=[f"n={len(w)}" for w, _, _ in THM9_PINS]
)
def test_bnb_keeps_thm9_optima(works, speeds, want):
    spec = ProblemSpec(
        PipelineApplication.from_works(works),
        Platform.heterogeneous(speeds),
        False,
    )
    sol = exact.guarded_optimal(spec, Objective.PERIOD)
    assert sol.meta["algorithm"] == "bnb"
    assert sol.period == pytest.approx(want)
