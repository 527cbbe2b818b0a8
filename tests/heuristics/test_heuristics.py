"""Tests for the heuristic portfolio: validity, quality bounds, improvement."""

import random

import pytest

from repro.algorithms import brute_force as bf
from repro.algorithms import exact
from repro.algorithms.problem import Objective, ProblemSpec
from repro.core import (
    ForkApplication,
    PipelineApplication,
    Platform,
    ReproError,
    validate,
)
from repro.heuristics import (
    best_of_random,
    fork_latency_lpt,
    improve_mapping,
    pipeline_period_greedy,
    pipeline_period_sweep,
    random_fork_mapping,
    random_pipeline_mapping,
)


class TestPipelineGreedy:
    def test_valid_and_never_beats_exact(self):
        rng = random.Random(17)
        for _ in range(10):
            n, p = rng.randint(2, 6), rng.randint(2, 6)
            app = PipelineApplication.from_works(
                [rng.randint(1, 9) for _ in range(n)]
            )
            plat = Platform.heterogeneous([rng.randint(1, 5) for _ in range(p)])
            sol = pipeline_period_sweep(app, plat)
            validate(sol.mapping, allow_data_parallel=False)
            best = bf.optimal(
                ProblemSpec(app, plat, False), Objective.PERIOD
            )
            assert sol.period >= best.period - 1e-9

    def test_single_interval(self):
        app = PipelineApplication.from_works([4, 4])
        plat = Platform.heterogeneous([2.0, 1.0])
        sol = pipeline_period_greedy(app, plat, 1)
        # whole chain replicated on both: 8 / (2 * 1) = 4
        assert sol.period == pytest.approx(4.0)

    def test_rejects_bad_q(self):
        app = PipelineApplication.from_works([4, 4])
        plat = Platform.heterogeneous([2.0, 1.0])
        with pytest.raises(ReproError):
            pipeline_period_greedy(app, plat, 3)

    def test_quality_within_factor_two_often(self):
        """Empirical sanity: the sweep stays within 2x of optimal on this
        family (not a proven bound; a regression canary)."""
        rng = random.Random(18)
        for _ in range(10):
            n, p = rng.randint(2, 6), rng.randint(2, 6)
            app = PipelineApplication.from_works(
                [rng.randint(1, 9) for _ in range(n)]
            )
            plat = Platform.heterogeneous([rng.randint(1, 4) for _ in range(p)])
            sol = pipeline_period_sweep(app, plat)
            best = bf.optimal(
                ProblemSpec(app, plat, False), Objective.PERIOD
            )
            assert sol.period <= 2.0 * best.period + 1e-9


class TestForkLPT:
    def test_valid_and_never_beats_exact(self):
        rng = random.Random(19)
        for _ in range(10):
            n, p = rng.randint(1, 6), rng.randint(1, 4)
            app = ForkApplication.from_works(
                rng.randint(1, 9), [rng.randint(1, 9) for _ in range(n)]
            )
            plat = Platform.homogeneous(p, 1.0)
            sol = fork_latency_lpt(app, plat)
            validate(sol.mapping, allow_data_parallel=False)
            best = exact.fork_latency_exact_hom_platform(app, plat)
            assert sol.latency >= best.latency - 1e-9
            # Graham's LPT bound for P||Cmax: 4/3 - 1/(3p) on the makespan
            w0 = app.root.work
            cmax_opt = best.latency - w0  # s = 1
            cmax_lpt = sol.latency - w0
            assert cmax_lpt <= (4 / 3) * cmax_opt + 1e-9

    def test_rejects_het_platform(self):
        app = ForkApplication.from_works(1.0, [1.0])
        with pytest.raises(ReproError):
            fork_latency_lpt(app, Platform.heterogeneous([1, 2]))


class TestLocalSearch:
    def test_never_worse_than_seed(self):
        rng = random.Random(20)
        for _ in range(8):
            n, p = rng.randint(2, 5), rng.randint(2, 5)
            app = PipelineApplication.from_works(
                [rng.randint(1, 9) for _ in range(n)]
            )
            plat = Platform.heterogeneous([rng.randint(1, 4) for _ in range(p)])
            seed = random_pipeline_mapping(app, plat, rng)
            improved = improve_mapping(seed, Objective.PERIOD)
            assert improved.period <= seed.period + 1e-9
            validate(improved.mapping, allow_data_parallel=False)

    def test_respects_bounds(self):
        rng = random.Random(21)
        app = PipelineApplication.from_works([5, 3, 2])
        plat = Platform.heterogeneous([3.0, 2.0, 1.0])
        seed = random_pipeline_mapping(app, plat, rng)
        improved = improve_mapping(
            seed, Objective.PERIOD, latency_bound=seed.latency
        )
        assert improved.latency <= seed.latency * (1 + 1e-9)

    def test_improves_fork_latency(self):
        rng = random.Random(22)
        app = ForkApplication.from_works(1.0, [5.0, 4.0, 3.0, 2.0])
        plat = Platform.homogeneous(3, 1.0)
        seed = random_fork_mapping(app, plat, rng)
        improved = improve_mapping(seed, Objective.LATENCY)
        best = exact.fork_latency_exact_hom_platform(app, plat)
        assert improved.latency <= seed.latency + 1e-9
        assert improved.latency >= best.latency - 1e-9

    def test_reaches_optimum_from_greedy_often(self):
        """On tiny instances greedy + local search should match brute force
        most of the time; assert it never errs and count quality."""
        rng = random.Random(23)
        hits = 0
        trials = 6
        for _ in range(trials):
            n, p = rng.randint(2, 4), rng.randint(2, 4)
            app = PipelineApplication.from_works(
                [rng.randint(1, 9) for _ in range(n)]
            )
            plat = Platform.heterogeneous([rng.randint(1, 4) for _ in range(p)])
            seed = pipeline_period_sweep(app, plat)
            improved = improve_mapping(seed, Objective.PERIOD)
            want = bf.optimal(
                ProblemSpec(app, plat, False), Objective.PERIOD
            ).period
            assert improved.period >= want - 1e-9
            if improved.period <= want + 1e-9:
                hits += 1
        assert hits >= trials // 2


class TestRandomBaseline:
    def test_pipeline_mappings_valid(self):
        rng = random.Random(24)
        for _ in range(20):
            n, p = rng.randint(1, 6), rng.randint(1, 6)
            app = PipelineApplication.from_works(
                [rng.randint(1, 9) for _ in range(n)]
            )
            plat = Platform.heterogeneous([rng.randint(1, 4) for _ in range(p)])
            dp = rng.random() < 0.5
            sol = random_pipeline_mapping(app, plat, rng, dp)
            validate(sol.mapping, allow_data_parallel=dp)

    def test_fork_mappings_valid(self):
        rng = random.Random(25)
        from repro.core import ForkJoinApplication

        for _ in range(20):
            n, p = rng.randint(1, 5), rng.randint(1, 5)
            if rng.random() < 0.5:
                app = ForkApplication.from_works(
                    rng.randint(1, 5), [rng.randint(1, 9) for _ in range(n)]
                )
            else:
                app = ForkJoinApplication.from_works(
                    rng.randint(1, 5),
                    [rng.randint(1, 9) for _ in range(n)],
                    rng.randint(1, 5),
                )
            plat = Platform.heterogeneous([rng.randint(1, 4) for _ in range(p)])
            dp = rng.random() < 0.5
            sol = random_fork_mapping(app, plat, rng, dp)
            validate(sol.mapping, allow_data_parallel=dp)


class TestBestOfRandom:
    def test_beats_or_matches_single_samples(self):
        """The batch pick must equal the true minimum over its samples."""
        rng = random.Random(31)
        app = PipelineApplication.from_works([5, 3, 8, 2, 6])
        plat = Platform.heterogeneous([1, 2, 3, 2, 1])
        # same seed stream: drawing k singles equals one k-sample portfolio
        portfolio = best_of_random(
            app, plat, random.Random(7), Objective.PERIOD, samples=50
        )
        singles = [
            random_pipeline_mapping(app, plat, random.Random(7), False)
        ]
        for _ in range(49):
            singles.append(random_pipeline_mapping(app, plat, rng, False))
        assert portfolio.period <= max(s.period for s in singles) + 1e-12
        # the reported metrics must match a scalar re-evaluation
        from repro.core import evaluate

        period, latency = evaluate(portfolio.mapping)
        assert portfolio.period == pytest.approx(period)
        assert portfolio.latency == pytest.approx(latency)
        validate(portfolio.mapping, allow_data_parallel=False)

    def test_is_exact_minimum_of_its_sample_set(self):
        rng = random.Random(8)
        app = ForkApplication.from_works(2, [4, 1, 6])
        plat = Platform.heterogeneous([1, 3, 2, 1])
        sol = best_of_random(
            app, plat, rng, Objective.LATENCY, samples=120,
            allow_data_parallel=True,
        )
        # re-draw the identical sample set and minimize by hand
        rng2 = random.Random(8)
        best = min(
            random_fork_mapping(app, plat, rng2, True).latency
            for _ in range(120)
        )
        assert sol.latency == pytest.approx(best)
        assert sol.meta == {"algorithm": "random-portfolio", "samples": 120}

    def test_respects_bounds(self):
        rng = random.Random(9)
        app = PipelineApplication.from_works([6, 2, 8])
        plat = Platform.heterogeneous([2, 1, 3])
        bound = 10.0
        sol = best_of_random(
            app, plat, rng, Objective.PERIOD, samples=100,
            latency_bound=bound,
        )
        assert sol.latency <= bound * (1 + 1e-9)

    def test_infeasible_bound_raises(self):
        from repro.core import InfeasibleProblemError

        rng = random.Random(10)
        app = PipelineApplication.from_works([6, 2, 8])
        plat = Platform.heterogeneous([2, 1, 3])
        with pytest.raises(InfeasibleProblemError):
            best_of_random(
                app, plat, rng, Objective.PERIOD, samples=50,
                period_bound=1e-6,
            )

    def test_zero_samples_rejected(self):
        from repro.core import InfeasibleProblemError

        app = PipelineApplication.from_works([6.0])
        plat = Platform.homogeneous(1)
        with pytest.raises(InfeasibleProblemError):
            best_of_random(
                app, plat, random.Random(0), Objective.PERIOD, samples=0
            )
