"""Tests for reporting, Pareto fronts and Table 1 regeneration."""

import random

import pytest

import repro
from repro.analysis import (
    format_table,
    non_dominated,
    pareto_front,
    render_table1,
    threshold_grid,
)
from repro.analysis.table1 import regenerate_table1, validate_cell
from repro.algorithms.problem import Solution
from repro.algorithms.registry import Criterion


def assert_no_dominated_pairs(points):
    for i, (p1, l1) in enumerate(points):
        for j, (p2, l2) in enumerate(points):
            if i == j:
                continue
            assert not (p2 <= p1 + 1e-12 and l2 <= l1 + 1e-12
                        and (p2 < p1 - 1e-9 or l2 < l1 - 1e-9)), \
                f"({p1}, {l1}) is dominated by ({p2}, {l2})"


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["a", "bb"], [["x", "y"], ["longer", "z"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[2:])

    def test_title(self):
        text = format_table(["a"], [["1"]], title="T")
        assert text.splitlines()[0] == "T"


class TestPareto:
    def test_front_monotone_hom_pipeline(self):
        app = repro.PipelineApplication.from_works([14, 4, 2, 4])
        plat = repro.Platform.homogeneous(4, 1.0)
        spec = repro.ProblemSpec(app, plat, allow_data_parallel=True)
        front = pareto_front(spec, num_points=16)
        assert front
        for a, b in zip(front, front[1:]):
            assert a.period <= b.period + 1e-9
            assert a.latency >= b.latency - 1e-9

    def test_front_endpoints(self):
        app = repro.ForkApplication.homogeneous(4, 2.0, 3.0)
        plat = repro.Platform.heterogeneous([1.0, 2.0, 3.0])
        spec = repro.ProblemSpec(app, plat, allow_data_parallel=False)
        front = pareto_front(spec, num_points=12)
        best_period = repro.solve(spec, repro.Objective.PERIOD).period
        best_latency = repro.solve(spec, repro.Objective.LATENCY).latency
        assert front[0].period == pytest.approx(best_period)
        assert front[-1].latency == pytest.approx(best_latency)

    def _np_hard_spec(self):
        # het pipeline on het platform, no DP: period is NP-hard (Thm 9)
        return repro.ProblemSpec(
            repro.PipelineApplication.from_works([9, 2, 7]),
            repro.Platform.heterogeneous([3, 1]),
        )

    def test_np_hard_without_fallback_raises(self):
        with pytest.raises(repro.NPHardError):
            pareto_front(self._np_hard_spec(), num_points=4)

    def test_engine_knob_fronts_agree(self):
        spec = self._np_hard_spec()
        bnb = pareto_front(spec, num_points=6, exact_fallback=True)
        enum = pareto_front(spec, num_points=6, exact_fallback=True,
                            engine="enumerate")
        assert [(s.period, s.latency) for s in bnb] == \
            [(s.period, s.latency) for s in enum]

    def test_cache_reproduces_serial_front(self, tmp_path):
        from repro.campaign import ResultCache

        app = repro.PipelineApplication.from_works([14, 4, 2, 4])
        spec = repro.ProblemSpec(
            app, repro.Platform.homogeneous(4, 1.0), allow_data_parallel=True
        )
        plain = pareto_front(spec, num_points=10)
        cache = ResultCache(tmp_path)
        first = pareto_front(spec, num_points=10, cache=cache)
        solved = cache.misses
        assert solved >= 3 and cache.hits == 0
        cached = pareto_front(spec, num_points=10, cache=cache)
        points = [(s.period, s.latency) for s in plain]
        assert [(s.period, s.latency) for s in first] == points
        assert [(s.period, s.latency) for s in cached] == points
        # the second traversal came entirely from the cache
        assert cache.hits == solved
        assert cache.misses == solved


def _grid_front(spec, num_points, cache=None):
    """The full-grid sweep the walk replaces: solve both extremes and
    every threshold of the grid, keyed as ``pareto_front`` keys them, then
    one non-domination pass.  Returns ``(front, sweep_rows)``."""
    from repro.algorithms.solve_context import ContextCache
    from repro.analysis.pareto import _solution_from_row
    from repro.campaign.runner import execute_tasks
    from repro.campaign.spec import Task
    from repro.core.costs import FLOAT_TOL
    from repro.serialization import spec_to_dict

    instance = spec_to_dict(spec)
    solver = {"name": "pareto", "mode": "auto",
              "exact_fallback": True, "engine": "bnb"}

    def task(index, objective, period_bound=None):
        return Task(index=index, instance_id="pareto", instance=instance,
                    objective=objective, period_bound=period_bound,
                    latency_bound=None, solver=solver)

    contexts = ContextCache()
    extremes = execute_tasks([task(0, "period"), task(1, "latency")],
                             cache=cache, context_cache=contexts)
    assert all(row["status"] == "ok" for row in extremes), extremes
    lo, hi = (_solution_from_row(row) for row in extremes)
    grid = threshold_grid(lo.period, max(hi.period, lo.period), num_points)
    sweep = execute_tasks(
        [task(i, "latency", bound * (1 + FLOAT_TOL))
         for i, bound in enumerate(grid)],
        cache=cache, context_cache=contexts,
    )
    candidates = [lo, hi]
    for row in sweep:
        if row["status"] == "ok":
            candidates.append(_solution_from_row(row))
        else:
            assert row["error_type"] == "InfeasibleProblemError", row
    return non_dominated(candidates), sweep


def _walk_instances():
    """Fixed-seed pipelines, forks and fork-joins: homogeneous and
    heterogeneous applications and platforms, data parallelism on and
    off."""
    from repro.generators import (
        random_fork,
        random_forkjoin,
        random_pipeline,
        random_platform,
    )

    rng = random.Random(1707)
    out = []
    for make in (random_pipeline, random_fork, random_forkjoin):
        for hom_app in (False, True):
            for hom_plat in (False, True):
                for dp in (False, True) * 2:
                    app = make(rng, rng.randint(2, 4), high=12,
                               homogeneous=hom_app)
                    plat = random_platform(rng, rng.randint(2, 4),
                                           homogeneous=hom_plat)
                    out.append(repro.ProblemSpec(app, plat,
                                                 allow_data_parallel=dp))
    return out


def _front_points(front):
    from repro.serialization import mapping_to_dict

    return [(s.period, s.latency, s.meta.get("algorithm"),
             mapping_to_dict(s.mapping)) for s in front]


class TestParetoWalk:
    @pytest.mark.parametrize("num_points", [4, 12, 24])
    def test_walk_equals_full_grid(self, num_points, tmp_path):
        from repro.campaign import ResultCache

        for i, spec in enumerate(_walk_instances()):
            cache = ResultCache(tmp_path / str(i))
            grid, _ = _grid_front(spec, num_points, cache=cache)
            walked = pareto_front(spec, num_points=num_points,
                                  exact_fallback=True)
            assert _front_points(walked) == _front_points(grid), \
                f"instance {i}: walk and full grid disagree"
            # a cache the full grid filled serves the walk entirely
            misses = cache.misses
            served = pareto_front(spec, num_points=num_points,
                                  exact_fallback=True, cache=cache)
            assert cache.misses == misses, f"instance {i} missed"
            assert _front_points(served) == _front_points(grid)

    def test_one_solve_per_distinct_grid_answer(self, tmp_path):
        from repro.campaign import ResultCache

        saved_any = False
        for i, spec in enumerate(_walk_instances()):
            _, sweep = _grid_front(spec, 12)
            answers = {(row["period"], row["latency"]) for row in sweep
                       if row["status"] == "ok"}
            rows = []

            class Recording(ResultCache):
                def put(self, key, row):
                    rows.append(row)
                    super().put(key, row)

            cache = Recording(tmp_path / str(i))
            pareto_front(spec, num_points=12, exact_fallback=True,
                         cache=cache)
            walked = rows[2:]
            assert cache.misses == 2 + len(walked), f"instance {i}"
            # every walked solve is a grid answer no other solve returned:
            # each lies strictly below the period of the solve before it
            assert cache.misses == 2 + len(answers), f"instance {i}"
            periods = [row["period"] for row in walked]
            assert all(a > b for a, b in zip(periods, periods[1:])), \
                f"instance {i}: {periods}"
            saved_any |= len(walked) < 12
        assert saved_any  # the walk skips thresholds on this set


class TestThresholdGrid:
    def test_endpoints_exact_and_monotone(self):
        grid = threshold_grid(1.0, 1e12, 64)
        assert len(grid) == 64
        assert grid[0] == 1.0
        assert grid[-1] == 1e12  # pinned exactly, never ratio**(n-1)
        assert all(a < b for a, b in zip(grid, grid[1:]))

    @pytest.mark.parametrize("k_min,k_max,n", [
        (1.0, 1e12, 64),        # accumulation undershoots k_max here
        (3.7e-8, 9.1e11, 128),  # ... and overshoots here
        (2.0, 7.0, 33),
        (1e-9, 1e9, 7),
    ])
    def test_extreme_ratios_hit_k_max(self, k_min, k_max, n):
        # regression: `value *= ratio` accumulated float error over
        # num_points multiplies, so the last threshold drifted off k_max
        # and the sweep could miss the min-latency extreme
        grid = threshold_grid(k_min, k_max, n)
        assert len(grid) == n
        assert grid[0] == k_min
        assert grid[-1] == k_max
        assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_degenerate_range_collapses(self):
        assert threshold_grid(5.0, 5.0, 10) == [5.0]
        assert threshold_grid(5.0, 4.0, 10) == [5.0]

    def test_tiny_point_counts(self):
        assert threshold_grid(1.0, 2.0, 1) == [1.0, 2.0]
        assert threshold_grid(1.0, 2.0, 2) == [1.0, 2.0]


class TestNonDominated:
    def _sols(self, points):
        return [Solution(mapping=None, period=p, latency=lat)
                for p, lat in points]

    def test_evicts_dominated_points(self):
        front = non_dominated(self._sols(
            [(2.0, 24.0), (3.2, 20.0), (5.04, 16.0), (3.0, 12.0)]
        ))
        assert [(s.period, s.latency) for s in front] == \
            [(2.0, 24.0), (3.0, 12.0)]

    def test_collapses_ties(self):
        front = non_dominated(self._sols(
            [(2.0, 10.0), (2.0, 10.0), (3.0, 10.0), (2.0, 12.0)]
        ))
        assert [(s.period, s.latency) for s in front] == [(2.0, 10.0)]

    def test_staircase_shape(self):
        rng = random.Random(7)
        pts = [(rng.uniform(1, 9), rng.uniform(1, 9)) for _ in range(60)]
        front = non_dominated(self._sols(pts))
        assert front
        for a, b in zip(front, front[1:]):
            assert a.period < b.period
            assert a.latency > b.latency
        assert_no_dominated_pairs([(s.period, s.latency) for s in front])


class TestParetoDominanceRegression:
    def _crafted(self, cache, sweep):
        """Pre-populate the task keys pareto_front looks up on a 4-point
        grid between the extremes (2.0, 24.0) and (8.0, 10.0), one
        crafted (period, latency) row per threshold; returns the spec."""
        from repro.campaign.spec import Task
        from repro.core.costs import FLOAT_TOL
        from repro.serialization import mapping_to_dict, spec_to_dict

        app = repro.PipelineApplication.from_works([14, 4, 2, 4])
        plat = repro.Platform.homogeneous(4, 1.0)
        spec = repro.ProblemSpec(app, plat, allow_data_parallel=True)
        mapping_doc = mapping_to_dict(
            repro.solve(spec, repro.Objective.PERIOD).mapping
        )
        instance = spec_to_dict(spec)
        solver = {"name": "pareto", "mode": "auto",
                  "exact_fallback": False, "engine": "bnb"}

        def key(objective, period_bound=None):
            return Task(index=0, instance_id="pareto", instance=instance,
                        objective=objective, period_bound=period_bound,
                        latency_bound=None, solver=solver).key

        def row(period, latency):
            return {"status": "ok", "period": period, "latency": latency,
                    "value": latency, "mapping": mapping_doc,
                    "algorithm": "crafted", "error": None,
                    "error_type": None}

        cache.put(key("period"), row(2.0, 24.0))    # min-period extreme
        cache.put(key("latency"), row(8.0, 10.0))   # min-latency extreme
        for bound, (p, lat) in zip(threshold_grid(2.0, 8.0, 4), sweep):
            cache.put(key("latency", bound * (1 + FLOAT_TOL)), row(p, lat))
        return spec

    def test_dominated_sweep_points_are_evicted(self, tmp_path):
        # Regression for the old filter, which only compared each sweep
        # solution against front[-1].latency: a larger period threshold
        # that admits a solution with BOTH smaller period and smaller
        # latency left earlier dominated points in the returned "front".
        # Exact bounded solves cannot produce that shape (latency(K) is
        # monotone), so drive the filter through the cache: pre-populate
        # the exact task keys pareto_front will look up with a crafted
        # dominated sweep, then check the returned front.
        from repro.campaign import ResultCache

        cache = ResultCache(tmp_path)
        # the last (largest) threshold admits (3.0, 12.0), which
        # dominates the two middle points the old filter kept
        spec = self._crafted(
            cache, [(2.0, 24.0), (3.2, 20.0), (5.04, 16.0), (3.0, 12.0)]
        )
        front = pareto_front(spec, num_points=4, cache=cache)
        assert cache.misses == 0  # every solve came from the crafted cache
        # (3.2, 20.0) lies above its own threshold: the walk still ends
        # within one solve per threshold
        assert cache.hits - 2 <= 4
        points = [(s.period, s.latency) for s in front]
        assert points == [(2.0, 24.0), (3.0, 12.0), (8.0, 10.0)]
        assert (3.2, 20.0) not in points and (5.04, 16.0) not in points
        assert_no_dominated_pairs(points)

    def test_walk_descends_past_rows_above_their_threshold(self, tmp_path):
        # every crafted row lies above its own threshold (2.0, 3.17,
        # 5.04, 8.0), so "solve the largest threshold below the period"
        # alone would revisit the top threshold forever: the walk must
        # still step down once per solve, and the final pass evict the
        # dominated rows it read
        from repro.campaign import ResultCache

        class OneGetPerTask(ResultCache):
            def get(self, key):
                assert self.hits + self.misses < 6, "a threshold revisited"
                return super().get(key)

        cache = OneGetPerTask(tmp_path)
        spec = self._crafted(
            cache, [(2.5, 24.0), (3.5, 20.0), (6.0, 21.0), (9.0, 11.0)]
        )
        front = pareto_front(spec, num_points=4, cache=cache)
        assert (cache.hits, cache.misses) == (6, 0)
        points = [(s.period, s.latency) for s in front]
        assert points == [(2.0, 24.0), (3.5, 20.0), (8.0, 10.0)]

    def test_random_instance_fronts_have_no_dominated_pairs(self):
        from repro.generators import random_pipeline, random_platform

        rng = random.Random(2007)
        for _ in range(6):
            app = random_pipeline(rng, rng.randint(3, 5), low=1, high=9)
            plat = random_platform(rng, rng.randint(3, 4), low=1, high=6)
            spec = repro.ProblemSpec(app, plat,
                                     allow_data_parallel=rng.random() < 0.5)
            try:
                front = pareto_front(spec, num_points=6,
                                     exact_fallback=True)
            except repro.ReproError:
                continue
            assert_no_dominated_pairs(
                [(s.period, s.latency) for s in front]
            )


class TestTable1:
    def test_render_contains_all_rows(self):
        text = render_table1()
        for label in ("Hom. pipeline", "Het. pipeline", "Hom. fork", "Het. fork"):
            assert text.count(label) == 2  # once per platform sub-table

    def test_render_statuses(self):
        text = render_table1()
        assert "NP-hard (**)" in text  # Thm 9
        assert "Poly (*)" in text      # Thm 7/8/14

    def test_validate_poly_cell(self):
        rng = random.Random(33)
        outcome = validate_cell(
            rng, "pipeline", True, True, False, Criterion.PERIOD, trials=2
        )
        assert outcome.ok

    def test_validate_nphard_cell(self):
        rng = random.Random(34)
        outcome = validate_cell(
            rng, "fork", False, True, False, Criterion.LATENCY, trials=2
        )
        assert outcome.ok

    @pytest.mark.slow
    def test_full_regeneration(self):
        text, validations = regenerate_table1(random.Random(35), trials=1)
        assert len(validations) == 48
        assert all(v.ok for v in validations.values())
        assert "Homogeneous platforms" in text
