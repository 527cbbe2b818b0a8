"""The numpy batch evaluator must agree with the scalar cost model."""

import random

import numpy as np
import pytest

import repro
from repro.core import ReproError, Stage, evaluate
from repro.core.batch_eval import BatchEvaluator, batch_evaluate
from repro.heuristics import random_fork_mapping, random_pipeline_mapping


def _random_platform(rng):
    p = rng.randint(1, 5)
    return repro.Platform.heterogeneous(
        [rng.choice([1, 2, 3]) for _ in range(p)]
    )


def _overheads(rng, n):
    return [round(rng.random(), 2) for _ in range(n)]


class TestAgainstScalarModel:
    def test_pipeline_with_overheads(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(1, 5)
            app = repro.PipelineApplication.from_works(
                [rng.randint(1, 9) for _ in range(n)],
                dp_overheads=_overheads(rng, n),
            )
            plat = _random_platform(rng)
            mappings = [
                random_pipeline_mapping(app, plat, rng, True).mapping
                for _ in range(8)
            ]
            BatchEvaluator(app, plat).cross_check(mappings)

    def test_fork_and_forkjoin_with_overheads(self):
        rng = random.Random(12)
        for _ in range(30):
            n = rng.randint(1, 4)
            root = Stage(index=0, work=float(rng.randint(1, 9)),
                         dp_overhead=rng.random())
            branches = tuple(
                Stage(index=k + 1, work=float(rng.randint(1, 9)),
                      dp_overhead=rng.random())
                for k in range(n)
            )
            if rng.random() < 0.5:
                app = repro.ForkApplication(root=root, branches=branches)
            else:
                app = repro.ForkJoinApplication(
                    root=root, branches=branches,
                    join=Stage(index=n + 1, work=float(rng.randint(1, 9)),
                               dp_overhead=rng.random()),
                )
            plat = _random_platform(rng)
            mappings = [
                random_fork_mapping(app, plat, rng, True).mapping
                for _ in range(8)
            ]
            BatchEvaluator(app, plat).cross_check(mappings)

    def test_batch_evaluate_convenience(self):
        app = repro.PipelineApplication.from_works([4.0, 2.0])
        plat = repro.Platform.homogeneous(2)
        rng = random.Random(0)
        mappings = [
            random_pipeline_mapping(app, plat, rng).mapping for _ in range(5)
        ]
        periods, latencies = batch_evaluate(mappings)
        for mapping, bp, bl in zip(mappings, periods, latencies):
            period, latency = evaluate(mapping)
            assert bp == pytest.approx(period)
            assert bl == pytest.approx(latency)


class TestEdges:
    def test_empty_batch(self):
        periods, latencies = batch_evaluate([])
        assert periods.size == 0 and latencies.size == 0
        app = repro.PipelineApplication.from_works([1.0])
        plat = repro.Platform.homogeneous(1)
        periods, latencies = BatchEvaluator(app, plat).evaluate([])
        assert periods.size == 0 and latencies.size == 0

    def test_rejects_unknown_type(self):
        with pytest.raises(ReproError):
            batch_evaluate([object()])

    def test_cross_check_reports_drift(self):
        app = repro.PipelineApplication.from_works([4.0, 2.0])
        plat = repro.Platform.homogeneous(2)
        ev = BatchEvaluator(app, plat)
        rng = random.Random(0)
        mapping = random_pipeline_mapping(app, plat, rng).mapping
        # poison the memoized subset metrics to force a disagreement
        ev._subset_cache.update(
            {g.processors: (0.125, 0.125, 1) for g in mapping.groups}
        )
        with pytest.raises(ReproError):
            ev.cross_check([mapping])

    def test_single_mapping_matches_scalar(self):
        # deterministic single-group sanity values
        app = repro.PipelineApplication.from_works([6.0])
        plat = repro.Platform.heterogeneous([2.0, 1.0])
        mapping = repro.PipelineMapping(
            application=app, platform=plat,
            groups=(repro.GroupAssignment(stages=(1,), processors=(0, 1)),),
        )
        periods, latencies = batch_evaluate([mapping])
        assert np.allclose(periods, [3.0])   # 6 / (2 * 1)
        assert np.allclose(latencies, [6.0])  # 6 / 1
