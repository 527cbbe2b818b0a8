"""Tests for the Table 1 registry and the solve() façade."""

import pytest

import repro
from repro.algorithms.registry import (
    TABLE,
    Criterion,
    NPHardError,
    classify,
    solve,
)
from repro.algorithms.problem import Objective, ProblemSpec
from repro.core import ForkApplication, ForkJoinApplication, PipelineApplication, Platform


class TestTableStructure:
    def test_all_48_cells_present(self):
        assert len(TABLE) == 2 * 2 * 2 * 2 * 3

    def test_paper_statuses_spotchecks(self):
        # Thm 7: hom pipeline, het platform, no dp, period -> Poly (*)
        e = TABLE[("pipeline", True, False, False, Criterion.PERIOD)]
        assert e.is_polynomial and e.method == "*" and "7" in e.theorem
        # Thm 9: het pipeline, het platform, no dp, period -> NP-hard (**)
        e = TABLE[("pipeline", False, False, False, Criterion.PERIOD)]
        assert not e.is_polynomial and e.method == "**"
        # Thm 6: het pipeline, het platform, no dp, latency -> Poly (str)
        e = TABLE[("pipeline", False, False, False, Criterion.LATENCY)]
        assert e.is_polynomial and e.method == "str"
        # Thm 12: het fork, hom platform, latency -> NP-hard
        e = TABLE[("fork", False, True, False, Criterion.LATENCY)]
        assert not e.is_polynomial
        # Thm 14: hom fork, het platform, no dp -> Poly (*) for all
        for crit in Criterion:
            e = TABLE[("fork", True, False, False, crit)]
            assert e.is_polynomial

    def test_monotonic_hardness(self):
        """A harder instance class is never easier: if the hom-app cell is
        NP-hard, the het-app cell must be too (same other coordinates)."""
        for graph in ("pipeline", "fork"):
            for plat_hom in (True, False):
                for dp in (True, False):
                    for crit in Criterion:
                        hom_e = TABLE[(graph, True, plat_hom, dp, crit)]
                        het_e = TABLE[(graph, False, plat_hom, dp, crit)]
                        if not hom_e.is_polynomial:
                            assert not het_e.is_polynomial

    def test_describe(self):
        e = TABLE[("pipeline", True, False, False, Criterion.PERIOD)]
        assert "Poly" in e.describe()


class TestClassify:
    def test_classify_pipeline(self):
        spec = ProblemSpec(
            PipelineApplication.homogeneous(3),
            Platform.heterogeneous([1, 2]),
            allow_data_parallel=False,
        )
        assert classify(spec, Objective.PERIOD).method == "*"

    def test_forkjoin_classifies_like_fork(self):
        app = ForkJoinApplication.homogeneous(2)
        spec = ProblemSpec(app, Platform.heterogeneous([1, 2]), False)
        assert classify(spec, Objective.PERIOD).theorem == "Thm 14"


class TestSolveFacade:
    def test_np_hard_raises(self):
        spec = ProblemSpec(
            PipelineApplication.from_works([3, 1]),
            Platform.heterogeneous([1, 2]),
            allow_data_parallel=False,
        )
        with pytest.raises(NPHardError):
            solve(spec, Objective.PERIOD)

    def test_np_hard_exact_fallback(self):
        spec = ProblemSpec(
            PipelineApplication.from_works([3, 1]),
            Platform.heterogeneous([1, 2]),
            allow_data_parallel=False,
        )
        sol = solve(spec, Objective.PERIOD, exact_fallback=True)
        assert sol.period > 0

    def test_thm9_cell_runs_the_named_engine(self):
        """The Thm 9 period cell has no structured shortcut: the exact
        fallback runs bnb by default and flat enumeration on request."""
        spec = ProblemSpec(
            PipelineApplication.from_works([14, 4, 2, 4, 7]),
            Platform.heterogeneous([3, 1, 2, 2]),
            allow_data_parallel=False,
        )
        assert classify(spec, Objective.PERIOD).theorem == "Thm 9"
        default = solve(spec, Objective.PERIOD, exact_fallback=True)
        flat = solve(
            spec, Objective.PERIOD, exact_fallback=True, engine="enumerate"
        )
        assert default.meta["algorithm"] == "bnb"
        assert flat.meta["algorithm"] == "brute-force"
        assert default.period == pytest.approx(flat.period)

    def test_all_polynomial_cells_dispatch(self):
        """Every poly cell must route to a working solver."""
        apps = {
            ("pipeline", True): PipelineApplication.homogeneous(3, 2.0),
            ("pipeline", False): PipelineApplication.from_works([3, 1, 2]),
            ("fork", True): ForkApplication.homogeneous(3, 2.0, 1.0),
            ("fork", False): ForkApplication.from_works(2.0, [3.0, 1.0]),
        }
        platforms = {
            True: Platform.homogeneous(3, 1.0),
            False: Platform.heterogeneous([1.0, 2.0, 3.0]),
        }
        for (graph, app_hom, plat_hom, dp, crit), entry in TABLE.items():
            if not entry.is_polynomial:
                continue
            spec = ProblemSpec(
                apps[(graph, app_hom)], platforms[plat_hom], dp
            )
            if crit is Criterion.PERIOD:
                sol = solve(spec, Objective.PERIOD)
                assert sol.period > 0
            elif crit is Criterion.LATENCY:
                sol = solve(spec, Objective.LATENCY)
                assert sol.latency > 0
            else:
                base = solve(spec, Objective.PERIOD).period
                sol = solve(spec, Objective.LATENCY, period_bound=base * 2)
                assert sol.period <= base * 2 * (1 + 1e-9)

    def test_public_api_reexports(self):
        assert repro.solve is solve
        assert repro.Objective is Objective
