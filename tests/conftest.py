"""Shared fixtures and helpers for the test-suite."""

from __future__ import annotations

import random
import threading

import pytest

from repro.core import (
    AssignmentKind,
    ForkApplication,
    ForkJoinApplication,
    ForkJoinMapping,
    ForkMapping,
    GroupAssignment,
    PipelineApplication,
    PipelineMapping,
    Platform,
)

# The Section 2 worked example: four stages, works (14, 4, 2, 4).
SECTION2_WORKS = [14.0, 4.0, 2.0, 4.0]


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20070301)


@pytest.fixture
def section2_app() -> PipelineApplication:
    return PipelineApplication.from_works(SECTION2_WORKS)


@pytest.fixture
def hom3() -> Platform:
    """Three identical unit-speed processors (Section 2, first platform)."""
    return Platform.homogeneous(3, 1.0)


@pytest.fixture
def het4() -> Platform:
    """Speeds (2, 2, 1, 1) (Section 2, second platform)."""
    return Platform.heterogeneous([2.0, 2.0, 1.0, 1.0])


@pytest.fixture
def server(tmp_path):
    """A running solver service on an ephemeral port (jsonl cache)."""
    from repro.campaign import ResultCache
    from repro.service.server import make_server

    srv = make_server(port=0, cache=ResultCache(tmp_path / "server-cache"))
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    srv.service.close()
    thread.join(timeout=5)


def pipeline_mapping(app, platform, parts, kinds=None):
    """Build a PipelineMapping from ``[(stages, procs), ...]`` shorthand."""
    kinds = kinds or [AssignmentKind.REPLICATED] * len(parts)
    groups = tuple(
        GroupAssignment(stages=tuple(stages), processors=tuple(procs), kind=kind)
        for (stages, procs), kind in zip(parts, kinds)
    )
    return PipelineMapping(application=app, platform=platform, groups=groups)


def fork_mapping(app, platform, parts, kinds=None):
    kinds = kinds or [AssignmentKind.REPLICATED] * len(parts)
    cls = ForkJoinMapping if isinstance(app, ForkJoinApplication) else ForkMapping
    groups = tuple(
        GroupAssignment(stages=tuple(stages), processors=tuple(procs), kind=kind)
        for (stages, procs), kind in zip(parts, kinds)
    )
    return cls(application=app, platform=platform, groups=groups)
