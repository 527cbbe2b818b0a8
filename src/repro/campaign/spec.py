"""Declarative experiment campaigns: what to solve, with which solvers.

A :class:`CampaignSpec` is a versioned, JSON-round-trippable description of
a grid of *instances* x *objectives* x *solver configurations*.  Expanding
a spec yields the flat, deterministic list of :class:`Task` rows that
:mod:`repro.campaign.runner` executes (in any order) and re-assembles.

Instance sources (the ``instances`` list) come in three shapes::

    {"type": "explicit", "application": {...}, "platform": {...},
     "allow_data_parallel": false, "id": "optional-name"}
    {"type": "scenario", "name": "image-pipeline"}
    {"type": "random", "graph": "pipeline" | "fork" | "forkjoin",
     "count": 20, "seed": 7, "n": 5 | [4, 7], "p": 4 | [3, 6],
     "work_low": 1, "work_high": 20, "speed_low": 1, "speed_high": 10,
     "homogeneous_app": false, "homogeneous_platform": false,
     "allow_data_parallel": false}

Random families draw through :mod:`repro.generators` from an explicit seed,
so a spec document *is* the experiment: the same file always expands to the
same instances, hence the same cache keys.

Objectives are ``{"objective": "period" | "latency",
"period_bound": K | null, "latency_bound": K | null}`` (a bare string is
accepted as shorthand).  Solver configurations are :class:`SolverConfig`.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass, field, replace

from ..algorithms import ENGINES
from ..algorithms.budget import Budget
from ..core.exceptions import ReproError
from ..generators import (
    random_fork,
    random_forkjoin,
    random_pipeline,
    random_platform,
)
from ..serialization import (
    application_to_dict,
    content_hash,
    normalized_instance_dict,
    platform_to_dict,
)

__all__ = [
    "SPEC_VERSION",
    "SolverConfig",
    "Task",
    "CampaignSpec",
    "canonical_solver_dict",
]

#: Version of the campaign spec document format (checked on load).
SPEC_VERSION = 1

_MODES = ("auto", "exact", "heuristic", "random")


@dataclass(frozen=True)
class SolverConfig:
    """One solver column of the campaign grid.

    ``mode`` selects the route:

    * ``"auto"`` — :func:`repro.solve` (polynomial algorithm when one
      exists; ``exact_fallback`` enables the exponential exact solvers for
      NP-hard cells, searched with ``engine``);
    * ``"exact"`` — force the exhaustive reference
      (:func:`repro.algorithms.brute_force.optimal` with ``engine``) even
      on polynomial cells — the ground-truth column of agreement and
      heuristic-gap campaigns;
    * ``"heuristic"`` — the heuristic portfolio (pipeline period portfolio,
      fork-latency LPT), seeded by ``seed``;
    * ``"random"`` — best of ``samples`` random valid mappings, the honesty
      baseline, seeded by ``seed``.

    ``max_seconds`` / ``max_nodes`` cap exact solves (modes ``"auto"`` and
    ``"exact"``) with a :class:`repro.Budget`; exhausted solves come back
    as anytime rows (``execution.status == "budget_exhausted"``) instead
    of running forever.  Budget knobs join the cache key, so a budgeted
    row never aliases an exact one.

    ``engine`` is one of ``"bnb"``, ``"enumerate"`` or ``"milp"`` (the
    MILP formulation of :mod:`repro.algorithms.milp`, which needs its
    optional backend installed on the workers).  The engine already keys
    the cache for exact-capable modes, so selecting ``"milp"`` never
    aliases a combinatorial row and pre-existing keys are untouched.
    """

    name: str
    mode: str = "auto"
    exact_fallback: bool = False
    engine: str = "bnb"
    seed: int = 0
    samples: int = 64
    max_seconds: float | None = None
    max_nodes: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ReproError(
                f"unknown solver mode {self.mode!r}; choose from {_MODES}"
            )
        if self.engine not in ENGINES:
            raise ReproError(
                f"unknown exact engine {self.engine!r}; choose from {ENGINES}"
            )
        if self.samples < 1:
            raise ReproError("samples must be >= 1")
        # validate the budget knobs eagerly (Budget.__post_init__ raises)
        Budget.from_mapping(
            {"max_seconds": self.max_seconds, "max_nodes": self.max_nodes}
        )

    def budget(self) -> "Budget | None":
        """The solve :class:`repro.Budget`, or ``None`` when unbudgeted."""
        return Budget.from_mapping(
            {"max_seconds": self.max_seconds, "max_nodes": self.max_nodes}
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "mode": self.mode,
            "exact_fallback": self.exact_fallback,
            "engine": self.engine,
            "seed": self.seed,
            "samples": self.samples,
            "max_seconds": self.max_seconds,
            "max_nodes": self.max_nodes,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SolverConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ReproError(f"unknown solver config fields {sorted(unknown)}")
        if "name" not in data:
            raise ReproError("solver config needs a 'name'")
        return cls(**data)


def canonical_solver_dict(cfg: dict) -> dict:
    """The result-determining subset of a solver config document.

    The display ``name`` and the knobs irrelevant to the selected mode
    (e.g. ``samples`` for an ``"auto"`` solve) are dropped, so two configs
    that cannot produce different results share one cache key.
    """
    mode = cfg.get("mode", "auto")
    out: dict = {"mode": mode}
    if mode == "auto":
        out["exact_fallback"] = bool(cfg.get("exact_fallback", False))
        out["engine"] = cfg.get("engine", "bnb")
    elif mode == "exact":
        out["engine"] = cfg.get("engine", "bnb")
    if mode in ("auto", "exact"):
        # budget knobs change the result, so they key — but only when set,
        # keeping every pre-budget cache key byte-identical
        for knob in ("max_seconds", "max_nodes"):
            if cfg.get(knob) is not None:
                out[knob] = cfg[knob]
    if mode == "heuristic":
        out["seed"] = cfg.get("seed", 0)
    elif mode == "random":
        out["seed"] = cfg.get("seed", 0)
        out["samples"] = cfg.get("samples", 64)
    return out


@dataclass(frozen=True)
class Task:
    """One fully-specified solve: instance x objective x solver.

    ``key`` is the content-addressed cache key: it hashes the *normalized*
    instance document together with every field that can change the result
    (objective, bounds, the canonical solver config), so equivalent
    hand-written and generated documents hit the same cache row while any
    change of objective, bound or result-relevant solver knob misses.
    The normalized form deliberately preserves processor/branch order
    (unlike :func:`repro.serialization.instance_digest`): cached rows
    carry mapping documents whose indices must match the instance they
    are served for.

    ``normalized_instance`` optionally carries the already-normalized
    instance document, so the tasks of one instance share a single
    normalization; it is derived data, takes no part in equality, and
    is released once :attr:`key` has been computed.
    """

    index: int
    instance_id: str
    instance: dict  # {"kind": "instance", ...}
    objective: str
    period_bound: float | None
    latency_bound: float | None
    solver: dict  # SolverConfig document
    normalized_instance: dict | None = field(
        default=None, compare=False, repr=False
    )

    @functools.cached_property
    def key(self) -> str:
        # cached: the normalization round-trip + sha256 is pure but not
        # free, and the orchestration loop reads the key more than once
        instance = self.normalized_instance
        if instance is None:
            instance = _normalized_or_none(self.instance)
        if instance is None:
            # an invalid instance document cannot be normalized; hash it
            # raw so the task still gets a stable key and its failure is
            # recorded as an error row instead of killing the campaign
            instance = {"raw": self.instance}
        key = content_hash({
            "instance": instance,
            "objective": self.objective,
            "period_bound": self.period_bound,
            "latency_bound": self.latency_bound,
            "solver": canonical_solver_dict(self.solver),
        })
        # the normalized document only feeds the key: a task list held
        # for a whole run must not keep one per instance alive
        object.__setattr__(self, "normalized_instance", None)
        return key

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "instance_id": self.instance_id,
            "instance": self.instance,
            "objective": self.objective,
            "period_bound": self.period_bound,
            "latency_bound": self.latency_bound,
            "solver": self.solver,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Task":
        return cls(**data)


def _normalized_or_none(doc: dict) -> dict | None:
    """:func:`normalized_instance_dict` of ``doc``, ``None`` if invalid."""
    try:
        return normalized_instance_dict(doc)
    except Exception:  # noqa: BLE001 — poisoned docs must still key
        return None


def _normalize_objective(entry) -> dict:
    if isinstance(entry, str):
        entry = {"objective": entry}
    objective = entry.get("objective")
    if objective not in ("period", "latency"):
        raise ReproError(
            f"objective must be 'period' or 'latency', got {objective!r}"
        )
    unknown = set(entry) - {"objective", "period_bound", "latency_bound"}
    if unknown:
        raise ReproError(f"unknown objective fields {sorted(unknown)}")
    return {
        "objective": objective,
        "period_bound": entry.get("period_bound"),
        "latency_bound": entry.get("latency_bound"),
    }


def _span(value, what: str) -> tuple[int, int]:
    if isinstance(value, int):
        return value, value
    if (
        isinstance(value, (list, tuple)) and len(value) == 2
        and all(isinstance(v, int) for v in value)
    ):
        return value[0], value[1]
    raise ReproError(f"{what} must be an int or [min, max], got {value!r}")


_SOURCE_FIELDS = {
    "explicit": {"type", "application", "platform", "allow_data_parallel",
                 "id"},
    "scenario": {"type", "name"},
    "random": {"type", "graph", "count", "seed", "n", "p",
               "work_low", "work_high", "speed_low", "speed_high",
               "homogeneous_app", "homogeneous_platform",
               "allow_data_parallel"},
}


def _check_source_fields(source: dict, stype: str) -> None:
    # a spec file IS the experiment: a typo'd knob must fail loudly, not
    # silently fall back to a default and poison the cache with wrong rows
    unknown = set(source) - _SOURCE_FIELDS[stype]
    if unknown:
        raise ReproError(
            f"unknown fields {sorted(unknown)} in {stype!r} instance "
            f"source (known: {sorted(_SOURCE_FIELDS[stype])})"
        )


def _expand_random(source: dict) -> list[tuple[str, dict]]:
    graph = source.get("graph", "pipeline")
    makers = {
        "pipeline": random_pipeline,
        "fork": random_fork,
        "forkjoin": random_forkjoin,
    }
    if graph not in makers:
        raise ReproError(f"unknown graph {graph!r} in random instance source")
    if "seed" not in source:
        raise ReproError("random instance source needs an explicit 'seed'")
    count = source.get("count", 1)
    seed = source["seed"]
    n_lo, n_hi = _span(source.get("n", 5), "n")
    p_lo, p_hi = _span(source.get("p", 4), "p")
    rng = random.Random(seed)
    out = []
    for i in range(count):
        app = makers[graph](
            rng,
            rng.randint(n_lo, n_hi),
            low=source.get("work_low", 1),
            high=source.get("work_high", 20),
            homogeneous=source.get("homogeneous_app", False),
        )
        plat = random_platform(
            rng,
            rng.randint(p_lo, p_hi),
            low=source.get("speed_low", 1),
            high=source.get("speed_high", 10),
            homogeneous=source.get("homogeneous_platform", False),
        )
        doc = {
            "kind": "instance",
            "application": application_to_dict(app),
            "platform": platform_to_dict(plat),
            "allow_data_parallel": bool(
                source.get("allow_data_parallel", False)
            ),
        }
        out.append((f"{graph}-s{seed}-{i:03d}", doc))
    return out


def _expand_source(source: dict) -> list[tuple[str, dict]]:
    stype = source.get("type")
    if stype in _SOURCE_FIELDS:
        _check_source_fields(source, stype)
    if stype == "explicit":
        doc = {
            "kind": "instance",
            "application": source["application"],
            "platform": source["platform"],
            "allow_data_parallel": bool(
                source.get("allow_data_parallel", False)
            ),
        }
        return [(source.get("id") or f"explicit-{content_hash(doc)[:8]}", doc)]
    if stype == "scenario":
        from ..generators import get_scenario

        sc = get_scenario(source["name"])
        doc = {
            "kind": "instance",
            "application": application_to_dict(sc.application),
            "platform": platform_to_dict(sc.platform),
            "allow_data_parallel": sc.allow_data_parallel,
        }
        return [(sc.name, doc)]
    if stype == "random":
        return _expand_random(source)
    raise ReproError(
        f"unknown instance source type {stype!r}; "
        "choose from ('explicit', 'scenario', 'random')"
    )


@dataclass(frozen=True)
class CampaignSpec:
    """A full experiment campaign: instances x objectives x solvers."""

    name: str
    instances: tuple = ()
    objectives: tuple = ("period",)
    solvers: tuple = field(
        default_factory=lambda: (SolverConfig(name="auto"),)
    )
    version: int = SPEC_VERSION

    def __post_init__(self) -> None:
        if self.version != SPEC_VERSION:
            raise ReproError(
                f"unsupported campaign spec version {self.version!r} "
                f"(this library reads version {SPEC_VERSION})"
            )
        if not self.instances:
            raise ReproError("campaign needs at least one instance source")
        if not self.solvers:
            raise ReproError("campaign needs at least one solver config")
        object.__setattr__(
            self,
            "objectives",
            tuple(_normalize_objective(o) for o in self.objectives),
        )
        object.__setattr__(self, "instances", tuple(self.instances))
        object.__setattr__(
            self,
            "solvers",
            tuple(
                s if isinstance(s, SolverConfig) else SolverConfig.from_dict(s)
                for s in self.solvers
            ),
        )
        names = [s.name for s in self.solvers]
        if len(set(names)) != len(names):
            raise ReproError(f"duplicate solver names in {names}")

    # -------------------------------------------------------------- expand
    def expand_instances(self) -> list[tuple[str, dict]]:
        """Flatten the instance sources into ``(instance_id, doc)`` pairs."""
        out: list[tuple[str, dict]] = []
        seen: dict[str, int] = {}
        for source in self.instances:
            for iid, doc in _expand_source(dict(source)):
                if iid in seen:
                    seen[iid] += 1
                    iid = f"{iid}#{seen[iid]}"
                else:
                    seen[iid] = 0
                out.append((iid, doc))
        return out

    def tasks(self) -> list[Task]:
        """The flat task grid, in deterministic order, keys computed."""
        out: list[Task] = []
        index = 0
        for iid, doc in self.expand_instances():
            # normalize once per instance, not once per objective x solver
            normalized = _normalized_or_none(doc)
            for obj in self.objectives:
                for solver in self.solvers:
                    task = Task(
                        index=index,
                        instance_id=iid,
                        instance=doc,
                        objective=obj["objective"],
                        period_bound=obj["period_bound"],
                        latency_bound=obj["latency_bound"],
                        solver=solver.to_dict(),
                        normalized_instance=normalized,
                    )
                    # key now, while this instance's normalized document
                    # is shared; a whole grid of them is never held at once
                    task.key
                    out.append(task)
                    index += 1
        return out

    # -------------------------------------------------------------- json
    def to_dict(self) -> dict:
        return {
            "kind": "campaign",
            "version": self.version,
            "name": self.name,
            "instances": [dict(s) for s in self.instances],
            "objectives": [dict(o) for o in self.objectives],
            "solvers": [s.to_dict() for s in self.solvers],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignSpec":
        if data.get("kind") != "campaign":
            raise ReproError(
                f"not a campaign document: {data.get('kind')!r}"
            )
        return cls(
            name=data.get("name", "campaign"),
            instances=tuple(data.get("instances", ())),
            objectives=tuple(data.get("objectives", ("period",))),
            solvers=tuple(data.get("solvers", ({"name": "auto"},))),
            version=data.get("version", SPEC_VERSION),
        )

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def loads(cls, text: str) -> "CampaignSpec":
        return cls.from_dict(json.loads(text))

    def with_solvers(self, *solvers: SolverConfig) -> "CampaignSpec":
        return replace(self, solvers=tuple(solvers))
