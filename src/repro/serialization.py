"""JSON-friendly serialization of instances, mappings and solutions.

Round-trippable dictionaries for every model object, so instances can be
stored in files, shipped to the CLI (``python -m repro solve --file
instance.json``) and solutions archived next to benchmark reports.

Format (versioned, one top-level ``kind`` discriminator)::

    {"kind": "pipeline", "works": [...], "data_sizes": [...],
     "dp_overheads": [...]}
    {"kind": "fork", "root_work": w0, "branch_works": [...]}
    {"kind": "fork-join", "root_work": w0, "branch_works": [...],
     "join_work": wj}
    {"kind": "platform", "speeds": [...], "bandwidth": b | null}
    {"kind": "instance", "application": {...}, "platform": {...},
     "allow_data_parallel": true | false}
    {"kind": "mapping", "application": {...}, "platform": {...},
     "groups": [{"stages": [...], "processors": [...],
                 "assignment": "replicated" | "data-parallel"}]}

Canonical hashing
-----------------
The campaign subsystem (:mod:`repro.campaign`) keys its persistent result
cache on :func:`content_hash` of canonical documents.  Canonicalization
(:func:`canonical_instance_dict`) round-trips a document through the model
classes (normalizing ints vs floats and dropping empty optional fields) and
sorts the permutation-invariant parts — platform speeds and fork/fork-join
branch works — so that permuted-equivalent constructions of the *same*
instance hash identically, while any change to an actual model field
changes the hash.
"""

from __future__ import annotations

import hashlib
import json

from .core.application import (
    ForkApplication,
    ForkJoinApplication,
    PipelineApplication,
)
from .core.exceptions import ReproError
from .core.mapping import (
    AssignmentKind,
    ForkJoinMapping,
    ForkMapping,
    GroupAssignment,
    PipelineMapping,
)
from .core.platform import Platform

__all__ = [
    "application_to_dict",
    "application_from_dict",
    "platform_to_dict",
    "platform_from_dict",
    "spec_to_dict",
    "spec_from_dict",
    "mapping_to_dict",
    "mapping_from_dict",
    "dumps",
    "loads",
    "canonical_json",
    "content_hash",
    "normalized_instance_dict",
    "canonical_instance_dict",
    "instance_digest",
]


# ---------------------------------------------------------------- applications
def application_to_dict(app) -> dict:
    if isinstance(app, ForkJoinApplication):
        return {
            "kind": "fork-join",
            "root_work": app.root.work,
            "branch_works": list(app.branch_works),
            "join_work": app.join.work,
        }
    if isinstance(app, ForkApplication):
        return {
            "kind": "fork",
            "root_work": app.root.work,
            "branch_works": list(app.branch_works),
        }
    if isinstance(app, PipelineApplication):
        out = {"kind": "pipeline", "works": list(app.works)}
        sizes = [app.stages[0].input_size] + [
            stage.output_size for stage in app.stages
        ]
        if any(sizes):
            out["data_sizes"] = sizes
        overheads = [stage.dp_overhead for stage in app.stages]
        if any(overheads):
            out["dp_overheads"] = overheads
        return out
    raise ReproError(f"cannot serialize {type(app).__name__}")


def application_from_dict(data: dict):
    kind = data.get("kind")
    if kind == "pipeline":
        return PipelineApplication.from_works(
            data["works"],
            data_sizes=data.get("data_sizes"),
            dp_overheads=data.get("dp_overheads"),
        )
    if kind == "fork":
        return ForkApplication.from_works(
            data["root_work"], data["branch_works"]
        )
    if kind == "fork-join":
        return ForkJoinApplication.from_works(
            data["root_work"], data["branch_works"], data["join_work"]
        )
    raise ReproError(f"unknown application kind {kind!r}")


# ---------------------------------------------------------------- platforms
def platform_to_dict(platform: Platform) -> dict:
    out: dict = {"kind": "platform", "speeds": list(platform.speeds)}
    if platform.interconnect is not None:
        bandwidths = {
            *(b for row in platform.interconnect.bandwidth for b in row),
            *platform.interconnect.in_bandwidths,
            *platform.interconnect.out_bandwidths,
        }
        if len(bandwidths) != 1:
            raise ReproError(
                "only uniform interconnects are serializable"
            )
        out["bandwidth"] = next(iter(bandwidths))
    return out


def platform_from_dict(data: dict) -> Platform:
    if data.get("kind") != "platform":
        raise ReproError(f"not a platform document: {data.get('kind')!r}")
    bandwidth = data.get("bandwidth")
    if bandwidth is None:
        return Platform.heterogeneous(data["speeds"])
    from .core.platform import Interconnect

    speeds = data["speeds"]
    return Platform.heterogeneous(
        speeds, interconnect=Interconnect.uniform(len(speeds), bandwidth)
    )


# ---------------------------------------------------------------- instances
def spec_to_dict(spec) -> dict:
    """Serialize a :class:`~repro.algorithms.problem.ProblemSpec`."""
    return {
        "kind": "instance",
        "application": application_to_dict(spec.application),
        "platform": platform_to_dict(spec.platform),
        "allow_data_parallel": bool(spec.allow_data_parallel),
    }


def spec_from_dict(data: dict):
    """Deserialize an ``{"kind": "instance", ...}`` document."""
    from .algorithms.problem import ProblemSpec

    if data.get("kind") != "instance":
        raise ReproError(f"not an instance document: {data.get('kind')!r}")
    return ProblemSpec(
        application=application_from_dict(data["application"]),
        platform=platform_from_dict(data["platform"]),
        allow_data_parallel=bool(data.get("allow_data_parallel", False)),
    )


# ---------------------------------------------------------------- mappings
def mapping_to_dict(mapping) -> dict:
    return {
        "kind": "mapping",
        "application": application_to_dict(mapping.application),
        "platform": platform_to_dict(mapping.platform),
        "groups": [
            {
                "stages": list(group.stages),
                "processors": list(group.processors),
                "assignment": group.kind.value,
            }
            for group in mapping.groups
        ],
    }


def mapping_from_dict(data: dict, spec=None):
    """Deserialize a ``{"kind": "mapping", ...}`` document.

    ``spec`` (a :class:`~repro.algorithms.problem.ProblemSpec` whose
    application and platform the document's own describe) skips decoding
    those two: only the groups are decoded, and the mapping is built
    against ``spec``'s application and platform.
    """
    if data.get("kind") != "mapping":
        raise ReproError(f"not a mapping document: {data.get('kind')!r}")
    if spec is None:
        app = application_from_dict(data["application"])
        platform = platform_from_dict(data["platform"])
    else:
        app, platform = spec.application, spec.platform
    groups = tuple(
        GroupAssignment(
            stages=tuple(entry["stages"]),
            processors=tuple(entry["processors"]),
            kind=AssignmentKind(entry["assignment"]),
        )
        for entry in data["groups"]
    )
    if isinstance(app, ForkJoinApplication):
        cls = ForkJoinMapping
    elif isinstance(app, ForkApplication):
        cls = ForkMapping
    else:
        cls = PipelineMapping
    return cls(application=app, platform=platform, groups=groups)


# ---------------------------------------------------------------- json text
def dumps(obj) -> str:
    """Serialize an application, platform or mapping to JSON text."""
    if isinstance(obj, Platform):
        return json.dumps(platform_to_dict(obj), indent=2)
    if isinstance(
        obj, (PipelineMapping, ForkMapping, ForkJoinMapping)
    ):
        return json.dumps(mapping_to_dict(obj), indent=2)
    return json.dumps(application_to_dict(obj), indent=2)


def loads(text: str):
    """Deserialize JSON text produced by :func:`dumps`."""
    data = json.loads(text)
    kind = data.get("kind")
    if kind == "platform":
        return platform_from_dict(data)
    if kind == "mapping":
        return mapping_from_dict(data)
    if kind == "instance":
        return spec_from_dict(data)
    return application_from_dict(data)


# ---------------------------------------------------------------- hashing
def canonical_json(data) -> str:
    """Deterministic JSON text: sorted keys, compact separators.

    Python's ``repr``-based float formatting is itself deterministic, so
    equal documents always produce byte-identical text.
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def content_hash(data) -> str:
    """SHA-256 hex digest of the canonical JSON form of ``data``."""
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()


def normalized_instance_dict(data: dict) -> dict:
    """Normal form of an application / platform / instance document.

    The document is round-tripped through the model classes, coercing ints
    to the floats the model stores and dropping empty optional fields —
    so hand-written and model-generated documents of the *same* instance
    normalize to byte-identical JSON.  Index order is preserved: mappings
    built against the original document stay valid against the normal
    form.  This is the form the campaign cache keys on.
    """
    kind = data.get("kind")
    if kind == "instance":
        return {
            "kind": "instance",
            "application": normalized_instance_dict(data["application"]),
            "platform": normalized_instance_dict(data["platform"]),
            "allow_data_parallel": bool(data.get("allow_data_parallel", False)),
        }
    if kind == "platform":
        return platform_to_dict(platform_from_dict(data))
    return application_to_dict(application_from_dict(data))


def canonical_instance_dict(data: dict) -> dict:
    """Like :func:`normalized_instance_dict`, plus permutation invariance.

    The permutation-invariant parts are additionally sorted:

    * platform ``speeds`` — processors are interchangeable up to speed;
    * fork / fork-join ``branch_works`` — branches are independent, so any
      reordering describes the same instance.

    Pipeline ``works`` (and ``data_sizes`` / ``dp_overheads``) keep their
    order: stage order is structural for a pipeline.

    NOTE: sorting re-indexes processors/branches, so this form identifies
    instances *up to renumbering* — right for value-level identity
    (:func:`instance_digest`, dedup, analysis), wrong as a key for cached
    artifacts that carry processor or branch indices (a mapping solved for
    ``speeds [1, 3]`` must not be served for ``speeds [3, 1]``); the
    campaign cache keys on :func:`normalized_instance_dict` instead.
    """
    doc = normalized_instance_dict(data)
    kind = doc.get("kind")
    if kind == "instance":
        doc["application"] = canonical_instance_dict(doc["application"])
        doc["platform"] = canonical_instance_dict(doc["platform"])
    elif kind == "platform":
        doc["speeds"] = sorted(doc["speeds"], reverse=True)
    elif kind in ("fork", "fork-join"):
        doc["branch_works"] = sorted(doc["branch_works"], reverse=True)
    return doc


def instance_digest(data: dict) -> str:
    """Content hash of the canonical form of an instance-shaped document.

    Permutation-invariant: equivalent constructions of one instance (any
    processor or branch ordering) digest identically.
    """
    return content_hash(canonical_instance_dict(data))
