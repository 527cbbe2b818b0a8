"""Prometheus-style metrics primitives (stdlib only).

A :class:`MetricsRegistry` holds named metric families —
:class:`Counter`, :class:`Gauge`, :class:`Histogram` — each optionally
labeled; :meth:`MetricsRegistry.render` produces the Prometheus text
exposition format (``text/plain; version=0.0.4``) the solver service
serves at ``GET /metrics``.

Design points:

* **thread-safe** — every family guards its children and values with
  one lock; rendering snapshots under the same lock, so a scrape never
  sees a half-updated histogram;
* **labeled series** — ``family.labels(engine="bnb", status="ok")``
  returns (and memoizes) the child for that label combination; a family
  declared without label names is its own single child;
* **fixed log-scale latency buckets** — :data:`LATENCY_BUCKETS` spans
  0.5 ms to 60 s in a 1-2.5-5 progression, wide enough for both
  sub-millisecond cache hits and minute-scale exact solves;
* **zero-cost when unused** — :data:`NULL_REGISTRY` hands out no-op
  metrics, so instrumented call sites need no ``if metrics:`` guards;
* **registration is idempotent** — asking for an existing name with the
  same type and label names returns the existing family (so independent
  components can share a registry); a conflicting redeclaration raises.

>>> registry = MetricsRegistry()
>>> c = registry.counter("jobs_total", "Jobs processed.", ("status",))
>>> c.labels(status="ok").inc()
>>> print(registry.render(), end="")
# HELP jobs_total Jobs processed.
# TYPE jobs_total counter
jobs_total{status="ok"} 1
"""

from __future__ import annotations

import re
import threading

from ..core.exceptions import ReproError

__all__ = [
    "LATENCY_BUCKETS",
    "NULL_REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Fixed log-scale histogram buckets (seconds): 1-2.5-5 per decade from
#: 0.5 ms to 60 s.  The implicit ``+Inf`` bucket is always appended.
LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _format_value(value: float) -> str:
    """A Prometheus sample value: integral floats render without a dot."""
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace("\n", r"\n")
        .replace('"', r"\"")
    )


def _render_labels(labelnames: tuple, labelvalues: tuple,
                   extra: tuple = ()) -> str:
    pairs = [
        f'{name}="{_escape_label(value)}"'
        for name, value in zip(labelnames, labelvalues)
    ]
    pairs.extend(f'{name}="{_escape_label(value)}"' for name, value in extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


# ----------------------------------------------------------------------
# metric families
# ----------------------------------------------------------------------
class _Family:
    """Base: a named metric with zero or more labeled children."""

    kind = "untyped"

    def __init__(self, name: str, help: str,  # noqa: A002 — prom term
                 labelnames: tuple = ()) -> None:
        if not _NAME_RE.match(name):
            raise ReproError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ReproError(f"invalid label name {label!r}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: dict[tuple, object] = {}
        if not self.labelnames:
            # an unlabeled family is its own single child
            self._children[()] = self._make_child()

    def _make_child(self):
        raise NotImplementedError

    def labels(self, **labelvalues):
        """The child bound to these label values (created on first use)."""
        if set(labelvalues) != set(self.labelnames):
            raise ReproError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._make_child()
            return child

    def _samples(self) -> list[tuple[str, str, float]]:
        """``(suffix, label-string, value)`` triples, snapshotted."""
        raise NotImplementedError

    def render(self) -> str:
        lines = [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} {self.kind}",
        ]
        with self._lock:
            for suffix, labelstr, value in self._samples():
                lines.append(
                    f"{self.name}{suffix}{labelstr} {_format_value(value)}"
                )
        return "\n".join(lines) + "\n"


class _CounterChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ReproError("counters can only increase")
        self.value += amount

    def set_to(self, value: float) -> None:
        """Mirror a count kept elsewhere (scrape-time sync).

        The solver service mirrors its result cache's own hit/miss/put
        counters this way.
        """
        self.value = float(value)


class Counter(_Family):
    """Monotonically increasing count (``*_total`` by convention)."""

    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._children[()].inc(amount)

    def set_to(self, value: float) -> None:
        with self._lock:
            self._children[()].set_to(value)

    def value(self, **labelvalues) -> float:
        child = self.labels(**labelvalues) if labelvalues \
            else self._children[()]
        return child.value

    def total(self) -> float:
        """Sum over every child (every labeled series) of the family."""
        with self._lock:
            return sum(child.value for child in self._children.values())

    def _samples(self):
        return [
            ("", _render_labels(self.labelnames, key), child.value)
            for key, child in sorted(self._children.items())
        ]


class _GaugeChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Gauge(_Family):
    """A value that can go up and down (pool sizes, breaker state)."""

    kind = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float) -> None:
        with self._lock:
            self._children[()].set(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._children[()].inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._children[()].dec(amount)

    def value(self, **labelvalues) -> float:
        child = self.labels(**labelvalues) if labelvalues \
            else self._children[()]
        return child.value

    def _samples(self):
        return [
            ("", _render_labels(self.labelnames, key), child.value)
            for key, child in sorted(self._children.items())
        ]


class _HistogramChild:
    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: tuple) -> None:
        self.buckets = buckets
        self.counts = [0] * len(buckets)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        # counts are per-bucket; rendering accumulates them into the
        # cumulative le= form the exposition format requires
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                break


class Histogram(_Family):
    """Distribution with fixed upper-bound buckets (cumulative render)."""

    kind = "histogram"

    def __init__(self, name: str, help: str,  # noqa: A002 — prom term
                 labelnames: tuple = (),
                 buckets: tuple = LATENCY_BUCKETS) -> None:
        buckets = tuple(float(b) for b in buckets)
        if not buckets or any(
            b2 <= b1 for b1, b2 in zip(buckets, buckets[1:])
        ):
            raise ReproError(
                f"histogram buckets must be non-empty and strictly "
                f"increasing, got {buckets}"
            )
        self.buckets = buckets
        super().__init__(name, help, labelnames)

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        with self._lock:
            self._children[()].observe(value)

    def child(self, **labelvalues) -> _HistogramChild:
        return self.labels(**labelvalues) if labelvalues \
            else self._children[()]

    def _samples(self):
        samples = []
        for key, child in sorted(self._children.items()):
            cumulative = 0
            for bound, count in zip(self.buckets, child.counts):
                cumulative += count
                samples.append((
                    "_bucket",
                    _render_labels(self.labelnames, key,
                                   extra=(("le", _format_value(bound)),)),
                    float(cumulative),
                ))
            samples.append((
                "_bucket",
                _render_labels(self.labelnames, key, extra=(("le", "+Inf"),)),
                float(child.count),
            ))
            labelstr = _render_labels(self.labelnames, key)
            samples.append(("_sum", labelstr, child.sum))
            samples.append(("_count", labelstr, float(child.count)))
        return samples


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class MetricsRegistry:
    """A named collection of metric families with text exposition."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    def _register(self, cls, name, help, labelnames,  # noqa: A002
                  **kwargs) -> _Family:
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if (type(existing) is not cls
                        or existing.labelnames != tuple(labelnames)):
                    raise ReproError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__} with labels "
                        f"{existing.labelnames}"
                    )
                return existing
            family = cls(name, help, tuple(labelnames), **kwargs)
            self._families[name] = family
            return family

    def counter(self, name: str, help: str,  # noqa: A002 — prom term
                labelnames: tuple = ()) -> Counter:
        return self._register(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str,  # noqa: A002 — prom term
              labelnames: tuple = ()) -> Gauge:
        return self._register(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str,  # noqa: A002 — prom term
                  labelnames: tuple = (),
                  buckets: tuple = LATENCY_BUCKETS) -> Histogram:
        return self._register(Histogram, name, help, labelnames,
                              buckets=buckets)

    def render(self) -> str:
        """The full registry in Prometheus text exposition format."""
        with self._lock:
            families = [self._families[n] for n in sorted(self._families)]
        return "".join(family.render() for family in families)


# ----------------------------------------------------------------------
# null objects: instrumentation that compiles to nothing
# ----------------------------------------------------------------------
class _NullMetric:
    """Absorbs every metric operation; ``labels()`` returns itself."""

    def labels(self, **labelvalues):
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_to(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


class _NullRegistry:
    """Hands out no-op metrics so call sites need no ``if`` guards."""

    def counter(self, name, help, labelnames=()):  # noqa: A002
        return _NULL_METRIC

    def gauge(self, name, help, labelnames=()):  # noqa: A002
        return _NULL_METRIC

    def histogram(self, name, help, labelnames=(),  # noqa: A002
                  buckets=LATENCY_BUCKETS):
        return _NULL_METRIC

    def render(self) -> str:
        return ""


_NULL_METRIC = _NullMetric()

#: Shared no-op registry (zero-cost instrumentation when metrics are off).
NULL_REGISTRY = _NullRegistry()
