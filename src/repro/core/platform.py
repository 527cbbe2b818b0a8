"""Target platforms: clusters of (possibly different-speed) processors.

The paper targets a fully interconnected clique of ``p`` processors
:math:`P_1..P_p` where :math:`P_u` has speed :math:`s_u` (Section 3.2).  A
platform is *homogeneous* when all speeds are equal, *heterogeneous*
otherwise.  The simplified model (Section 3.4) ignores the interconnect; the
general model attaches a bandwidth :math:`b_{u,v}` to every processor pair,
plus two virtual processors ``Pin``/``Pout`` for the outside world, which we
expose through an optional :class:`Interconnect`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from .exceptions import InvalidPlatformError

__all__ = ["Processor", "Interconnect", "Platform", "IN", "OUT"]

#: Virtual processor indices for the outside world (general model only).
IN = -1
OUT = -2

_REL_TOL = 1e-12


@dataclass(frozen=True, slots=True)
class Processor:
    """One processor :math:`P_u` with speed :math:`s_u`.

    ``index`` is 0-based.  Executing ``X`` operations takes ``X / speed``
    time units (linear cost model).
    """

    index: int
    speed: float

    def __post_init__(self) -> None:
        if self.speed <= 0:
            raise InvalidPlatformError(
                f"processor {self.index}: speed must be positive, got {self.speed!r}"
            )

    @property
    def label(self) -> str:
        return f"P{self.index + 1}"


@dataclass(frozen=True)
class Interconnect:
    """Bandwidths of the (virtual) clique, for the general model.

    ``bandwidth[u][v]`` is :math:`b_{u,v}`; sending a message of size ``X``
    over the link takes ``X / b_{u,v}`` time units.  ``in_bandwidths[u]`` /
    ``out_bandwidths[u]`` are the links from ``Pin`` to :math:`P_u` and from
    :math:`P_u` to ``Pout``.  The simplified model never consults this class.
    """

    bandwidth: tuple[tuple[float, ...], ...]
    in_bandwidths: tuple[float, ...]
    out_bandwidths: tuple[float, ...]

    def __post_init__(self) -> None:
        p = len(self.bandwidth)
        for row in self.bandwidth:
            if len(row) != p:
                raise InvalidPlatformError("bandwidth matrix must be square")
            for b in row:
                if b <= 0:
                    raise InvalidPlatformError("bandwidths must be positive")
        if len(self.in_bandwidths) != p or len(self.out_bandwidths) != p:
            raise InvalidPlatformError(
                "in/out bandwidth vectors must have one entry per processor"
            )
        for b in (*self.in_bandwidths, *self.out_bandwidths):
            if b <= 0:
                raise InvalidPlatformError("bandwidths must be positive")

    @classmethod
    def uniform(cls, p: int, bandwidth: float = 1.0) -> "Interconnect":
        """All links share one bandwidth (homogeneous interconnect)."""
        row = (float(bandwidth),) * p
        return cls(
            bandwidth=tuple(row for _ in range(p)),
            in_bandwidths=row,
            out_bandwidths=row,
        )

    def link(self, u: int, v: int) -> float:
        """Bandwidth between endpoints; endpoints may be :data:`IN`/:data:`OUT`."""
        if u == IN:
            return self.in_bandwidths[v]
        if v == OUT:
            return self.out_bandwidths[u]
        return self.bandwidth[u][v]


@dataclass(frozen=True)
class Platform:
    """A cluster of processors, optionally with an interconnect description."""

    processors: tuple[Processor, ...]
    interconnect: Interconnect | None = field(default=None)

    def __post_init__(self) -> None:
        if not self.processors:
            raise InvalidPlatformError("a platform needs at least one processor")
        for k, proc in enumerate(self.processors):
            if proc.index != k:
                raise InvalidPlatformError(
                    f"processors must be numbered 0..p-1, got {proc.index} at {k}"
                )
        if self.interconnect is not None and len(
            self.interconnect.bandwidth
        ) != len(self.processors):
            raise InvalidPlatformError("interconnect size mismatch")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def homogeneous(
        cls, p: int, speed: float = 1.0, bandwidth: float | None = None
    ) -> "Platform":
        """``p`` identical processors (paper: *Homogeneous platform*)."""
        if p < 1:
            raise InvalidPlatformError("p must be >= 1")
        inter = None if bandwidth is None else Interconnect.uniform(p, bandwidth)
        return cls(
            processors=tuple(Processor(index=u, speed=speed) for u in range(p)),
            interconnect=inter,
        )

    @classmethod
    def heterogeneous(
        cls,
        speeds: Sequence[float],
        interconnect: Interconnect | None = None,
    ) -> "Platform":
        """Processors with the given speeds (paper: *Heterogeneous platform*)."""
        return cls(
            processors=tuple(
                Processor(index=u, speed=float(s)) for u, s in enumerate(speeds)
            ),
            interconnect=interconnect,
        )

    # ------------------------------------------------------------------
    # observers
    # ------------------------------------------------------------------
    @property
    def p(self) -> int:
        """Number of processors."""
        return len(self.processors)

    @property
    def speeds(self) -> tuple[float, ...]:
        return tuple(proc.speed for proc in self.processors)

    @property
    def total_speed(self) -> float:
        """Aggregate compute capacity :math:`\\sum_u s_u`."""
        return sum(self.speeds)

    @property
    def is_homogeneous(self) -> bool:
        first = self.processors[0].speed
        return all(
            abs(proc.speed - first) <= _REL_TOL * max(1.0, first)
            for proc in self.processors
        )

    @property
    def fastest(self) -> Processor:
        """The fastest processor (ties broken by lowest index)."""
        return max(self.processors, key=lambda proc: (proc.speed, -proc.index))

    def sorted_by_speed(self, descending: bool = False) -> tuple[Processor, ...]:
        """Processors sorted by speed (stable; ties keep index order)."""
        return tuple(
            sorted(self.processors, key=lambda proc: proc.speed, reverse=descending)
        )

    def subset_speeds(self, indices: Sequence[int]) -> tuple[float, ...]:
        """Speeds of the given processor indices (order preserved)."""
        return tuple(self.processors[u].speed for u in indices)

    def min_speed(self, indices: Sequence[int]) -> float:
        return min(self.subset_speeds(indices))

    def sum_speed(self, indices: Sequence[int]) -> float:
        return sum(self.subset_speeds(indices))
