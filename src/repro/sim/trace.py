"""Protocol annotations for simulation debugging and assertions in tests.

Protocol modules emit *annotations* (named, typed moments like
``"mac.collision"``) through :meth:`Tracer.annotate`, which tests use to
assert behavioural sequences without poking at internals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

__all__ = ["Annotation", "Tracer"]


@dataclass(frozen=True)
class Annotation:
    """A protocol-level moment recorded via :meth:`Tracer.annotate`."""

    time: float
    kind: str
    data: Dict[str, Any] = field(default_factory=dict)


class Tracer:
    """Collects protocol annotations."""

    def __init__(self) -> None:
        self.annotations: List[Annotation] = []

    def annotate(self, time: float, kind: str, **data: Any) -> None:
        """Record a protocol moment (e.g. ``mac.collision``, ``policy.lower``)."""
        self.annotations.append(Annotation(time, kind, data))

    def of_kind(self, kind: str) -> List[Annotation]:
        """All annotations with the given kind, in time order."""
        return [a for a in self.annotations if a.kind == kind]

    def count(self, kind: str) -> int:
        """Number of annotations of ``kind``."""
        return sum(1 for a in self.annotations if a.kind == kind)
