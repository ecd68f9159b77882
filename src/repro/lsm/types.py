"""Core value types for the LSM engine.

The engine stores :class:`Cell` records: ``(key, ts, value)`` where a
``None`` value is a **tombstone**.  Following HBase semantics (on which
the paper's correctness argument depends), a tombstone written at
timestamp ``ts`` masks every version of the same key with a timestamp
``<= ts`` — even versions physically written *after* the tombstone.  That
masking rule is what makes out-of-order AUQ delivery and crash-replay
re-delivery idempotent (paper §4.3, §5.3).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

__all__ = ["Cell", "KeyRange", "DELTA_MS", "cell_size"]

# The paper's δ: "an infinite small time unit; in HBase implementation we
# choose 1 millisecond as it is the smallest time unit."
DELTA_MS = 1


@dataclasses.dataclass(frozen=True, order=True, slots=True)
class Cell:
    """One version of one key.  ``value is None`` marks a tombstone.

    Ordering is ``(key asc, ts asc)``; iterators that need newest-first
    within a key sort on ``(key, -ts)`` explicitly.
    """

    key: bytes
    ts: int
    value: Optional[bytes] = dataclasses.field(compare=False, default=None)

    @property
    def is_tombstone(self) -> bool:
        return self.value is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "DEL" if self.is_tombstone else f"{self.value!r}"
        return f"Cell({self.key!r}@{self.ts}={kind})"


def cell_size(cell: Cell) -> int:
    """Approximate on-disk footprint in bytes (key + value + fixed header).

    The 24-byte header stands in for HBase's per-KeyValue overhead (row
    length, family, qualifier, timestamp, type).
    """
    return len(cell.key) + (len(cell.value) if cell.value is not None else 0) + 24


@dataclasses.dataclass(frozen=True, slots=True)
class KeyRange:
    """Half-open byte-key interval ``[start, end)``.

    ``start=b""`` means unbounded below; ``end=None`` unbounded above.
    Region boundaries and scan ranges both use this type.
    """

    start: bytes = b""
    end: Optional[bytes] = None

    def contains(self, key: bytes) -> bool:
        if key < self.start:
            return False
        return self.end is None or key < self.end

    def overlaps(self, other: "KeyRange") -> bool:
        if self.end is not None and self.end <= other.start:
            return False
        if other.end is not None and other.end <= self.start:
            return False
        return True

    def clamp(self, other: "KeyRange") -> "KeyRange":
        start = max(self.start, other.start)
        if self.end is None:
            end = other.end
        elif other.end is None:
            end = self.end
        else:
            end = min(self.end, other.end)
        return KeyRange(start, end)

    def is_empty(self) -> bool:
        return self.end is not None and self.start >= self.end

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        hi = "+inf" if self.end is None else repr(self.end)
        return f"[{self.start!r}, {hi})"
