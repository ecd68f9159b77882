"""Index metadata and the index catalog.

An :class:`IndexDescriptor` names the base table, the indexed column(s)
(composite indexes supported, §7) and the maintenance scheme.  Index
entries live in a dedicated key-only index table named
``__idx__<table>__<index>`` whose rowkey is
``enc(v1) ⊕ … ⊕ enc(vn) ⊕ base_rowkey`` (see :mod:`repro.core.encoding`).
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, Optional, Sequence, Tuple

from repro.core.encoding import IndexableValue, encode_index_key
from repro.core.schemes import IndexScheme

__all__ = ["IndexDescriptor", "IndexScope", "IndexState", "row_index_key",
           "row_index_entry", "checks_timestamps", "LIVE", "DEAD", "UNSETTLED",
           "entry_verdict", "extract_index_values", "INDEX_TABLE_PREFIX",
           "index_table_name"]


class IndexScope(enum.Enum):
    """Global (own partitioned table) vs local (region-co-located) — §3.1."""

    GLOBAL = "global"
    LOCAL = "local"


class IndexState(enum.Enum):
    """Lifecycle state of an index (the online-DDL state machine of
    :mod:`repro.ddl`).

    * ``BUILDING`` — an online CREATE is in flight: new mutations are
      dual-written by the observers, but the backfill has not finished,
      so reads must not trust (or even see) the index yet.
    * ``ACTIVE`` — fully built; reads follow the scheme's normal rules.
    * ``TRANSITION`` — an online ALTER ... SCHEME away from sync-insert
      is scrubbing stale entries; writes already follow the new scheme
      but reads keep the Algorithm 2 double-check until the scrub ends
      (the stepwise consistency hand-off).
    """

    BUILDING = "building"
    ACTIVE = "active"
    TRANSITION = "transition"

INDEX_TABLE_PREFIX = "__idx__"


def index_table_name(base_table: str, index_name: str) -> str:
    """Naming convention for the key-only table holding an index."""
    return f"{INDEX_TABLE_PREFIX}{base_table}__{index_name}"


@dataclasses.dataclass(frozen=True)
class IndexDescriptor:
    name: str
    base_table: str
    columns: Tuple[str, ...]
    scheme: IndexScheme = IndexScheme.SYNC_FULL
    # GLOBAL indexes live in their own partitioned table (the Diff-Index
    # design); LOCAL indexes co-locate entries with the base region and
    # use synchronous maintenance (§3.1's alternative, for comparison).
    scope: "IndexScope" = None  # type: ignore[assignment]
    # Online-DDL lifecycle (repro.ddl).  ``state`` gates the read path;
    # ``created_epoch`` is the cluster DDL epoch at creation, used to keep
    # in-flight async maintenance from leaking into a same-named index
    # recreated after a drop.
    state: IndexState = IndexState.ACTIVE
    created_epoch: int = 0

    def __post_init__(self) -> None:
        if not self.columns:
            raise ValueError("an index needs at least one column")
        if self.scope is None:
            object.__setattr__(self, "scope", IndexScope.GLOBAL)
        if (self.scope is IndexScope.LOCAL
                and self.scheme is not IndexScheme.SYNC_FULL):
            raise ValueError(
                "local indexes use synchronous maintenance (every step is "
                "region-local); choose scheme=SYNC_FULL")

    @property
    def is_local(self) -> bool:
        return self.scope is IndexScope.LOCAL

    @property
    def table_name(self) -> str:
        return index_table_name(self.base_table, self.name)

    @property
    def is_composite(self) -> bool:
        return len(self.columns) > 1

    @property
    def is_readable(self) -> bool:
        """False while an online CREATE is still backfilling."""
        return self.state is not IndexState.BUILDING

    @property
    def needs_read_repair(self) -> bool:
        """True when reads must run the Algorithm 2 double-check even
        though the scheme itself would trust the index: an online
        ALTER away from sync-insert has not finished its scrub yet."""
        return self.state is IndexState.TRANSITION


def extract_index_values(index: IndexDescriptor,
                         row_values: Dict[str, Optional[bytes]],
                         ) -> Optional[Tuple[Optional[IndexableValue], ...]]:
    """The tuple of indexed-column values for one row image.

    Returns ``None`` when no indexed column is present at all (the row
    never contributes an entry).  Raw stored bytes are indexed as bytes;
    typed values must be encoded by the application before storage or
    supplied through the typed-column helpers in the workload layer.
    """
    values = tuple(row_values.get(col) for col in index.columns)
    if all(v is None for v in values):
        return None
    return values


def row_index_key(index: IndexDescriptor,
                  values: Sequence[Optional[IndexableValue]],
                  rowkey: bytes) -> bytes:
    """The index-table rowkey for one base row's entry."""
    if len(values) != len(index.columns):
        raise ValueError(
            f"index {index.name} expects {len(index.columns)} values, "
            f"got {len(values)}")
    return encode_index_key(values, rowkey)


def row_index_entry(index: IndexDescriptor, rowkey: bytes,
                    row_data: Dict[str, Tuple[Optional[bytes], int]],
                    ) -> Optional[Tuple[bytes, int]]:
    """The entry one stored row image derives, as ``(entry_key, base_ts)``
    with ``base_ts`` the newest indexed cell's timestamp (the ts a
    foreground put would have given the entry), or None when the row
    contributes no entry (no indexed value, or no indexed cell)."""
    values = {col: value for col, (value, _ts) in row_data.items()}
    tup = extract_index_values(index, values)
    if tup is None:
        return None
    indexed_ts = [ts for col, (_value, ts) in row_data.items()
                  if col in index.columns]
    if not indexed_ts:
        return None
    return row_index_key(index, tup, rowkey), max(indexed_ts)


def checks_timestamps(index: IndexDescriptor) -> bool:
    """Whether the validation read checks ``index``'s entries by
    timestamp (:func:`entry_verdict`) instead of by value
    (DESIGN.md §14.2).  Only a single-column index qualifies: a put or
    delete may touch a strict subset of a composite index's columns, and
    the blind ship then derives an entry from the put alone (``(a, None)``
    for a put of ``c`` alone on ``(c, d)``) that no timestamp rule can
    tell from the row's real entry — only the row's values can."""
    return not index.is_composite


# The three answers of :func:`entry_verdict`: plain strings, not an
# enum, because the read loops ask once per hit and an enum member
# lookup costs more than the rule itself.
LIVE, DEAD, UNSETTLED = "live", "dead", "unsettled"


def entry_verdict(index: IndexDescriptor, entry_ts: int,
                  entry_values: tuple, row: Dict[str, Tuple],
                  row_locked: Optional[bool] = None, *,
                  timestamps_only: bool = False) -> str:
    """The one stale-entry rule (DESIGN.md §11.3) for the entry
    ``entry_values``@``entry_ts``.  ``row`` is the indexed columns'
    newest cells, ``{col: (value, ts)}`` with a tombstone as ``(None,
    ts)``, or with ``timestamps_only`` a single-column index's
    ``{col: (ts, is_tombstone) | None}``.

    LIVE when the row derives the entry: by value, or by timestamp when
    the newest indexed cell is a value no newer than the entry.  DEAD
    when not live and a cell at least as new refutes it, or when
    ``row_locked is False`` (no put can still land a cell for it).
    UNSETTLED otherwise: the entry may belong to a put still in flight.
    """
    if timestamps_only:
        stamp = row.get(index.columns[0])
        if stamp is not None and not stamp[1] and stamp[0] <= entry_ts:
            return LIVE
        newest = -1 if stamp is None else stamp[0]
    else:
        values = {col: value for col, (value, _ts) in row.items()}
        if extract_index_values(index, values) == entry_values:
            return LIVE
        newest = max((ts for _value, ts in row.values()), default=-1)
    if newest >= entry_ts or row_locked is False:
        return DEAD
    return UNSETTLED
