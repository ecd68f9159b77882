"""Index reads: ``getByIndex`` for every scheme.

* sync-full / async — one scan of the (small) index table returns the
  matching base rowkeys directly (Table 2: read = 1 Index Read);
* sync-insert — Algorithm 2: after the index scan, each candidate rowkey
  is double-checked against the base table; stale entries are filtered
  out *and repaired* (deleted at their own timestamp) once a newer base
  cell refutes them;
* validation — each candidate of a single-column index is checked
  against its row's newest indexed-cell timestamp (the SSTables'
  timestamp sidecars), not its value; a composite index's candidates
  still get the base-row value check.  Stale entries are filtered and
  handed to the background cleaner instead of being repaired inline;
* async-session — the server results are merged with the session's
  private index view before returning (read-your-writes).

Predicates: exact match on the full column tuple, or a range over the
first indexed column (how Figure 9 sweeps ``item_price``).
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Sequence, TYPE_CHECKING

from repro.errors import NoSuchIndexError
from repro.core.encoding import (IndexableValue, decode_index_key,
                                 encode_value, index_prefix,
                                 prefix_upper_bound)
from repro.core.index import (DEAD, LIVE, IndexDescriptor, checks_timestamps,
                              entry_verdict)
from repro.core.schemes import IndexScheme
from repro.core.session import Session
from repro.lsm.types import KeyRange

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.client import Client

__all__ = ["IndexHit", "index_scan_range", "get_by_index"]


class IndexHit:
    """One matching index entry, decoded.

    A plain ``__slots__`` class rather than a dataclass: reads decode one
    of these per matching entry, and the wall-clock hot loop is sensitive
    to per-instance dict overhead.
    """

    __slots__ = ("rowkey", "values", "ts", "index_key")

    def __init__(self, rowkey: bytes, values: tuple, ts: int,
                 index_key: bytes):
        self.rowkey = rowkey
        self.values = values
        self.ts = ts
        self.index_key = index_key

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, IndexHit):
            return NotImplemented
        return (self.rowkey == other.rowkey and self.values == other.values
                and self.ts == other.ts and self.index_key == other.index_key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"IndexHit(rowkey={self.rowkey!r}, values={self.values!r}, "
                f"ts={self.ts}, index_key={self.index_key!r})")


def index_scan_range(index: IndexDescriptor,
                     equals: Optional[Sequence[IndexableValue]] = None,
                     low: Optional[IndexableValue] = None,
                     high: Optional[IndexableValue] = None,
                     ) -> KeyRange:
    """The index-table key range selecting the requested entries.

    ``equals`` matches the leading column values exactly;
    ``low``/``high`` bound the first column (inclusive on both ends,
    matching the paper's price-range queries)."""
    if equals is not None:
        if len(equals) > len(index.columns):
            raise NoSuchIndexError(
                f"{index.name}: {len(equals)} values for "
                f"{len(index.columns)} columns")
        prefix = index_prefix(list(equals))
        return KeyRange(prefix, prefix_upper_bound(prefix))
    start = encode_value(low) if low is not None else b""
    if high is not None:
        end = prefix_upper_bound(encode_value(high))
    else:
        end = None
    return KeyRange(start, end)


def _decode_hits(index: IndexDescriptor, cells) -> List[IndexHit]:
    hits = []
    for cell in cells:
        values, rowkey = decode_index_key(cell.key, len(index.columns))
        hits.append(IndexHit(rowkey, tuple(values), cell.ts, cell.key))
    return hits


def get_by_index(client: "Client", index: IndexDescriptor,
                 equals: Optional[Sequence[IndexableValue]] = None,
                 low: Optional[IndexableValue] = None,
                 high: Optional[IndexableValue] = None,
                 limit: Optional[int] = None,
                 session: Optional[Session] = None,
                 ) -> Generator[Any, Any, List[IndexHit]]:
    """The client-library ``getByIndex`` (§7)."""
    key_range = index_scan_range(index, equals=equals, low=low, high=high)

    if index.is_local:
        # §3.1: a local index "has to be broadcast to each region" — one
        # call per server hosting base-table regions, results merged here.
        hits = yield from _broadcast_local(client, index, key_range, limit)
        return hits

    # SR1 / the single index read of sync-full and async.
    cells = yield from client.scan_table(index.table_name, key_range,
                                         limit=limit)
    hits = _decode_hits(index, cells)

    # Algorithm 2 double-check: always for sync-insert, and temporarily
    # for any scheme while an online ALTER away from a lazy scheme is
    # still scrubbing stale entries (IndexState.TRANSITION).
    if index.scheme is IndexScheme.SYNC_INSERT or index.needs_read_repair:
        hits = yield from _double_check(client, index, hits)
    elif index.scheme is IndexScheme.VALIDATION:
        hits = yield from _validate(client, index, hits)

    if (index.scheme is IndexScheme.ASYNC_SESSION and session is not None
            and not session.disabled):
        session.touch(client.cluster.sim.now())
        merged = session.merge_index_results(
            index.name, {h.index_key: h.ts for h in hits},
            key_range.start, key_range.end)
        hits = _decode_hits(index, [_KeyTs(k, ts)
                                    for k, ts in sorted(merged.items())])
        if limit is not None:
            hits = hits[:limit]
    return hits


class _KeyTs:
    """Duck-typed cell (key + ts) for re-decoding merged session results."""

    __slots__ = ("key", "ts")

    def __init__(self, key: bytes, ts: int):
        self.key = key
        self.ts = ts


def _broadcast_local(client: "Client", index: IndexDescriptor,
                     key_range: KeyRange, limit: Optional[int],
                     ) -> Generator[Any, Any, List[IndexHit]]:
    """Fan the query out to every server hosting the base table, in
    parallel, and merge the per-region answers in index-key order."""
    from repro.core.local import split_local_entry_key
    from repro.sim.scatter import scatter_gather

    cluster = client.cluster
    infos = cluster.master.regions_for_range(index.base_table, KeyRange())
    by_server = sorted({info.server_name for info in infos})

    def one_server(server):
        cells = yield from cluster.network.call(
            server, lambda: server.handle_local_index_scan(
                index.base_table, index.name, key_range, limit))
        return cells

    per_server = yield scatter_gather(
        cluster.sim,
        [lambda s=cluster.servers[name]: one_server(s)
         for name in by_server],
        max_fanout=client.max_fanout, name="lidx",
        metrics=cluster.metrics, site="local_index")

    merged = []
    for cells in per_server:
        for cell in cells:
            _name, index_key = split_local_entry_key(cell.key)
            merged.append(_KeyTs(index_key, cell.ts))
    merged.sort(key=lambda c: c.key)
    if limit is not None:
        merged = merged[:limit]
    return _decode_hits(index, merged)


def _double_check(client: "Client", index: IndexDescriptor,
                  hits: List[IndexHit],
                  ) -> Generator[Any, Any, List[IndexHit]]:
    """Algorithm 2, SR2: for every candidate, read the base row; keep the
    entry if the base value still matches, otherwise filter it out.  A
    filtered entry is deleted from the index table (lazy repair) only
    when :func:`entry_verdict` calls it dead, i.e. a newer indexed cell
    refutes it: an entry that outruns its row may belong to a put still
    in flight, and is left alone (``read_repair_deferred``).

    The K base reads travel as parallel per-server multigets (~1 round
    trip instead of K), and the repair deletes scatter too; counters,
    per-row charges and the final index state are identical to the
    sequential reference in ``tests/test_parallel_double_check.py``.
    """
    if not hits:
        return []
    metrics = client.cluster.metrics
    checks = metrics.counter("read_repair_checks", index=index.name)
    repairs = metrics.counter("read_repair_repairs", index=index.name)
    deferred = metrics.counter("read_repair_deferred", index=index.name)
    # Duplicate rowkeys (several entries of one row in a range query) stay
    # duplicated so the server charges/counts K base reads, exactly as the
    # sequential path did.
    row_map = yield from client.multi_get(
        index.base_table, [hit.rowkey for hit in hits],
        columns=list(index.columns), tombstones=True)
    confirmed: List[IndexHit] = []
    stale: List[IndexHit] = []
    for hit in hits:
        checks.inc()
        verdict = entry_verdict(index, hit.ts, hit.values,
                                row_map.get(hit.rowkey, {}))
        if verdict == LIVE:
            confirmed.append(hit)
        elif verdict == DEAD:
            # Refuted by a newer cell: DI(v_index ⊕ k, ts) — delete that
            # exact entry version.
            repairs.inc()
            stale.append(hit)
        else:
            deferred.inc()
    if stale:
        from repro.sim.scatter import scatter_gather
        yield scatter_gather(
            client.cluster.sim,
            [lambda h=hit: client.delete_index_entry(index.table_name,
                                                     h.index_key, h.ts)
             for hit in stale],
            max_fanout=client.max_fanout, name="repair",
            metrics=metrics, site="read_repair")
    return confirmed


def _validate(client: "Client", index: IndexDescriptor,
              hits: List[IndexHit],
              ) -> Generator[Any, Any, List[IndexHit]]:
    """The validation scheme's read path (DESIGN.md §14.2): K parallel
    base reads — one scatter round trip, each row counted as one base
    read.  A single-column index reads timestamps only, a composite one
    the indexed values (:func:`checks_timestamps` says why); a hit is
    kept when :func:`entry_verdict` calls it live.  The rest are only
    *filtered*, never repaired inline; the dead ones are handed to the
    background cleaner (an unsettled one may be a put still in flight).
    """
    if not hits:
        return []
    cluster = client.cluster
    metrics = cluster.metrics
    validated = metrics.counter("validation_hits_validated_total",
                                index=index.name)
    filtered = metrics.counter("validation_hits_filtered_total",
                               index=index.name)
    by_ts = checks_timestamps(index)
    replies = yield from client.multi_get(
        index.base_table, [hit.rowkey for hit in hits],
        columns=list(index.columns), timestamps_only=by_ts)
    now = cluster.sim.now()
    confirmed: List[IndexHit] = []
    for hit in hits:
        verdict = entry_verdict(index, hit.ts, hit.values,
                                replies.get(hit.rowkey, {}),
                                timestamps_only=by_ts)
        if verdict == LIVE:
            validated.inc()
            confirmed.append(hit)
        else:
            # Stale but filtered: the client never sees it.  Lag is
            # measured from the entry's own version to now (how long the
            # dead entry has lingered).
            filtered.inc()
            cluster.staleness.note_stale(now - hit.ts, served=False)
            if verdict == DEAD:
                cluster.validation_cleaner.note(index.table_name,
                                                hit.index_key, hit.ts)
    return confirmed
