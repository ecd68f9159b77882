"""The client library.

Mirrors the HBase client plus the Diff-Index client-side component (§7):
partition-map caching with refresh-and-retry on stale routes, the
``getByIndex`` read API, and the session-consistency machinery — the
session cache lives here, in the client library, exactly as in §5.2.

All public methods are generator coroutines to be driven by the
simulator; :class:`repro.cluster.cluster.MiniCluster.run` provides the
blocking facade used by examples and tests.
"""

from __future__ import annotations

from typing import (Any, Dict, Generator, List, Optional, Sequence, Tuple,
                    TYPE_CHECKING)

from repro.errors import (IndexBuildingError, NoSuchRegionError,
                          NoSuchTableError, ServerDownError, SimulationError)
from repro.core import reader as reader_mod
from repro.core.encoding import IndexableValue
from repro.core.index import IndexDescriptor
from repro.core.reader import IndexHit
from repro.core.schemes import IndexScheme
from repro.core.session import Session
from repro.lsm.types import Cell, KeyRange
from repro.sim.kernel import Timeout
from repro.sim.scatter import scatter_gather

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import MiniCluster
    from repro.cluster.master import RegionInfo

__all__ = ["Client"]


class Client:
    """A Diff-Index client: cached partition map with refresh-and-retry
    routing, CRUD, scatter-gather multiget/scan, ``getByIndex``, and
    session-consistency bookkeeping.  Routing is by key range and server
    name only — never region name — so splits and migrations are
    absorbed by an ordinary :meth:`refresh_layout`."""

    def __init__(self, cluster: "MiniCluster", name: str = "client",
                 max_route_retries: int = 60, retry_backoff_ms: float = 50.0,
                 max_fanout: int = 16):
        self.cluster = cluster
        self.name = name
        self.max_route_retries = max_route_retries
        self.retry_backoff_ms = retry_backoff_ms
        # Bound on concurrent outbound RPCs for scatter paths (multi-region
        # scans, multigets, read-repair deletes) — the client-side analogue
        # of an HBase connection pool size.
        self.max_fanout = max_fanout
        self._layout = cluster.master.snapshot_layout()
        # The master epoch this cache was copied at: cheap staleness probe
        # (`client.layout_epoch == master.routing_epoch`) without diffing
        # the partition map.
        self.layout_epoch = cluster.master.routing_epoch
        self._sessions: Dict[str, Session] = {}
        self.route_refreshes = 0

    # -- partition map -----------------------------------------------------------

    def refresh_layout(self) -> None:
        self._layout = self.cluster.master.snapshot_layout()
        self.layout_epoch = self.cluster.master.routing_epoch
        self.route_refreshes += 1

    def _locate(self, table: str, row: bytes) -> "RegionInfo":
        infos = self._layout.get(table)
        if infos is None:
            self.refresh_layout()
            infos = self._layout.get(table)
            if infos is None:
                raise NoSuchTableError(table)
        for info in infos:
            if info.key_range.contains(row):
                return info
        raise NoSuchRegionError(f"{table!r} has no region for {row!r}")

    def _retrying(self, attempt) -> Generator[Any, Any, Any]:
        """Run ``attempt()`` (a generator factory) to completion; on a
        stale route (dead server / moved region) refresh the map and retry
        with backoff — the client behaviour that rides out a region-server
        recovery."""
        attempts = 0
        while True:
            try:
                return (yield from attempt())
            except (ServerDownError, NoSuchRegionError):
                attempts += 1
                if attempts > self.max_route_retries:
                    raise
                self.refresh_layout()
                yield Timeout(self.retry_backoff_ms)

    def _routed(self, table: str, row: bytes, op_factory,
                ) -> Generator[Any, Any, Any]:
        """One RPC to the server hosting ``row``, retried on stale routes."""
        def attempt():
            info = self._locate(table, row)
            server = self.cluster.servers[info.server_name]
            return self.cluster.network.call(server,
                                             lambda: op_factory(server))
        return self._retrying(attempt)

    # -- sessions ---------------------------------------------------------------

    def get_session(self, max_duration_ms: Optional[float] = None,
                    memory_limit_entries: int = 100_000) -> Session:
        kwargs = {"memory_limit_entries": memory_limit_entries}
        if max_duration_ms is not None:
            kwargs["max_duration_ms"] = max_duration_ms
        session = Session(self.cluster.sim.now(), **kwargs)
        self._sessions[session.session_id] = session
        return session

    def end_session(self, session: Session) -> None:
        session.end()
        self._sessions.pop(session.session_id, None)

    def _session_indexes(self, table: str) -> List[IndexDescriptor]:
        descriptor = self.cluster.descriptor(table)
        return [index for index in descriptor.indexes.values()
                if index.scheme is IndexScheme.ASYNC_SESSION]

    # -- CRUD -------------------------------------------------------------------

    def put(self, table: str, row: bytes, values: Dict[str, bytes],
            session: Optional[Session] = None,
            ) -> Generator[Any, Any, int]:
        """Insert/update columns of one row; returns the assigned ts."""
        return self._mutate(table, row, values, None, session)

    def delete(self, table: str, row: bytes, columns: Sequence[str],
               session: Optional[Session] = None,
               ) -> Generator[Any, Any, int]:
        """Delete columns of one row; returns the tombstones' ts."""
        return self._mutate(table, row, None, list(columns), session)

    def _mutate(self, table: str, row: bytes,
                values: Optional[Dict[str, bytes]],
                columns: Optional[List[str]], session: Optional[Session],
                ) -> Generator[Any, Any, int]:
        """The one write body: one ``handle_mutate`` RPC; ``values=None``
        deletes ``columns``."""
        want_old = bool(session is not None and not session.disabled
                        and self._session_indexes(table))
        if session is not None:
            session.touch(self.cluster.sim.now())
        kind, payload = (("put", values) if values is not None
                         else ("del", columns))

        def write(server):
            outcome = yield from server.handle_mutate(
                table, kind, row, payload, return_old=want_old)
            if outcome[0] != "ok":
                # A stale route, as if the server had raised it: _routed
                # refreshes the layout and retries.
                raise NoSuchRegionError(outcome[1])
            return outcome

        _ok, ts, old = yield from self._routed(table, row, write)
        if want_old:
            old_values = {col: value
                          for col, (value, _ts) in (old or {}).items()}
            indexes = self._session_indexes(table)
            if values is None:
                session.record_delete(table, row, columns, old_values, ts,
                                      indexes)
            else:
                session.record_put(table, row, values, old_values, ts,
                                   indexes)
        return ts

    def get(self, table: str, row: bytes,
            columns: Optional[List[str]] = None,
            max_ts: Optional[int] = None,
            session: Optional[Session] = None,
            ) -> Generator[Any, Any, Dict[str, Tuple[bytes, int]]]:
        """Read one row from its region's leader: one ``handle_read`` of
        ``[row]``.  A plain routed call, not a scatter of one, which would
        add a spawn and a scatter_fanout observation to every get."""
        row_map = yield from self._routed(
            table, row,
            lambda server: server.handle_read(table, [row], columns, max_ts))
        result = row_map[row]
        if session is not None and not session.disabled:
            session.touch(self.cluster.sim.now())
            result = session.merge_base_row(table, row, result)
        return result

    def multi_get(self, table: str, rows: Sequence[bytes],
                  columns: Optional[List[str]] = None,
                  max_ts: Optional[int] = None,
                  session: Optional[Session] = None,
                  timestamps_only: bool = False, tombstones: bool = False,
                  ) -> Generator[Any, Any, Dict[bytes, Dict[str, Tuple]]]:
        """Parallel multiget: group ``rows`` by hosting server, issue one
        RPC per server (scatter), merge the per-server answers.

        K rows land in ~1 round trip instead of K; each listed row is
        still charged/counted as one base read server-side, so op counts
        are identical to K single gets.  Duplicate rows are deliberately
        NOT deduplicated for that same reason.  ``timestamps_only`` asks
        for each listed column's newest ``(ts, is_tombstone) | None``
        instead of its value, ``tombstones`` a deleted column as ``(None,
        ts)`` (see ``RegionServer.handle_read``).
        """
        rows = list(rows)
        if not rows:
            return {}

        def attempt():
            groups: Dict[str, List[bytes]] = {}
            for row in rows:
                info = self._locate(table, row)
                groups.setdefault(info.server_name, []).append(row)

            def one_server(server_name: str):
                server = self.cluster.servers[server_name]
                batch = groups[server_name]
                rows_read = yield from self.cluster.network.call(
                    server, lambda: server.handle_read(
                        table, batch, columns, max_ts,
                        timestamps_only=timestamps_only,
                        tombstones=tombstones))
                return rows_read

            per_server = yield scatter_gather(
                self.cluster.sim,
                [lambda n=name: one_server(n) for name in sorted(groups)],
                max_fanout=self.max_fanout, name="multiget",
                metrics=self.cluster.metrics, site="multiget")
            merged: Dict[bytes, Dict[str, Tuple[bytes, int]]] = {}
            for part in per_server:
                merged.update(part)
            return merged
        merged = yield from self._retrying(attempt)
        if session is not None and not session.disabled:
            session.touch(self.cluster.sim.now())
            merged = {row: session.merge_base_row(table, row, data)
                      for row, data in merged.items()}
        return merged

    # -- scans ------------------------------------------------------------------

    def scan_table(self, table: str, key_range: KeyRange,
                   limit: Optional[int] = None,
                   ) -> Generator[Any, Any, List[Cell]]:
        """Scan ``key_range`` across every region it overlaps, in key
        order: a base table's cells or an index table's entries (RI)."""
        def attempt():
            infos = self._layout.get(table)
            if infos is None:
                self.refresh_layout()
                infos = self._layout.get(table)
                if infos is None:
                    raise NoSuchTableError(table)
            return self._scan_attempt(table, infos, key_range, limit)
        return (yield from self._retrying(attempt))

    def _scan_attempt(self, table, infos, key_range, limit,
                      ) -> Generator[Any, Any, List[Cell]]:
        """Scatter the scan across every overlapping region in parallel.

        ``limit`` semantics: each region over-fetches up to the FULL limit
        (a later region cannot know how much earlier regions will return
        when they run concurrently), then the merge trims in key order.
        Regions are disjoint and spawned sorted by start key, so simple
        concatenation IS key order — asserted below, because the trim is
        only correct under that invariant.
        """
        overlapping = [info for info in
                       sorted(infos, key=lambda i: i.key_range.start)
                       if info.key_range.overlaps(key_range)]
        if not overlapping:
            return []

        def one_region(info):
            server = self.cluster.servers[info.server_name]
            clamped = key_range.clamp(info.key_range)
            cells = yield from self.cluster.network.call(
                server, lambda: server.handle_scan(table, clamped, limit))
            return cells

        is_index = self.cluster.descriptor(table).is_index
        per_region = yield scatter_gather(
            self.cluster.sim,
            [lambda i=info: one_region(i) for info in overlapping],
            max_fanout=self.max_fanout, name="scan",
            metrics=self.cluster.metrics,
            site="scan_index" if is_index else "scan_base")

        out: List[Cell] = []
        for cells in per_region:
            if out and cells and cells[0].key < out[-1].key:
                raise SimulationError(
                    f"scan of {table!r}: merged region results out of key "
                    f"order ({cells[0].key!r} after {out[-1].key!r})")
            out.extend(cells)
        if limit is not None:
            out = out[:limit]
        return out

    # -- secondary-index reads ------------------------------------------------------

    def get_by_index(self, index_name: str,
                     equals: Optional[Sequence[IndexableValue]] = None,
                     low: Optional[IndexableValue] = None,
                     high: Optional[IndexableValue] = None,
                     limit: Optional[int] = None,
                     session: Optional[Session] = None,
                     ) -> Generator[Any, Any, List[IndexHit]]:
        """getByIndex: rowkeys (as :class:`IndexHit`) matching the predicate."""
        index = self.cluster.index_descriptor(index_name)
        if not index.is_readable:
            raise IndexBuildingError(
                f"index {index_name!r} is still building (online CREATE "
                f"has not reached ACTIVE)")
        hits = yield from reader_mod.get_by_index(
            self, index, equals=equals, low=low, high=high, limit=limit,
            session=session)
        return hits

    def get_rows_by_index(self, index_name: str,
                          equals: Optional[Sequence[IndexableValue]] = None,
                          low: Optional[IndexableValue] = None,
                          high: Optional[IndexableValue] = None,
                          limit: Optional[int] = None,
                          session: Optional[Session] = None,
                          ) -> Generator[Any, Any, List[Tuple[bytes, Dict]]]:
        """getByIndex plus fetching the matching base rows."""
        index = self.cluster.index_descriptor(index_name)
        hits = yield from self.get_by_index(index_name, equals=equals,
                                            low=low, high=high, limit=limit,
                                            session=session)
        if not hits:
            return []
        row_map = yield from self.multi_get(
            index.base_table, [hit.rowkey for hit in hits], session=session)
        rows = []
        for hit in hits:
            row_data = row_map.get(hit.rowkey, {})
            if row_data:
                rows.append((hit.rowkey, row_data))
        return rows

    def delete_index_entry(self, index_table: str, index_key: bytes,
                           ts: int) -> Generator[Any, Any, None]:
        """Used by the sync-insert read-repair path (Algorithm 2)."""
        yield from self._routed(
            index_table, index_key,
            lambda server: server.handle_index_ops(
                [("del", index_table, index_key, ts)], background=False))
