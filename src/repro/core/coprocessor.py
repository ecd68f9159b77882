"""The coprocessor framework: server-side hooks and their operating context.

HBase coprocessors are the extension point Diff-Index is built on (§7):
"they listen to and intercept each data entry made to the hosting table,
and act based on the schemes they implement."  A :class:`RegionObserver`
registers for ``post_mutate`` (inside the put/delete RPC, after the base
write, before the ack; a delete is a mutation with ``values=None``, §4.3),
``post_batch`` (the same for a multi_put batch) and ``pre_flush`` (the
pause-and-drain hook of Figure 5).

:class:`IndexOpContext` is the toolbox handed to observers and to the
APS: routed index writes and versioned base reads, each charged to the
simulated devices and tallied in the Table 2 counters.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import NoSuchRegionError

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.server import RegionServer
    from repro.cluster.table import TableDescriptor

__all__ = ["RegionObserver", "IndexOpContext"]


class RegionObserver:
    """Base class; hooks are generator coroutines so they may do I/O.

    ``span`` is the root tracing span of the enclosing put/delete RPC
    (see :mod:`repro.obs.tracing`); hooks parent their own spans to it so
    a mutation's full PI/RB/DI (or enqueue → APS-apply) story is one
    trace tree.
    """

    def post_mutate(self, server: "RegionServer", table: TableDescriptor,
                    row: bytes, values: Optional[Dict[str, bytes]], ts: int,
                    span: Any = None) -> Generator[Any, Any, None]:
        """One row written at ``ts``; ``values is None`` for a delete."""
        return
        yield  # pragma: no cover

    def post_batch(self, server: "RegionServer", table: TableDescriptor,
                   batch_rows: List[Tuple[bytes, Optional[Dict[str, bytes]],
                                          int]],
                   span: Any = None) -> Generator[Any, Any, None]:
        """A multi_put batch as ``(row, values, ts)`` triples; by default
        :meth:`post_mutate` once per row, in batch order."""
        for row, values, ts in batch_rows:
            yield from self.post_mutate(server, table, row, values, ts, span)

    def pre_flush(self, server: "RegionServer", region_name: str,
                  ) -> Generator[Any, Any, None]:
        return
        yield  # pragma: no cover


class IndexOpContext:
    """Server-bound executor for the primitive index-maintenance ops."""

    def __init__(self, server: "RegionServer"):
        self.server = server

    # -- metadata --------------------------------------------------------------

    def table_descriptor(self, table: str) -> TableDescriptor:
        return self.server.cluster.descriptor(table)

    def _span(self, name: str, parent: Any):
        """Child tracing span for one index-maintenance primitive — the
        paper's PI / RB / DI steps, timed individually."""
        return self.server.cluster.tracer.start(name, parent=parent,
                                                server=self.server.name)

    # -- primitive operations ----------------------------------------------------

    def base_read(self, table: str, row: bytes, columns: List[str],
                  max_ts: Optional[int], background: bool, span: Any = None,
                  ) -> Generator[Any, Any, Dict[str, Tuple[bytes, int]]]:
        """RB: versioned read of the base row.  The base region normally
        lives on this very server (the put was routed here), so this is a
        local LSM read; after a region move it falls back to an RPC."""
        obs = self._span("RB", span)
        try:
            region = self.server.region_for(table, row)
            if region is not None:
                result = yield from self.server.local_read_row(
                    region, row, columns, max_ts, background=background)
                return result
            target_server, _region_name = self.server.cluster.locate(table,
                                                                     row)
            network = self.server.cluster.network
            result = yield from network.call(
                target_server,
                lambda: target_server.handle_get(table, row, columns, max_ts,
                                                 background=background))
            return result
        finally:
            obs.end()

    def _index_target(self, index_table: str, key: bytes):
        try:
            return self.server.cluster.locate(index_table, key)
        except NoSuchRegionError:
            # Mid-recovery: surface as an RPC failure so callers retry.
            from repro.errors import RpcError
            raise RpcError(f"no region for {index_table!r} (recovering)")

    def index_write(self, index_table: str, key: bytes, ts: int,
                    value: Optional[bytes], background: bool,
                    span: Any = None) -> Generator[Any, Any, None]:
        """PI (``value=b""``: insert one key-only entry carrying the base
        ts) or DI (``value=None``: tombstone it at ``ts`` = base
        ``t_new − δ``)."""
        obs = self._span("PI" if value is not None else "DI", span)
        try:
            target_server, _ = self._index_target(index_table, key)
            if target_server is self.server:
                yield from self.server.handle_index_write(
                    index_table, key, ts, value, background=background)
                return
            yield from self.server.cluster.network.call(
                target_server,
                lambda: target_server.handle_index_write(
                    index_table, key, ts, value, background=background))
        finally:
            obs.end()

    def index_ops_batch(self, target: Any, ops: list,
                        background: bool = True,
                        ) -> Generator[Any, Any, None]:
        """Deliver a batch of ("put"|"del", table, key, ts) ops to one
        server in a single RPC with one group-committed log write — the
        AUQ batching the paper credits async's throughput edge to.
        ``background=False`` is the foreground (multi_put) coalesced
        variant: it lands on the target's dedicated index-handler pool
        and tallies the synchronous Table 2 counters."""
        if target is None:
            from repro.errors import RpcError
            raise RpcError("no route for batched index ops (recovering)")
        if target is self.server:
            yield from self.server.handle_index_ops(ops,
                                                    background=background)
            return
        yield from self.server.cluster.network.call(
            target,
            lambda: target.handle_index_ops(ops, background=background))
