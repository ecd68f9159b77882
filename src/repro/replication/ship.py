"""Leader-side WAL shipping: the replication pipe.

Each server runs one ship loop (spawned only when the cluster's
``replication_factor`` exceeds 1, so single-copy runs stay event-for-
event identical).  Every ``ship_interval_ms`` the loop walks the regions
this server currently leads and, per follower, sends one
``handle_replica_append`` RPC carrying:

* the WAL tail above the follower's acked ship watermark, at most
  ``ship_batch_size`` records read by one bisect of the region's
  seqno-ascending log (``WriteAheadLog.records_after``), framed like
  one group commit (the whole batch is one log-shaped unit and the
  follower charges one group apply for it);
* the region's latest *flush point* ``(rolled_seqno, prepare_time)``,
  recorded synchronously with the leader's WAL roll-forward — this is
  what lets a follower swap its replayed prefix for the shared store
  files in SimHDFS and is why a rolled-away WAL never strands a replica;
* the leader's send time, but **only when the batch is complete** (not
  truncated at ``ship_batch_size``).  The follower raises its coverage
  watermark ``caught_up_through`` to that time: every write acked by
  then is either under the flush point or in the batch, so the claim is
  airtight.  A truncated batch ships data but makes no coverage claim.

Channels are independent: each ``(region, follower)`` pair ships as its
own process with at most one RPC in flight, so a degraded or dead link
to one follower never stalls the others (or the leader's other
regions).  An empty complete batch is a heartbeat: idle regions keep
their followers' staleness near one ship interval instead of growing
without bound.  Ship failures (fault injection, dead or degraded
followers) drop the attempt and retry next tick — the watermark only
advances on ack.
"""

from __future__ import annotations

from typing import Any, Generator, TYPE_CHECKING

from repro.errors import NoSuchRegionError, RpcError, ServerDownError
from repro.sim.kernel import Timeout

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.server import RegionServer

__all__ = ["replication_ship_loop"]


def _ship_channel(server: "RegionServer", table: str, region_name: str,
                  follower: "RegionServer") -> Generator[Any, Any, None]:
    """Ship one batch over one replication channel.  Never raises for
    expected channel failures; the watermark advances only on ack."""
    cluster = server.cluster
    config = cluster.replication
    key = (region_name, follower.name)
    server.ship_inflight.add(key)
    try:
        # Snapshot tail + flush point + send time in ONE synchronous
        # step (no yields): the coverage claim `leader_time` is only
        # valid for the exact instant this tail was read.
        pending, complete = server.wal.records_after(
            region_name, server.ship_state.get(key, 0),
            config.ship_batch_size)
        batch = tuple(pending)
        flush_point = server.flush_points.get(region_name)
        leader_time = server.sim.now() if complete else None
        try:
            yield from cluster.network.call(
                follower,
                lambda: follower.handle_replica_append(
                    table, region_name, batch, leader_time, flush_point),
                source=server.name)
        except (RpcError, ServerDownError, NoSuchRegionError):
            return  # retried next tick
        if batch:
            current = server.ship_state.get(key, 0)
            server.ship_state[key] = max(current, batch[-1].seqno)
    finally:
        server.ship_inflight.discard(key)


def _spawn_channels(server: "RegionServer", region_name: str, table: str,
                    ) -> None:
    """Start one ship process per live follower channel that does not
    already have an RPC in flight."""
    cluster = server.cluster
    info = cluster.master.region_info(table, region_name)
    if info is None or info.server_name != server.name:
        return  # no longer the leader (moved / split away)
    for follower_name in list(info.replica_servers):
        follower = cluster.servers.get(follower_name)
        if follower is None or not follower.alive:
            continue
        if (region_name, follower_name) in server.ship_inflight:
            continue  # previous batch still on the wire (slow link)
        proc = server.sim.spawn(
            _ship_channel(server, table, region_name, follower),
            name=f"{server.name}/ship/{region_name}->{follower_name}")
        proc._waited_on = True  # channel failures are handled inside


def replication_ship_loop(server: "RegionServer",
                          ) -> Generator[Any, Any, None]:
    """Background process: periodically ship every led region's tail.

    Fire-and-forget per channel — the loop itself never blocks on a slow
    follower, it just skips channels that are still in flight."""
    config = server.cluster.replication
    while True:
        yield Timeout(config.ship_interval_ms)
        if not server.alive:
            return
        for region in list(server.regions.values()):
            _spawn_channels(server, region.name, region.table.name)
