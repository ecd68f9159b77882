"""The HBase master: DDL and region placement.

Keeps the authoritative table catalog and region layout (§2.2: "HBase
Master is the management node dealing with tasks such as table creation
and destroy"); clients cache a copy of the layout and refresh it from
here when a route turns out stale.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_right
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import (NoSuchRegionError, NoSuchTableError,
                          TableExistsError)
from repro.lsm.types import KeyRange
from repro.cluster.region import Region
from repro.cluster.table import TableDescriptor

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import MiniCluster
    from repro.cluster.server import RegionServer

__all__ = ["RegionInfo", "Master"]


@dataclasses.dataclass
class RegionInfo:
    region_name: str
    table: str
    key_range: KeyRange
    server_name: str
    # Follower replica hosts (leader excluded; empty at the default
    # replication_factor=1).  Anti-affinity invariant: never contains
    # server_name and never repeats a server.
    replica_servers: List[str] = dataclasses.field(default_factory=list)


class Master:
    def __init__(self, cluster: "MiniCluster"):
        self.cluster = cluster
        self.tables: Dict[str, TableDescriptor] = {}
        # Layout per table, sorted by region start key.
        self.layout: Dict[str, List[RegionInfo]] = {}
        # Bumped on every layout change (create/drop/split/move) so a
        # client can tell whether its cached partition map is current
        # without diffing it (see Client.layout_epoch).
        self.routing_epoch = 0
        self._region_seq = 0
        self._placement_cursor = 0

    # -- DDL -----------------------------------------------------------------

    def create_table(self, descriptor: TableDescriptor,
                     split_keys: Optional[List[bytes]] = None,
                     ) -> List[RegionInfo]:
        """Create a table pre-split at ``split_keys`` (sorted, interior
        boundaries), spreading regions round-robin over live servers."""
        if descriptor.name in self.tables:
            raise TableExistsError(descriptor.name)
        splits = sorted(split_keys or [])
        boundaries = [b""] + splits + [None]
        infos: List[RegionInfo] = []
        # Catalog first: follower placement below resolves the descriptor
        # and scores servers through the live layout.
        self.tables[descriptor.name] = descriptor
        for i in range(len(boundaries) - 1):
            key_range = KeyRange(boundaries[i], boundaries[i + 1])
            server = self._next_server()
            info = self._place_new_region(descriptor, key_range, server)
            infos.append(info)
        self.layout[descriptor.name] = infos
        if self.cluster.replication.enabled:
            from repro.replication.promote import ensure_replicas
            for info in infos:
                ensure_replicas(self.cluster, info)
        self.routing_epoch += 1
        return infos

    def drop_table(self, name: str) -> None:
        descriptor = self.tables.pop(name, None)
        if descriptor is None:
            raise NoSuchTableError(name)
        for info in self.layout.pop(name, []):
            server = self.cluster.servers.get(info.server_name)
            if server is not None:
                server.remove_region(info.region_name)
            for follower_name in info.replica_servers:
                follower = self.cluster.servers.get(follower_name)
                if follower is not None:
                    follower.remove_follower(info.region_name)
            self.cluster.hdfs.delete_store(name, info.region_name)
        self.routing_epoch += 1

    def _next_server(self) -> "RegionServer":
        alive = [s for s in self.cluster.servers.values() if s.alive]
        if not alive:
            raise NoSuchRegionError("no live region servers")
        server = alive[self._placement_cursor % len(alive)]
        self._placement_cursor += 1
        return server

    def _place_new_region(self, descriptor: TableDescriptor,
                          key_range: KeyRange,
                          server: "RegionServer") -> RegionInfo:
        self._region_seq += 1
        region_name = f"{descriptor.name},r{self._region_seq:04d}"
        region = Region(region_name, descriptor, key_range)
        server.add_region(region)
        return RegionInfo(region_name, descriptor.name, key_range, server.name)

    def new_region_name(self, table: str) -> str:
        """Allocate a region name for the placement layer (split daughters
        share the table-wide sequence, so names never collide)."""
        self._region_seq += 1
        return f"{table},r{self._region_seq:04d}"

    # -- catalog ------------------------------------------------------------

    def descriptor(self, table: str) -> TableDescriptor:
        try:
            return self.tables[table]
        except KeyError:
            raise NoSuchTableError(table) from None

    # -- routing ------------------------------------------------------------

    def locate(self, table: str, row: bytes) -> RegionInfo:
        infos = self.layout.get(table)
        if not infos:
            raise NoSuchTableError(table)
        starts = [info.key_range.start for info in infos]
        idx = bisect_right(starts, row) - 1
        info = infos[max(idx, 0)]
        if not info.key_range.contains(row):
            raise NoSuchRegionError(f"{table!r} has no region for {row!r}")
        return info

    def regions_for_range(self, table: str,
                          key_range: KeyRange) -> List[RegionInfo]:
        infos = self.layout.get(table)
        if infos is None:
            raise NoSuchTableError(table)
        return [info for info in infos if info.key_range.overlaps(key_range)]

    def regions_on(self, server_name: str) -> List[RegionInfo]:
        return [info for infos in self.layout.values() for info in infos
                if info.server_name == server_name]

    def region_info(self, table: str, region_name: str,
                    ) -> Optional[RegionInfo]:
        """The layout's own record for a region, or None if it is gone
        (split away, or table dropped).  Identity matters: mutations via
        :meth:`reassign` / :meth:`replace_with_daughters` must act on the
        live object, not a snapshot copy."""
        for info in self.layout.get(table, []):
            if info.region_name == region_name:
                return info
        return None

    def reassign(self, info: RegionInfo, new_server_name: str) -> None:
        info.server_name = new_server_name
        self.routing_epoch += 1

    def replace_with_daughters(self, parent: RegionInfo,
                               daughters: List[RegionInfo]) -> None:
        """Split commit: swap the parent's layout slot for its daughters
        in one step.  The daughters cover exactly the parent's range, so
        sort order and contiguity are preserved by construction."""
        infos = self.layout[parent.table]
        idx = next(i for i, info in enumerate(infos)
                   if info.region_name == parent.region_name)
        infos[idx:idx + 1] = list(daughters)
        self.routing_epoch += 1

    def snapshot_layout(self) -> Dict[str, List[RegionInfo]]:
        """A client-cacheable copy of the partition map.
        ``dataclasses.replace`` is shallow — the replica list must be
        copied explicitly or the cache would alias the live layout."""
        return {table: [dataclasses.replace(
                            info,
                            replica_servers=list(info.replica_servers))
                        for info in infos]
                for table, infos in self.layout.items()}
