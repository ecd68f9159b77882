"""Distributed LSM store substrate (HBase-like): regions, region servers,
master, coordinator, simulated HDFS and network, and the client library."""

from repro.cluster.client import Client
from repro.cluster.cluster import MiniCluster
from repro.cluster.coordinator import Coordinator
from repro.cluster.counters import OpCounters, Snapshot
from repro.cluster.hdfs import SimHDFS
from repro.cluster.master import Master, RegionInfo
from repro.cluster.network import FaultPlan, Network
from repro.cluster.recovery import recover_server, task_from_wal_record
from repro.cluster.region import Region, compose_cell_key, split_cell_key
from repro.cluster.server import RegionServer, ServerConfig
from repro.cluster.table import (TableDescriptor, TableKind, even_split_keys,
                                 index_table_name)

__all__ = [
    "MiniCluster", "Client", "RegionServer", "ServerConfig",
    "Master", "RegionInfo", "Coordinator",
    "Region", "compose_cell_key", "split_cell_key",
    "TableDescriptor", "TableKind", "index_table_name", "even_split_keys",
    "SimHDFS", "Network", "FaultPlan", "OpCounters", "Snapshot",
    "recover_server", "task_from_wal_record",
]
