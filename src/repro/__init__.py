"""Diff-Index: differentiated secondary indexes on a distributed
log-structured data store.

Reproduction of Tan, Tata, Tang, Fong — "Diff-Index: Differentiated Index
in Distributed Log-Structured Data Stores", EDBT 2014.

Quickstart::

    from repro import MiniCluster, IndexDescriptor, IndexScheme

    cluster = MiniCluster(num_servers=4).start()
    cluster.create_table("reviews")
    cluster.create_index(IndexDescriptor(
        "by_product", "reviews", ("product",),
        scheme=IndexScheme.SYNC_FULL))

    client = cluster.new_client()
    cluster.run(client.put("reviews", b"r1",
                           {"product": b"espresso", "stars": b"5"}))
    hits = cluster.run(client.get_by_index("by_product",
                                           equals=[b"espresso"]))
    assert hits[0].rowkey == b"r1"
"""

from repro.core import (ConsistencyLevel, IndexDescriptor, IndexHit,
                        IndexReport, IndexScheme, IndexScope, Session,
                        WorkloadProfile,
                        check_index, encode_value, decode_value,
                        recommend_scheme)
from repro.cluster import (Client, FaultPlan, MiniCluster, ServerConfig,
                           even_split_keys)
from repro.lsm import Cell, KeyRange
from repro.obs import MetricsRegistry, Tracer
from repro.placement import PlacementConfig, PlacementManager
from repro.replication import ReplicationConfig
from repro.sim import LatencyModel

__version__ = "1.0.0"

__all__ = [
    "MiniCluster", "Client", "ServerConfig", "FaultPlan",
    "PlacementConfig", "PlacementManager",
    "ReplicationConfig",
    "IndexDescriptor", "IndexScheme", "IndexScope", "ConsistencyLevel",
    "WorkloadProfile", "recommend_scheme",
    "IndexHit", "IndexReport", "Session", "check_index",
    "encode_value", "decode_value", "even_split_keys",
    "Cell", "KeyRange", "LatencyModel", "MetricsRegistry", "Tracer",
    "__version__",
]
