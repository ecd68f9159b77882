"""Index consistency checking (test oracle and experiment instrument).

Walks the base table (cost-free, outside the simulation's timed paths)
and derives the set of index entries that *should* exist, then compares
with the entries that *do*:

* **missing** — base rows whose current value has no visible index entry
  (a client querying by that value would not find the row);
* **stale** — visible index entries whose base row no longer carries
  that value (sync-insert leaves these on purpose; async schemes leave
  them transiently).

After ``MiniCluster.quiesce()`` an async-simple index must report clean,
and sync-full must report clean at any quiescent point — the paper's
consistency table (§3.4), executable.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Set, TYPE_CHECKING

from repro.core.index import IndexDescriptor, row_index_entry
from repro.lsm.types import KeyRange

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import MiniCluster

__all__ = ["IndexReport", "check_index", "expected_entries", "actual_entries"]


@dataclasses.dataclass
class IndexReport:
    index_name: str
    expected_count: int
    actual_count: int
    missing: Set[bytes]
    stale: Set[bytes]

    @property
    def is_consistent(self) -> bool:
        return not self.missing and not self.stale

    @property
    def has_missing(self) -> bool:
        return bool(self.missing)

    def __str__(self) -> str:  # pragma: no cover - human diagnostics
        return (f"IndexReport({self.index_name}: expected={self.expected_count} "
                f"actual={self.actual_count} missing={len(self.missing)} "
                f"stale={len(self.stale)})")


def expected_entries(cluster: "MiniCluster",
                     index: IndexDescriptor) -> Dict[bytes, int]:
    """Index keys derivable from the current visible base data."""
    out: Dict[bytes, int] = {}
    for info in cluster.master.layout[index.base_table]:
        server = cluster.servers[info.server_name]
        region = server.regions.get(info.region_name)
        if region is None:
            continue
        for row, row_data in region.iter_base_rows():
            derived = row_index_entry(index, row, row_data)
            if derived is not None:
                out[derived[0]] = derived[1]
    return out


def actual_entries(cluster: "MiniCluster",
                   index: IndexDescriptor) -> Dict[bytes, int]:
    """Visible entries physically present (index table, or — for local
    indexes — every base region's reserved keyspace)."""
    out: Dict[bytes, int] = {}
    if index.is_local:
        from repro.core.local import local_scan_range, split_local_entry_key
        reserved = local_scan_range(index.name, KeyRange())
        for info in cluster.master.layout[index.base_table]:
            server = cluster.servers[info.server_name]
            region = server.regions.get(info.region_name)
            if region is None:
                continue
            for cell in region.tree.scan(reserved):
                _name, index_key = split_local_entry_key(cell.key)
                out[index_key] = cell.ts
        return out
    for info in cluster.master.layout[index.table_name]:
        server = cluster.servers[info.server_name]
        region = server.regions.get(info.region_name)
        if region is None:
            continue
        for cell in region.scan_rows(KeyRange()):
            out[cell.key] = cell.ts
    return out


def check_index(cluster: "MiniCluster", index_name: str) -> IndexReport:
    index = cluster.index_descriptor(index_name)
    expected = expected_entries(cluster, index)
    actual = actual_entries(cluster, index)
    missing = set(expected) - set(actual)
    stale = set(actual) - set(expected)
    return IndexReport(index_name, len(expected), len(actual), missing, stale)
