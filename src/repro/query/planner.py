"""Access-path selection: index lookup vs parallel full scan.

The Big SQL stand-in (§7: "Query Engine uses index metadata in query
planning, and accesses indexes via the getByIndex API in query
execution").  The rule is the one the paper motivates in §3.1: a global
index wins for *selective* queries; without a usable index the query
broadcasts a scan to every region.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, TYPE_CHECKING

from repro.core.index import IndexDescriptor, checks_timestamps
from repro.core.schemes import IndexScheme
from repro.query.predicates import Eq, Range

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import MiniCluster

__all__ = ["QueryPlan", "plan_query"]


@dataclasses.dataclass
class QueryPlan:
    table: str
    predicate: object
    access_path: str                  # "index" | "scan"
    index: Optional[IndexDescriptor] = None

    def describe(self) -> str:
        if self.access_path == "index":
            plan = (f"INDEX LOOKUP {self.index.name} "
                    f"ON {self.table}({self.index.columns[0]})")
            # Lazy schemes hide a per-hit base-table check behind the
            # lookup; surface it so EXPLAIN output reflects the real read
            # cost: sync-insert reads each row and repairs, validation
            # reads each row's timestamps (its values, for a composite
            # index) and only filters.
            scheme = self.index.scheme
            if (scheme is IndexScheme.VALIDATION
                    and checks_timestamps(self.index)):
                plan += f" WITH TIMESTAMP CHECK ({scheme.value})"
            elif scheme.is_lazy:
                plan += f" WITH BASE CHECK ({scheme.value})"
            return plan
        return f"PARALLEL SCAN {self.table}"


def plan_query(cluster: "MiniCluster", table: str,
               predicate: object) -> QueryPlan:
    """Pick the access path: an index whose leading column matches the
    predicate beats a broadcast scan."""
    descriptor = cluster.descriptor(table)
    column = getattr(predicate, "column", None)
    if column is not None:
        for index in descriptor.indexes.values():
            if not index.is_readable:
                continue  # online CREATE still backfilling — not usable yet
            if index.columns[0] == column:
                if isinstance(predicate, (Eq, Range)):
                    return QueryPlan(table, predicate, "index", index)
    return QueryPlan(table, predicate, "scan")
