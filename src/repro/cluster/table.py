"""Table metadata.

A table is a named, range-partitioned keyspace of rows; each row holds
named columns (we model the paper's single-column-family case).  Index
tables are ordinary tables flagged ``kind=INDEX`` whose rows are key-only
index entries; the flag routes op-counter accounting (Table 2) and keeps
index tables from being indexed themselves.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.core.index import INDEX_TABLE_PREFIX, index_table_name
from repro.lsm.tree import LSMConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.index import IndexDescriptor

__all__ = ["TableKind", "TableDescriptor", "INDEX_TABLE_PREFIX",
           "index_table_name"]


class TableKind(enum.Enum):
    BASE = "base"
    INDEX = "index"


@dataclasses.dataclass
class TableDescriptor:
    name: str
    kind: TableKind = TableKind.BASE
    # Every storage-engine setting of this table's regions, handed to
    # each region's LSMTree as is.
    storage: LSMConfig = dataclasses.field(default_factory=LSMConfig)
    # Index descriptors attached to this (base) table — the catalog keeps
    # a copy in the table descriptor, as BigInsights does (§7).
    indexes: Dict[str, "IndexDescriptor"] = dataclasses.field(default_factory=dict)

    @property
    def is_index(self) -> bool:
        return self.kind is TableKind.INDEX

    @property
    def has_indexes(self) -> bool:
        return bool(self.indexes)

    def attach_index(self, index: "IndexDescriptor") -> None:
        self.indexes[index.name] = index

    def detach_index(self, index_name: str) -> None:
        self.indexes.pop(index_name, None)

    def indexed_columns(self) -> List[str]:
        cols: List[str] = []
        for index in self.indexes.values():
            for col in index.columns:
                if col not in cols:
                    cols.append(col)
        return cols


def even_split_keys(prefix: bytes, num_regions: int,
                    domain: Optional[int] = None) -> List[bytes]:
    """Interior split points dividing a zero-padded numeric keyspace like
    ``item0000000042`` into ``num_regions`` even ranges.

    ``domain`` is the number of distinct keys (defaults to 10 digits' worth).
    """
    if num_regions < 2:
        return []
    domain = domain if domain is not None else 10 ** 10
    width = 10
    return [prefix + f"{(domain * i) // num_regions:0{width}d}".encode()
            for i in range(1, num_regions)]
