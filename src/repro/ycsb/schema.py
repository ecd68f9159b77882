"""The paper's extended-YCSB ``item`` table (§8.1).

"We extend YCSB by adding a item table in which each row has a unique
item id as the rowkey and 10 columns.  Among them, item title and
item price are two columns to index. ... The other 8 columns are each
fed with 100 byte long random byte arrays."

Prices are stored through the order-preserving float encoding so the
price index supports the range queries of Figure 9; titles are drawn
from a bounded vocabulary so exact-match queries return small result
sets (Figure 8's "exact match query that returns only one row" scales
with vocabulary size).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

from repro.core.encoding import encode_value, index_split_keys
from repro.sim.random import RandomStream

__all__ = ["ItemSchema", "TITLE_COLUMN", "INDEXED_PRICE_COLUMN",
           "FILLER_COLUMNS"]

TITLE_COLUMN = "item_title"
INDEXED_PRICE_COLUMN = "item_price"
FILLER_COLUMNS = tuple(f"field{i}" for i in range(8))

PRICE_MIN = 1.0
PRICE_MAX = 1000.0


@dataclasses.dataclass
class ItemSchema:
    """Generates rows of the item table deterministically per seed."""

    record_count: int
    title_cardinality: int = 0      # 0 -> one distinct title per row
    filler_bytes: int = 100
    key_prefix: str = "item"

    def rowkey(self, index: int) -> bytes:
        return f"{self.key_prefix}{index:010d}".encode()

    def title_for(self, index: int) -> bytes:
        if self.title_cardinality > 0:
            slot = index % self.title_cardinality
        else:
            slot = index
        return f"title-{slot:08d}".encode()

    def price_for(self, index: int) -> float:
        """Deterministic price uniform over [PRICE_MIN, PRICE_MAX): rows are
        spread evenly so a range covering x% of the price domain selects
        ~x% of the rows — the selectivity knob of Figure 9."""
        span = PRICE_MAX - PRICE_MIN
        # A multiplicative hash scatters indices uniformly over the span.
        scrambled = (index * 2654435761) % (2 ** 32)
        return PRICE_MIN + span * (scrambled / 2 ** 32)

    def price_bytes(self, price: float) -> bytes:
        return encode_value(float(price))

    def row_values(self, index: int, rng: RandomStream) -> Dict[str, bytes]:
        values = {
            TITLE_COLUMN: self.title_for(index),
            INDEXED_PRICE_COLUMN: self.price_bytes(self.price_for(index)),
        }
        for column in FILLER_COLUMNS:
            values[column] = rng.bytes(self.filler_bytes)
        return values

    def update_values(self, index: int, rng: RandomStream,
                      update_indexed: bool = True) -> Dict[str, bytes]:
        """An update writes a fresh title (exercising index maintenance —
        the paper's update workload must move index entries) plus one
        filler field."""
        values: Dict[str, bytes] = {"field0": rng.bytes(self.filler_bytes)}
        if update_indexed:
            new_slot = rng.randint(0, max(1, self.title_cardinality or
                                          self.record_count) - 1)
            values[TITLE_COLUMN] = f"title-{new_slot:08d}".encode()
        return values

    def split_keys(self, num_regions: int) -> List[bytes]:
        """Even pre-split of the item keyspace (the paper distributes data
        evenly over all region servers)."""
        if num_regions < 2:
            return []
        return [self.rowkey((self.record_count * i) // num_regions)
                for i in range(1, num_regions)]

    def price_split_keys(self, num_regions: int) -> List[bytes]:
        """Even pre-split of the price-index keyspace.  The index stores
        the column's bytes (``price_bytes``), so the split keys encode
        those bytes, not the float."""
        if num_regions < 2:
            return []
        span = PRICE_MAX - PRICE_MIN
        return index_split_keys(
            [self.price_bytes(PRICE_MIN + span * i / num_regions)
             for i in range(1, num_regions)])

    def title_split_keys(self, num_regions: int) -> List[bytes]:
        """Even pre-split of the title-index keyspace."""
        if num_regions < 2:
            return []
        cardinality = self.title_cardinality or self.record_count
        return index_split_keys(
            [f"title-{(cardinality * i) // num_regions:08d}".encode()
             for i in range(1, num_regions)])
