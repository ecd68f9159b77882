"""Bloom filter over the row keys of one SSTable.

HBase attaches a bloom filter to each HFile so point reads can skip files
that cannot contain the key; without it, every get would pay one random
I/O per on-disk store.  The read-cost accounting in the latency model
relies on these skips, so the filter is a real bit-array implementation,
not a set lookup.
"""

from __future__ import annotations

import math
from hashlib import blake2b
from typing import Iterable

__all__ = ["BloomFilter"]


class BloomFilter:
    def __init__(self, expected_items: int, false_positive_rate: float = 0.01):
        expected_items = max(1, expected_items)
        if not 0.0 < false_positive_rate < 1.0:
            raise ValueError("false_positive_rate must be in (0, 1)")
        ln2 = math.log(2.0)
        bits = int(math.ceil(-expected_items * math.log(false_positive_rate)
                             / (ln2 * ln2)))
        self.num_bits = max(8, bits)
        self.num_hashes = max(1, int(round(self.num_bits / expected_items * ln2)))
        self._bits = bytearray((self.num_bits + 7) // 8)
        self.item_count = 0

    @classmethod
    def build(cls, keys: Iterable[bytes],
              expected_items: int,
              false_positive_rate: float = 0.01) -> "BloomFilter":
        bloom = cls(expected_items, false_positive_rate)
        for key in keys:
            bloom.add(key)
        return bloom

    def add(self, key: bytes) -> None:
        # Kirsch–Mitzenmacher double hashing from one 16-byte digest,
        # inlined (no generator frame): add/contains are called once per
        # key per SSTable on the read path.
        digest = blake2b(key, digest_size=16).digest()
        h1 = int.from_bytes(digest[:8], "big")
        h2 = int.from_bytes(digest[8:], "big") | 1
        bits = self._bits
        num_bits = self.num_bits
        for i in range(self.num_hashes):
            pos = (h1 + i * h2) % num_bits
            bits[pos >> 3] |= 1 << (pos & 7)
        self.item_count += 1

    def might_contain(self, key: bytes) -> bool:
        digest = blake2b(key, digest_size=16).digest()
        h1 = int.from_bytes(digest[:8], "big")
        h2 = int.from_bytes(digest[8:], "big") | 1
        bits = self._bits
        num_bits = self.num_bits
        for i in range(self.num_hashes):
            pos = (h1 + i * h2) % num_bits
            if not bits[pos >> 3] & (1 << (pos & 7)):
                return False
        return True
