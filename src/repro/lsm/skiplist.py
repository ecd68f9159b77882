"""A deterministic-height skip list keyed by arbitrary comparable keys.

The classic ordered map of an LSM memtable (HBase's
ConcurrentSkipListMap).  The memtable itself runs on
:class:`repro.lsm.arraymap.ArrayMap`; this implementation stays as the
reference model ``tests/test_arraymap_equivalence.py`` compares that
against.  It supports:

* ``insert(key, value)`` — upsert;
* ``get(key)``;
* ``items_from(start)`` — ordered iteration from a seek key (needed for
  prefix scans over the index table and for flush snapshots).

Heights are drawn from a geometric distribution using a private PRNG
seeded per instance so structure (and therefore tests) are reproducible.
"""

from __future__ import annotations

import random
from typing import Any, Iterator, List, Optional, Tuple

__all__ = ["SkipList"]

_MAX_LEVEL = 16
_P = 0.25

# Hoisted miss sentinel: __contains__ used to allocate a fresh object()
# per call, one garbage allocation per membership probe on the read path.
_MISSING = object()


class _Node:
    __slots__ = ("key", "value", "forward")

    def __init__(self, key: Any, value: Any, level: int):
        self.key = key
        self.value = value
        self.forward: List[Optional["_Node"]] = [None] * level


class SkipList:
    """Ordered map. Keys must be mutually comparable (we use ``bytes``)."""

    def __init__(self, seed: int = 0):
        self._head = _Node(None, None, _MAX_LEVEL)
        self._level = 1
        self._size = 0
        self._rng = random.Random(seed)
        # Preallocated predecessor array reused by every _find_predecessors
        # call (single-threaded engine; consumed before the next call).
        # Slots at or above the current level always hold _head — insert
        # maintains that invariant when it raises the level.
        self._update: List[_Node] = [self._head] * _MAX_LEVEL

    def __len__(self) -> int:
        return self._size

    def _random_level(self) -> int:
        level = 1
        while level < _MAX_LEVEL and self._rng.random() < _P:
            level += 1
        return level

    def _find_predecessors(self, key: Any) -> List[_Node]:
        """Per level, the rightmost node with ``node.key < key``.

        Returns the instance-owned preallocated array — valid until the
        next call; callers consume it immediately.
        """
        update = self._update
        node = self._head
        for level in range(self._level - 1, -1, -1):
            nxt = node.forward[level]
            while nxt is not None and nxt.key < key:
                node = nxt
                nxt = node.forward[level]
            update[level] = node
        return update

    def insert(self, key: Any, value: Any) -> None:
        update = self._find_predecessors(key)
        candidate = update[0].forward[0]
        if candidate is not None and candidate.key == key:
            candidate.value = value
            return
        level = self._random_level()
        if level > self._level:
            # Levels in [self._level, level) were not written by
            # _find_predecessors; reassert the _head invariant for them.
            head = self._head
            for i in range(self._level, level):
                update[i] = head
            self._level = level
        node = _Node(key, value, level)
        for i in range(level):
            node.forward[i] = update[i].forward[i]
            update[i].forward[i] = node
        self._size += 1

    def obtain(self, key: Any) -> List[Any]:
        """The list stored under ``key``, inserting a fresh empty list on
        miss — one predecessor search where get-then-insert pays two.
        Draws from the height RNG exactly when ``insert`` would (only on
        an actual miss), so structure stays reproducible either way."""
        update = self._find_predecessors(key)
        candidate = update[0].forward[0]
        if candidate is not None and candidate.key == key:
            return candidate.value
        value: List[Any] = []
        level = self._random_level()
        if level > self._level:
            head = self._head
            for i in range(self._level, level):
                update[i] = head
            self._level = level
        node = _Node(key, value, level)
        for i in range(level):
            node.forward[i] = update[i].forward[i]
            update[i].forward[i] = node
        self._size += 1
        return value

    def get(self, key: Any, default: Any = None) -> Any:
        node = self._head
        for level in range(self._level - 1, -1, -1):
            nxt = node.forward[level]
            while nxt is not None and nxt.key < key:
                node = nxt
                nxt = node.forward[level]
        candidate = node.forward[0]
        if candidate is not None and candidate.key == key:
            return candidate.value
        return default

    def __contains__(self, key: Any) -> bool:
        return self.get(key, _MISSING) is not _MISSING

    def items(self) -> Iterator[Tuple[Any, Any]]:
        node = self._head.forward[0]
        while node is not None:
            yield node.key, node.value
            node = node.forward[0]

    def items_from(self, start: Any) -> Iterator[Tuple[Any, Any]]:
        """Ordered iteration over keys ``>= start``."""
        update = self._find_predecessors(start)
        node = update[0].forward[0]
        while node is not None:
            yield node.key, node.value
            node = node.forward[0]

    def first_key(self) -> Any:
        node = self._head.forward[0]
        return None if node is None else node.key

    def last_key(self) -> Any:
        node = self._head
        for level in range(self._level - 1, -1, -1):
            nxt = node.forward[level]
            while nxt is not None:
                node = nxt
                nxt = node.forward[level]
        return None if node is self._head else node.key
