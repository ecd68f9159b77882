"""Workload definitions: operation mixes over the item table.

A :class:`CoreWorkload` draws operations (update / insert / index read /
index range / base read) with configured proportions, chooses target rows
through a YCSB distribution, and knows how to produce the concrete
request parameters (new column values, query predicates) for each.  An
:data:`Op` is that draw as data: its kind and its call's two arguments.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Sequence, Tuple

from repro.sim.random import RandomStream
from repro.ycsb.distributions import KeyChooser, Uniform, Zipfian
from repro.ycsb.schema import PRICE_MAX, PRICE_MIN, ItemSchema

__all__ = ["Op", "OpType", "MixSchedule", "CoreWorkload", "make_chooser"]


class OpType:
    UPDATE = "update"
    INSERT = "insert"
    INDEX_READ = "index_read"
    INDEX_RANGE = "index_range"
    BASE_READ = "base_read"
    WRITES = (UPDATE, INSERT)


# (kind, row, values) for a write, (kind, index, get_by_index keyword
# arguments) for an index read or range, (kind, row, None) for a base read.
Op = Tuple[str, Any, Any]


class MixSchedule:
    """Piecewise-constant operation mix over simulated time.

    ``phases`` maps a start time to an op-proportions dict (values need
    not sum to 1; they are normalised).  The phase whose start is the
    latest one ≤ ``t`` is active; times before the first phase use the
    first phase."""

    def __init__(self, phases: Sequence[Tuple[float, Dict[str, float]]]):
        if not phases:
            raise ValueError("MixSchedule needs at least one phase")
        ordered = sorted(phases, key=lambda p: p[0])
        self._phases: List[Tuple[float, List[Tuple[float, str]]]] = []
        for start, proportions in ordered:
            total = sum(proportions.values())
            if total <= 0:
                raise ValueError(f"phase at {start}: proportions must sum "
                                 f"to a positive value")
            cumulative: List[Tuple[float, str]] = []
            acc = 0.0
            for op, weight in proportions.items():
                if weight < 0:
                    raise ValueError(f"negative weight for {op!r}")
                acc += weight / total
                cumulative.append((acc, op))
            self._phases.append((start, cumulative))

    def proportions_at(self, t_ms: float) -> List[Tuple[float, str]]:
        chosen = self._phases[0][1]
        for start, cumulative in self._phases:
            if start <= t_ms:
                chosen = cumulative
            else:
                break
        return chosen

    def draw(self, t_ms: float, rng: RandomStream) -> str:
        cumulative = self.proportions_at(t_ms)
        roll = rng.random()
        for threshold, op in cumulative:
            if roll <= threshold:
                return op
        return cumulative[-1][1]

    def update_fraction_at(self, t_ms: float) -> float:
        """The nominal update share of the active phase (used by reports
        to annotate windows with the *offered* mix)."""
        cumulative = self.proportions_at(t_ms)
        fraction = 0.0
        prev = 0.0
        for threshold, op in cumulative:
            if op in OpType.WRITES:
                fraction += threshold - prev
            prev = threshold
        return fraction


def make_chooser(name: str, item_count: int) -> KeyChooser:
    if name == "uniform":
        return Uniform(item_count)
    if name == "zipfian":
        return Zipfian(item_count)
    raise ValueError(f"unknown distribution {name!r}")


@dataclasses.dataclass
class CoreWorkload:
    schema: ItemSchema
    proportions: Dict[str, float] = dataclasses.field(
        default_factory=lambda: {OpType.UPDATE: 1.0})
    distribution: str = "uniform"
    range_selectivity: float = 0.0001   # fraction of rows a range query hits
    title_index_name: str = "item_title"
    price_index_name: str = "item_price"

    def __post_init__(self) -> None:
        self._mix = MixSchedule([(0.0, self.proportions)])
        self._chooser = make_chooser(self.distribution,
                                     self.schema.record_count)
        self._insert_cursor = self.schema.record_count

    # -- drawing operations -------------------------------------------------

    def next_op(self, rng: RandomStream) -> str:
        return self._mix.draw(0.0, rng)

    def draw(self, kind: str, rng: RandomStream) -> Op:
        """An op of ``kind`` with its arguments drawn from ``rng``."""
        if kind == OpType.UPDATE:
            return (kind, *self.next_update(rng))
        if kind == OpType.INSERT:
            return (kind, *self.next_insert(rng))
        if kind == OpType.INDEX_READ:
            return (kind, self.title_index_name,
                    {"equals": [self.next_title_query(rng)]})
        if kind == OpType.INDEX_RANGE:
            low, high = self.next_price_range(rng)
            return kind, self.price_index_name, {"low": low, "high": high}
        if kind == OpType.BASE_READ:
            return kind, self.next_rowkey(rng), None
        raise ValueError(f"unknown op {kind!r}")

    def next_rowkey(self, rng: RandomStream) -> bytes:
        return self.schema.rowkey(self._chooser.next_index(rng))

    def next_insert(self, rng: RandomStream) -> tuple:
        index = self._insert_cursor
        self._insert_cursor += 1
        return self.schema.rowkey(index), self.schema.row_values(index, rng)

    def next_update(self, rng: RandomStream) -> tuple:
        index = self._chooser.next_index(rng)
        return (self.schema.rowkey(index),
                self.schema.update_values(index, rng))

    def next_title_query(self, rng: RandomStream) -> bytes:
        """An existing title value, for exact-match index reads."""
        index = self._chooser.next_index(rng)
        return self.schema.title_for(index)

    def next_price_range(self, rng: RandomStream) -> tuple:
        """A price interval selecting ``range_selectivity`` of the rows
        (prices are spread uniformly by construction)."""
        span = (PRICE_MAX - PRICE_MIN) * self.range_selectivity
        low = rng.uniform(PRICE_MIN, PRICE_MAX - span)
        return (self.schema.price_bytes(low),
                self.schema.price_bytes(low + span))
