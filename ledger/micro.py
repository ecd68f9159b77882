"""``micro.*``: each layer's public functions timed in isolation.

CPU-ns per call, median of five batches, GC paused.  Inputs are fixed
(they do not depend on ``--seed``): these numbers compare commits, and
each should move ``ops_per_cpu_s`` by at most its layer's
``host_us_per_op`` share.
"""

from __future__ import annotations

import random
import statistics
from typing import Callable, Dict, List, Tuple

from repro import Cell, KeyRange, MetricsRegistry, Tracer
from repro.core.encoding import decode_index_key, encode_index_key
from repro.lsm.tree import LSMConfig, LSMTree
from repro.lsm.wal import WriteAheadLog
from repro.sim.kernel import Simulator, Timeout
from repro.sim.resources import Resource

from ledger.measure import cpu_timed

BATCHES = 5
CALLS = 20_000              # calls per batch for the cheap functions
GETS = 2_000                # point reads per batch (~30 us each)
TREE_KEYS = 4_000           # distinct keys in the aged tree
TREE_SSTABLES = 4


def _per_call_ns(batch: Callable[[], int]) -> float:
    """Median over batches of CPU-ns per call; ``batch`` returns how many
    calls it made."""
    samples: List[float] = []
    for _ in range(BATCHES):
        calls, cpu_s = cpu_timed(batch)
        samples.append(cpu_s * 1e9 / calls)
    return statistics.median(samples)


def _keys() -> List[bytes]:
    return [f"key{i:08d}".encode() for i in range(TREE_KEYS)]


def _aged_tree() -> LSMTree:
    """Four overlapping SSTables, every key rewritten in each, below the
    compaction trigger's reach because nothing calls ``compact``."""
    rng = random.Random(7)
    tree = LSMTree("micro", LSMConfig(flush_threshold_bytes=1 << 30))
    ts = 0
    for _ in range(TREE_SSTABLES):
        for key in _keys():
            ts += 1
            tree.add(Cell(key, ts, rng.randbytes(100)))
        tree.complete_flush(tree.prepare_flush())
    return tree


def _sim_timer() -> int:
    sim = Simulator()
    for i in range(CALLS):
        sim.call_later(float(i % 97), int)
    sim.run()
    return CALLS


def _sim_spawn() -> int:
    sim = Simulator()

    def body():
        yield Timeout(1.0)

    for _ in range(CALLS):
        sim.spawn(body())
    sim.run()
    return CALLS


def _sim_resource() -> int:
    resource = Resource(Simulator(), capacity=1)
    for _ in range(CALLS):
        resource.acquire()
        resource.release()
    return CALLS


def _lsm_flush_and_compact() -> Tuple[float, float]:
    """(flush ns per cell, compaction ns per cell read) on the aged shape."""
    flush: List[float] = []
    compact: List[float] = []
    for _ in range(BATCHES):
        tree = _aged_tree()
        for ts, key in enumerate(_keys(), 1_000_000):
            tree.add(Cell(key, ts, bytes(100)))
        handle = tree.prepare_flush()
        _, cpu_s = cpu_timed(lambda: tree.complete_flush(handle))
        flush.append(cpu_s * 1e9 / TREE_KEYS)
        result, cpu_s = cpu_timed(tree.compact)
        compact.append(cpu_s * 1e9 / result.cells_read)
    return statistics.median(flush), statistics.median(compact)


def run_micro() -> Dict[str, float]:
    out: Dict[str, float] = {
        "micro.sim.timer_ns": _per_call_ns(_sim_timer),
        "micro.sim.spawn_ns": _per_call_ns(_sim_spawn),
        "micro.sim.resource_acquire_ns": _per_call_ns(_sim_resource),
    }

    fresh = [Cell(key, ts, bytes(100)) for ts, key in enumerate(_keys(), 1)]

    def lsm_add() -> int:
        tree = LSMTree("micro-add", LSMConfig(flush_threshold_bytes=1 << 30))
        for cell in fresh:
            tree.add(cell)
        return TREE_KEYS

    out["micro.lsm.add_ns"] = _per_call_ns(lsm_add)

    tree = _aged_tree()
    probes = random.Random(11).choices(_keys(), k=GETS)

    def lsm_get() -> int:
        for key in probes:
            tree.get(key)
        return GETS

    def lsm_scan() -> int:
        return sum(1 for _ in tree.scan(KeyRange()))

    out["micro.lsm.get_ns"] = _per_call_ns(lsm_get)
    out["micro.lsm.scan_row_ns"] = _per_call_ns(lsm_scan)
    (out["micro.lsm.flush_cell_ns"],
     out["micro.lsm.compact_cell_ns"]) = _lsm_flush_and_compact()

    cells = (Cell(b"row/field0", 1, bytes(100)),)

    def wal_append() -> int:
        wal = WriteAheadLog()
        for _ in range(CALLS):
            wal.append("region", "table", cells)
        return CALLS

    out["micro.lsm.wal_append_ns"] = _per_call_ns(wal_append)

    titles = [f"title-{i:08d}".encode() for i in range(CALLS)]
    rowkey = b"item0000001234"
    index_keys = [encode_index_key([title], rowkey) for title in titles]

    def encode_key() -> int:
        for title in titles:
            encode_index_key([title], rowkey)
        return CALLS

    def decode_key() -> int:
        for key in index_keys:
            decode_index_key(key, 1)
        return CALLS

    out["micro.core.encode_key_ns"] = _per_call_ns(encode_key)
    out["micro.core.decode_key_ns"] = _per_call_ns(decode_key)

    registry = MetricsRegistry()
    counter = registry.counter("micro_counter", server="rs1")
    histogram = registry.histogram("micro_ms", server="rs1")
    tracer = Tracer(clock=lambda: 0.0, registry=registry)
    values = [float(i % 500) / 7.0 for i in range(CALLS)]

    def counter_inc() -> int:
        for _ in range(CALLS):
            counter.inc()
        return CALLS

    def hist_observe() -> int:
        for value in values:
            histogram.observe(value)
        return CALLS

    def span() -> int:
        for _ in range(CALLS):
            tracer.start("micro").end()
        return CALLS

    out["micro.obs.counter_inc_ns"] = _per_call_ns(counter_inc)
    out["micro.obs.hist_observe_ns"] = _per_call_ns(hist_observe)
    out["micro.obs.span_ns"] = _per_call_ns(span)
    return out
