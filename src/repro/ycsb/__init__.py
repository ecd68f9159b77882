"""Extended-YCSB workload substrate (§8.1): the item table schema, key
distributions, operation mixes, and closed/open-loop drivers."""

from repro.ycsb.distributions import Uniform, Zipfian
from repro.ycsb.driver import (ClosedLoopDriver, DriverResult, OpenLoopDriver,
                               load_direct, load_via_client)
from repro.ycsb.schema import (FILLER_COLUMNS, INDEXED_PRICE_COLUMN,
                               ItemSchema, TITLE_COLUMN)
from repro.ycsb.stats import LatencyRecorder, OpStats
from repro.ycsb.workload import CoreWorkload, OpType, make_chooser

__all__ = [
    "Uniform", "Zipfian",
    "ItemSchema", "TITLE_COLUMN", "INDEXED_PRICE_COLUMN", "FILLER_COLUMNS",
    "CoreWorkload", "OpType", "make_chooser",
    "ClosedLoopDriver", "OpenLoopDriver", "DriverResult",
    "load_direct", "load_via_client",
    "LatencyRecorder", "OpStats",
]
