"""The coprocessor extension points themselves: custom observers get
both hooks, exactly as §7 describes the plug-in framework."""

import pytest

from repro import MiniCluster
from repro.core.coprocessor import RegionObserver


class RecordingObserver(RegionObserver):
    def __init__(self):
        self.puts = []
        self.deletes = []
        self.mutations = []
        self.pre_flushes = []

    def post_mutate(self, server, table, row, values, ts, span=None):
        self.mutations.append((row, values, ts))
        if values is None:
            self.deletes.append((row, ts))
        else:
            self.puts.append((row, dict(values), ts))
        return
        yield  # pragma: no cover

    def pre_flush(self, server, region_name):
        self.pre_flushes.append(region_name)
        return
        yield  # pragma: no cover


@pytest.fixture
def wired():
    cluster = MiniCluster(num_servers=1, seed=36).start()
    cluster.create_table("t", flush_threshold_bytes=512)
    observer = RecordingObserver()
    # Install the custom coprocessor alongside (before) the built-ins.
    cluster._observer_cache["t"] = (observer,)
    return cluster, observer


def test_post_put_hook_fires(wired):
    cluster, observer = wired
    client = cluster.new_client()
    ts = cluster.run(client.put("t", b"r1", {"a": b"1"}))
    assert observer.puts == [(b"r1", {"a": b"1"}, ts)]


def test_post_delete_hook_fires(wired):
    cluster, observer = wired
    client = cluster.new_client()
    cluster.run(client.put("t", b"r1", {"a": b"1"}))
    ts = cluster.run(client.delete("t", b"r1", columns=["a"]))
    assert observer.deletes == [(b"r1", ts)]


def test_post_mutate_sees_each_write_once_in_call_order(wired):
    """Each write RPC hands the hook its one row once, with the ts the
    call returned, in call order; a delete arrives as ``values=None``."""
    cluster, observer = wired
    client = cluster.new_client()

    def writes():
        timestamps = [(yield from client.put("t", b"r3", {"a": b"1"})),
                      (yield from client.delete("t", b"r2", ["a"])),
                      (yield from client.put("t", b"r1",
                                             {"a": b"2", "b": b"3"})),
                      (yield from client.put("t", b"r3", {"a": b"4"}))]
        return timestamps
    timestamps = cluster.run(writes())
    assert timestamps == sorted(set(timestamps))
    assert observer.mutations == [
        (b"r3", {"a": b"1"}, timestamps[0]),
        (b"r2", None, timestamps[1]),
        (b"r1", {"a": b"2", "b": b"3"}, timestamps[2]),
        (b"r3", {"a": b"4"}, timestamps[3]),
    ]


def test_pre_flush_hook_fires(wired):
    cluster, observer = wired
    client = cluster.new_client()
    for i in range(30):
        cluster.run(client.put("t", f"r{i:02d}".encode(), {"a": b"x" * 40}))
    cluster.advance(500.0)   # maintenance loop flushes
    assert observer.pre_flushes, "pre_flush must run before a flush"


def test_default_hooks_are_noops():
    """The base class hooks are generator-coroutines that do nothing —
    subclasses override only what they need."""
    cluster = MiniCluster(num_servers=1, seed=37).start()
    cluster.create_table("t")
    observer = RegionObserver()
    cluster._observer_cache["t"] = (observer,)
    client = cluster.new_client()
    cluster.run(client.put("t", b"r", {"a": b"1"}))   # must not blow up
    assert cluster.run(client.get("t", b"r"))["a"][0] == b"1"
