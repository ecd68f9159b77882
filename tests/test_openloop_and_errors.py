"""Open-loop load shedding, error hierarchy, and misc hardening."""

import pytest

import repro.errors as errors
from repro import IndexDescriptor, IndexScheme, MiniCluster
from repro.ycsb import CoreWorkload, ItemSchema, OpenLoopDriver, OpType, load_direct


def test_error_hierarchy():
    assert issubclass(errors.RpcError, errors.ClusterError)
    assert issubclass(errors.ServerDownError, errors.RpcError)
    assert issubclass(errors.ClusterError, errors.ReproError)
    assert issubclass(errors.StorageError, errors.ReproError)
    assert issubclass(errors.SimulationError, errors.ReproError)
    assert issubclass(errors.SessionExpiredError, errors.ClusterError)
    assert issubclass(errors.EncodingError, errors.ReproError)
    assert issubclass(errors.NoSuchIndexError, errors.IndexError_)


def test_process_crashed_message():
    err = errors.ProcessCrashed("worker", ValueError("boom"))
    assert "worker" in str(err) and "boom" in str(err)
    assert isinstance(err.cause, ValueError)


def test_open_loop_sheds_when_backlogged():
    """With a tiny in-flight cap and an overloaded cluster, the driver
    sheds arrivals instead of growing without bound."""
    schema = ItemSchema(record_count=100, title_cardinality=20)
    cluster = MiniCluster(num_servers=1, seed=34).start()
    cluster.create_table("item")
    load_direct(cluster, schema, "item")
    cluster.create_index(IndexDescriptor(
        "item_title", "item", ("item_title",),
        scheme=IndexScheme.SYNC_FULL))
    workload = CoreWorkload(schema, proportions={OpType.UPDATE: 1.0})
    driver = OpenLoopDriver(cluster, workload, "item",
                            target_tps=50_000.0, max_in_flight=20)
    result = driver.run(duration_ms=300.0)
    # far fewer ops issued than the target implies: shedding happened.
    assert driver.issued < 50_000 * 0.3 * 0.5
    assert result.recorder.overall().count <= driver.issued
    # every arrival was either issued or shed (~15,000 Poisson arrivals).
    assert result.shed > 50_000 * 0.3 * 0.5
    assert driver.issued + result.shed == pytest.approx(50_000 * 0.3,
                                                        rel=0.05)


def test_driver_counts_failed_ops():
    """Ops that raise are counted as failed, not recorded as latencies."""
    schema = ItemSchema(record_count=50)
    cluster = MiniCluster(num_servers=1, seed=35).start()
    cluster.create_table("item")
    load_direct(cluster, schema, "item")
    cluster.kill_server("rs1")   # everything will fail
    workload = CoreWorkload(schema, proportions={OpType.BASE_READ: 1.0})
    from repro.ycsb import ClosedLoopDriver
    driver = ClosedLoopDriver(cluster, workload, "item", num_threads=1)
    # keep the retry loop short so the test is fast
    result = None
    import repro.cluster.client as client_mod
    driver_client_new = cluster.new_client
    def impatient(name="client"):
        client = driver_client_new(name)
        client.max_route_retries = 1
        client.retry_backoff_ms = 1.0
        return client
    cluster.new_client = impatient
    result = driver.run(duration_ms=50.0)
    assert result.failed > 0
    assert result.recorder.overall().count == 0
