"""scripts/docs_lint.py's member check: a doc may not name a method,
property or knob that its class under src/repro no longer has."""

import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "docs_lint.py"


def _load_lint():
    spec = importlib.util.spec_from_file_location("docs_lint", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_dead_class_attribute_is_flagged_and_live_ones_pass():
    lint = _load_lint()
    text = ("`ValidationObserver.post_put` ships blindly; "
            "`ValidationObserver.post_mutate`, `ValidationObserver.pre_flush`, "
            "`ServerConfig.auq_high_watermark`, `IndexTask.visible_at`, "
            "`Client.put()` and `System.currentTimeMillis()` all resolve.")
    assert lint.dead_class_attributes(text, lint.repro_classes()) == [
        "ValidationObserver.post_put"]


def test_metric_names_must_be_registered():
    lint = _load_lint()
    text = ("`replication_lag_ms{region}` and `scatter_errors{site=…}` "
            "histograms, the `promotions_total` and `remix_build_ms` "
            "histogram all resolve; `ship_bytes_total`, "
            "`wal_tail_walks{server}` and the `stale_served` counter do "
            "not; knobs like `ship_interval_ms` and `ship_batch_size` are "
            "not metric mentions.")
    assert lint.dead_metric_names(text, lint.registered_metric_names()) == [
        "ship_bytes_total", "stale_served", "wal_tail_walks"]


def test_span_table_names_must_be_emitted():
    lint = _load_lint()
    text = ("| Span | Emitted by |\n|---|---|\n"
            "| `put` / `delete` | write RPC |\n"
            "| `sync_index_batch` | retired |\n"
            "| `wal_group_append`, `enqueue_batch` | retired |\n"
            "\n"
            "| Site label | Path |\n|---|---|\n"
            "| `PI` / `DI` | sync index ships |\n"
            "| `index_pi` / `index_di` | blind ship / retired |\n"
            "\n"
            "| Metric | Layer |\n|---|---|\n"
            "| `not_a_span` | ignored: not a span table |\n")
    assert lint.dead_span_names(text, lint.emitted_span_names()) == [
        "enqueue_batch", "index_di", "sync_index_batch", "wal_group_append"]


def test_bare_handler_names_must_be_region_server_rpcs():
    lint = _load_lint()
    text = ("`handle_read`, `handle_scan` with `max_ts`, "
            "`handle_index_ops(background=True)` and "
            "`RegionServer.handle_mutate` resolve; `handle_index_scan` and "
            "`handle_get` are gone.")
    assert lint.dead_handler_names(text, lint.region_server_rpcs()) == [
        "handle_get", "handle_index_scan"]


def test_code_block_imports_must_resolve():
    lint = _load_lint()
    text = ("Prose may say `from repro import Gone`.\n"
            "```python\n"
            "from repro import MiniCluster, ReadMode as RM  # a comment\n"
            "from repro.lsm import (LSMConfig,  # storage, one value\n"
            "                       LearnedBlockIndex)\n"
            "from repro.core import auq\n"
            "from repro.nowhere import Anything\n"
            "```\n")
    assert lint.dead_code_imports(text) == [
        "repro.ReadMode", "repro.lsm.LearnedBlockIndex", "repro.nowhere"]


def test_knobs_are_named_with_their_class():
    lint = _load_lint()
    fields = lint.config_fields()
    text = ("`ship_interval_ms` and `block_bytes` are bare; "
            "`ReplicationConfig.ship_batch_size`, `replication_factor=3`, "
            "`read_row` and `LSMConfig.block_bytes` pass.\n"
            "```python\nReplicationConfig(`ship_batch_size`)\n```\n")
    assert lint.bare_knob_names(text, fields) == ["block_bytes",
                                                  "ship_interval_ms"]
    assert fields["ship_interval_ms"] == ["ReplicationConfig"]
