"""scripts/census.py, smoke-tested on one example: the call tracer sees
the functions the example runs, and the tally sorts every function into
run by the system, run only by tests, or run by nothing.  The full
census (every traffic source plus tier-1) is run by hand."""

import importlib.util
import pathlib

REPO = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "census.py"


def _load():
    spec = importlib.util.spec_from_file_location("census", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _key(census, module, qualname):
    [key] = [key for key, function in census.functions().items()
             if (function.module, function.qualname) == (module, qualname)]
    return key


def test_quickstart_reaches_the_cluster_and_tests_reach_the_rest():
    census = _load()
    system = census.trace(
        census.example(REPO / "examples" / "quickstart.py"))
    create_table = _key(census, "repro.cluster.cluster",
                        "MiniCluster.create_table")
    staleness_at = _key(census, "repro.replication.replica",
                        "FollowerReplica.staleness_at")
    assert create_table in system
    assert staleness_at not in system       # quickstart never replicates
    tests = system | {staleness_at}
    assert census.group_of(create_table, system, tests) == census.SYSTEM
    assert census.group_of(staleness_at, system, tests) == census.TESTS_ONLY

    table = census.tally(system, tests)
    replica = table["repro.replication.replica"]
    assert [f.qualname for f in replica[census.TESTS_ONLY]] == [
        "FollowerReplica.staleness_at"]
    lines = list(census.render(table, list_functions=True))
    assert lines[0].split() == ["module", "system", "tests-only", "nothing"]
    assert any(line.startswith("total ") for line in lines)
    assert ("  repro.replication.replica.FollowerReplica.staleness_at "
            "(2 lines)") in lines
