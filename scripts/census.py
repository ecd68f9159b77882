#!/usr/bin/env python
"""Which code under ``src/repro`` does the system run, and which only its
tests?  A function-level reachability census built on ``sys.settrace``.

Each traffic source runs in its own subprocess under a trace function
that records the code object of every Python call and returns None, so
no line events are traced.  A function counts as reached when its code
object was called at least once.  The system's traffic is:

* the four ledger workloads at 1/8 scale (``ledger.measure.run_repeat``)
  and the ledger's micro-benchmarks (``ledger/micro.py``);
* both ``--quick`` scenarios, through ``python -m repro.scenario``;
* every script in ``examples/``;
* the paper benches, ``pytest benchmarks --benchmark-disable`` (under
  pytest-benchmark's timing loop the tracer would see a fraction of the
  calls).

Tier-1 (``pytest tests``) is traced separately.  Every function line of
``src/repro`` then falls in one of three groups: run by the system, run
only by tests, or run by nothing.  A function's lines run from its
``def`` (or first decorator) to its last line, less the lines of any
function nested in it; module and class bodies are not counted.  Run:

    python scripts/census.py               # the per-module table
    python scripts/census.py --functions   # also each unreached function

The paper benches take about 26 minutes under the tracer, the rest a
few minutes; the sources run one after another.
"""

from __future__ import annotations

import argparse
import ast
import collections
import functools
import json
import os
import pathlib
import subprocess
import sys
import tempfile
from typing import Dict, Iterable, List, NamedTuple, Set, Tuple

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"
PACKAGE = SRC / "repro"

SYSTEM, TESTS_ONLY, NOTHING = "system", "tests-only", "nothing"
GROUPS = (SYSTEM, TESTS_ONLY, NOTHING)

FunctionKey = Tuple[str, int]      # (path under src/, first line)

# Python source each traffic source runs in its child process.
_LEDGER = """
from ledger.measure import run_repeat
from ledger.workloads import SPECS
for spec in SPECS.values():
    run_repeat(spec, 42, 1 / 8)
"""
_MICRO = """
from ledger.micro import run_micro
run_micro()
"""
_SCENARIO = """
import contextlib, io
from repro.scenario.__main__ import main
with contextlib.redirect_stdout(io.StringIO()):
    main(["--scenario", {name!r}, "--quick"])
"""
_EXAMPLE = """
import contextlib, io, runpy
with contextlib.redirect_stdout(io.StringIO()):
    runpy.run_path({path!r}, run_name="__main__")
"""
_PYTEST = """
import pytest
code = pytest.main({args!r})
if code:
    raise SystemExit(f"pytest exited {{code}}")
"""

# The child: install the tracer, run the source, dump what it reached.
_CHILD = """
import json, sys, threading
seen = set()
add = seen.add

def tracer(frame, event, arg):
    add(frame.f_code)

sys.settrace(tracer)
threading.settrace(tracer)
try:
    exec(compile(sys.argv[1], "<census source>", "exec"),
         {"__name__": "census_source"})
finally:
    sys.settrace(None)
    threading.settrace(None)
    src = sys.argv[3]
    reached = sorted({(code.co_filename[len(src) + 1:], code.co_firstlineno)
                      for code in seen if code.co_filename.startswith(src)})
    with open(sys.argv[2], "w") as out:
        json.dump(reached, out)
"""


class Source(NamedTuple):
    name: str
    code: str


def example(path: pathlib.Path) -> Source:
    return Source(f"examples/{path.name}", _EXAMPLE.format(path=str(path)))


def pytest_run(*args: str) -> Source:
    return Source("pytest " + " ".join(args),
                  _PYTEST.format(args=[*args, "-q", "-p", "no:cacheprovider"]))


def system_sources() -> List[Source]:
    sources = [Source("ledger workloads (1/8 scale)", _LEDGER),
               Source("ledger/micro.py", _MICRO)]
    for name in ("diurnal_flash_crowd", "failure_storm"):
        sources.append(Source(f"scenario {name} --quick",
                              _SCENARIO.format(name=name)))
    sources += [example(path)
                for path in sorted((REPO / "examples").glob("*.py"))]
    sources.append(pytest_run("benchmarks", "--benchmark-disable"))
    return sources


def trace(source: Source) -> Set[FunctionKey]:
    """Run one source in a fresh interpreter under the call tracer and
    return the ``src/`` functions it reached."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO), str(SRC)] + ([env["PYTHONPATH"]]
                                 if env.get("PYTHONPATH") else []))
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "reached.json"
        subprocess.run([sys.executable, "-c", _CHILD, source.code, str(out),
                        str(SRC)],
                       cwd=REPO, env=env, check=True,
                       stdout=subprocess.DEVNULL)
        return {(path, line) for path, line in json.loads(out.read_text())}


class Function(NamedTuple):
    module: str
    qualname: str
    lines: int


@functools.lru_cache(maxsize=None)
def functions() -> Dict[FunctionKey, Function]:
    """Every function under ``src/repro``, keyed as a traced code object
    is: its file and the line of its ``def`` or first decorator.  Each
    line belongs to the innermost function around it."""
    found: Dict[FunctionKey, Function] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = str(path.relative_to(SRC))
        module = rel[:-3].replace(os.sep, ".")
        if module.endswith(".__init__"):
            module = module[:-len(".__init__")]
        spans: List[Tuple[int, int, str]] = []

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    spans.append((first, child.end_lineno,
                                  prefix + child.name))
                    visit(child, prefix + child.name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text()), "")
        owned = collections.Counter()
        for line in range(1, max((end for _, end, _ in spans), default=0) + 1):
            inside = [first for first, end, _ in spans if first <= line <= end]
            if inside:
                owned[max(inside)] += 1
        for first, _end, qualname in spans:
            found[(rel, first)] = Function(module, qualname, owned[first])
    return found


def group_of(key: FunctionKey, system: Set[FunctionKey],
             tests: Set[FunctionKey]) -> str:
    if key in system:
        return SYSTEM
    return TESTS_ONLY if key in tests else NOTHING


def tally(system: Set[FunctionKey], tests: Set[FunctionKey],
          ) -> Dict[str, Dict[str, List[Function]]]:
    """Module → group → the functions in that group."""
    table: Dict[str, Dict[str, List[Function]]] = collections.defaultdict(
        lambda: {group: [] for group in GROUPS})
    for key, function in functions().items():
        table[function.module][group_of(key, system, tests)].append(function)
    return dict(sorted(table.items()))


def render(table: Dict[str, Dict[str, List[Function]]],
           list_functions: bool = False) -> Iterable[str]:
    width = max(len(module) for module in table)
    yield f"{'module':<{width}}  {SYSTEM:>7}  {TESTS_ONLY:>10}  {NOTHING:>7}"
    totals = dict.fromkeys(GROUPS, 0)
    for module, groups in table.items():
        counts = {group: sum(f.lines for f in groups[group])
                  for group in GROUPS}
        for group in GROUPS:
            totals[group] += counts[group]
        yield (f"{module:<{width}}  {counts[SYSTEM]:>7}  "
               f"{counts[TESTS_ONLY]:>10}  {counts[NOTHING]:>7}")
    yield (f"{'total':<{width}}  {totals[SYSTEM]:>7}  "
           f"{totals[TESTS_ONLY]:>10}  {totals[NOTHING]:>7}")
    test_only_modules = [
        module for module, groups in table.items()
        if not groups[SYSTEM] and groups[TESTS_ONLY]]
    yield "modules only tests run: " + (", ".join(test_only_modules)
                                        or "none")
    if list_functions:
        for group in (TESTS_ONLY, NOTHING):
            yield f"functions {group}:"
            for module, groups in table.items():
                for function in groups[group]:
                    yield (f"  {module}.{function.qualname} "
                           f"({function.lines} lines)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--functions", action="store_true",
                        help="list every function only tests run or "
                             "nothing runs")
    args = parser.parse_args(argv)
    system: Set[FunctionKey] = set()
    for source in system_sources():
        print(f"tracing {source.name}", file=sys.stderr, flush=True)
        system |= trace(source)
    print("tracing tier-1", file=sys.stderr, flush=True)
    tests = trace(pytest_run("tests"))
    for line in render(tally(system, tests), args.functions):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
