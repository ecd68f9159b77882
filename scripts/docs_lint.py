#!/usr/bin/env python
"""Docs lint: the documentation must keep up with the package layout.

Fails CI when:

* a package under ``src/repro/`` has no anchor section in DESIGN.md
  (every subsystem gets a design chapter before it ships);
* a public class re-exported in ``repro.__all__`` is missing a
  docstring (the README points users at ``help(repro.X)``);
* README.md's architecture map forgets a package;
* OPERATIONS.md's module coverage forgets a package (the operator guide
  must tell an operator where every subsystem's knobs live);
* a user-facing doc names a module that does not exist — a dotted
  ``repro.<pkg>.<module>`` mention or a ``src/repro/.../*.py`` path left
  behind by a deletion or a move;
* a user-facing doc names a member that does not exist — a backticked
  ``Class.attr`` or ``Class.attr()`` whose ``Class`` is defined under
  ``src/repro`` but has no ``attr`` (a method, property or knob like
  ``ServerConfig.auq_high_watermark`` that was renamed or deleted);
* a span table in DESIGN.md or OPERATIONS.md (a table whose first
  header cell is ``Span`` or ``Site label``) lists a backticked name that
  no ``tracer.start(...)`` / ``_span(...)`` call or ``site=`` keyword
  under ``src/repro`` emits as a string literal;
* DESIGN.md or OPERATIONS.md names a metric that nothing registers — a
  backticked ``name{labels}``, ``name_total`` or ``name`` followed by
  ``counter``/``gauge``/``histogram`` that no ``counter(...)`` /
  ``gauge(...)`` / ``histogram(...)`` call under ``src/repro`` takes as
  its name literal;
* DESIGN.md, OPERATIONS.md or README.md names a bare backticked
  ``handle_*`` RPC (no ``RegionServer.`` in front, so the member check
  above cannot see it) that no ``RegionServer`` method defines;
* a code block in a user-facing doc runs ``from repro[.pkg] import A, B``
  and one of the names cannot be imported from there (a snippet left
  behind by a deletion would fail on its first line);
* a user-facing doc's prose names a knob bare — a backticked name that is
  a field of ``ServerConfig``, ``LSMConfig``, ``ReplicationConfig`` or
  ``PlacementConfig`` — instead of as ``Class.field``, which the member
  check above can then follow through renames and deletions.

Run as ``PYTHONPATH=src python scripts/docs_lint.py`` from the repo root.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
USER_DOCS = ("README.md", "DESIGN.md", "OPERATIONS.md", "EXPERIMENTS.md")
DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_]\w*){2,}")
SRC_PATH = re.compile(r"\bsrc/repro/[\w/]+\.py\b")
CLASS_ATTR = re.compile(r"`([A-Z]\w*)\.([A-Za-z_]\w*)(?:\(\))?`")
SPAN_DOCS = ("DESIGN.md", "OPERATIONS.md")
SPAN_TABLE_HEADERS = ("Span", "Site label")
# What a metric mention looks like: `replication_lag_ms{region}`,
# `promotions_total`, or a name followed by its kind ("`remix_build_ms`
# histogram").  Any other bare `*_ms` is left alone: knobs end that way too.
METRIC = re.compile(r"`([a-z][a-z0-9_]*)\{[^`]*\}`"
                    r"|`([a-z][a-z0-9_]*_total)`"
                    r"|`([a-z][a-z0-9_]*)` (?:counter|gauge|histogram)")
# A bare RPC mention opens its backticks on the name: `handle_scan`,
# `handle_index_ops(background=True)`.
HANDLER = re.compile(r"`(handle_\w+)")
HANDLER_DOCS = ("DESIGN.md", "OPERATIONS.md", "README.md")
FENCE = re.compile(r"^```.*?^```", re.S | re.M)
# `from repro.x import A, B` or `from repro import (A,\n B)` in a code block.
REPRO_IMPORT = re.compile(
    r"^\s*from\s+(repro(?:\.\w+)*)\s+import\s+(\([^)]*\)|[^\n]*)", re.M)
BARE_NAME = re.compile(r"`([a-z_][a-z0-9_]*)`")
CONFIG_CLASSES = (("repro.cluster", "ServerConfig"), ("repro.lsm", "LSMConfig"),
                  ("repro.replication", "ReplicationConfig"),
                  ("repro.placement", "PlacementConfig"))


def repro_packages() -> list:
    return sorted(p.name for p in SRC.iterdir()
                  if p.is_dir() and (p / "__init__.py").exists())


def check_design_anchors(errors: list) -> None:
    design = (REPO / "DESIGN.md").read_text()
    for package in repro_packages():
        needle = f"repro.{package}"
        if needle not in design:
            errors.append(
                f"DESIGN.md has no section mentioning `{needle}` — every "
                f"src/repro/* package needs a design anchor")


def check_readme_module_map(errors: list) -> None:
    readme = (REPO / "README.md").read_text()
    for package in repro_packages():
        needle = f"repro/{package}"
        if needle not in readme and f"repro.{package}" not in readme:
            errors.append(
                f"README.md's module map does not mention `{needle}`")


def check_operations_coverage(errors: list) -> None:
    operations = REPO / "OPERATIONS.md"
    if not operations.exists():
        errors.append("OPERATIONS.md is missing — the operator guide "
                      "ships with the repo")
        return
    text = operations.read_text()
    for package in repro_packages():
        if f"repro.{package}" not in text \
                and f"repro/{package}" not in text:
            errors.append(
                f"OPERATIONS.md does not mention `repro.{package}` — the "
                f"operator guide's module coverage must name every "
                f"src/repro/* package")


def _is_module_file(parts: list) -> bool:
    return SRC.parent.joinpath(*parts).with_suffix(".py").is_file()


def _is_package(parts: list) -> bool:
    return SRC.parent.joinpath(*parts, "__init__.py").is_file()


def check_module_references(errors: list) -> None:
    """A dotted mention resolves if it is a module or package, or if its
    parent is a module file (``repro.lsm.tree.LSMConfig``).  A package
    parent does not count: ``repro.lsm.gone`` must not pass as a name
    ``repro.lsm`` might export."""
    for doc in USER_DOCS:
        text = (REPO / doc).read_text()
        for mention in sorted(set(DOTTED.findall(text))):
            parts = mention.split(".")
            if not (_is_module_file(parts) or _is_package(parts)
                    or _is_module_file(parts[:-1])):
                errors.append(f"{doc} names `{mention}`, which is not a "
                              f"module under src/repro")
        for path in sorted(set(SRC_PATH.findall(text))):
            if not (REPO / path).is_file():
                errors.append(f"{doc} names `{path}`, which does not exist")


def repro_classes() -> dict:
    """Every class defined under src/repro: name → [(module, source)]."""
    classes: dict = {}
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        module = ".".join(p for p in parts if p != "__init__")
        text = path.read_text()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ClassDef):
                classes.setdefault(node.name, []).append(
                    (module, ast.get_source_segment(text, node)))
    return classes


def _has_member(module: str, name: str, source: str, attr: str) -> bool:
    """``attr`` is a (possibly inherited) class attribute, or appears in
    the class body — instance attributes exist only once assigned."""
    if re.search(rf"\b{re.escape(attr)}\b", source):
        return True
    cls = getattr(importlib.import_module(module), name, None)
    return cls is not None and hasattr(cls, attr)


def dead_class_attributes(text: str, classes: dict) -> list:
    """Backticked ``Class.attr`` mentions in ``text`` naming a class of
    ``classes`` that has no such member.  Classes not defined under
    src/repro (``System.currentTimeMillis()``) are not checked."""
    dead = []
    for name, attr in sorted(set(CLASS_ATTR.findall(text))):
        definitions = classes.get(name)
        if definitions and not any(_has_member(module, name, source, attr)
                                   for module, source in definitions):
            dead.append(f"{name}.{attr}")
    return dead


def check_class_attributes(errors: list) -> None:
    classes = repro_classes()
    for doc in USER_DOCS:
        for mention in dead_class_attributes((REPO / doc).read_text(),
                                             classes):
            errors.append(f"{doc} names `{mention}`, which that class "
                          f"under src/repro does not have")


def emitted_span_names() -> set:
    """Every string literal in the name argument of a ``.start(...)`` or
    ``._span(...)`` call, or in a ``site=`` keyword, under src/repro —
    the span and scatter-site names the program can emit."""
    names = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            exprs = [kw.value for kw in node.keywords if kw.arg == "site"]
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("start", "_span")):
                exprs += node.args[:1]
            for expr in exprs:
                names.update(leaf.value for leaf in ast.walk(expr)
                             if isinstance(leaf, ast.Constant)
                             and isinstance(leaf.value, str))
    return names


def span_table_names(text: str) -> list:
    """Backticked names in the first column of every markdown table whose
    first header cell is one of ``SPAN_TABLE_HEADERS``."""
    names: list = []
    in_table = in_span_table = False
    for line in text.splitlines():
        if not line.startswith("|"):
            in_table = False
            continue
        first = line.strip("|").split("|")[0].strip()
        if not in_table:
            in_table, in_span_table = True, first in SPAN_TABLE_HEADERS
        elif in_span_table:
            names += re.findall(r"`([^`]+)`", first)
    return names


def dead_span_names(text: str, emitted: set) -> list:
    return sorted(set(span_table_names(text)) - emitted)


def check_span_names(errors: list) -> None:
    emitted = emitted_span_names()
    for doc in SPAN_DOCS:
        for name in dead_span_names((REPO / doc).read_text(), emitted):
            errors.append(f"{doc} lists span or site `{name}`, which "
                          f"nothing under src/repro emits")


def registered_metric_names() -> set:
    """The string literal naming the metric in every ``counter(...)``,
    ``gauge(...)`` or ``histogram(...)`` call under src/repro."""
    names = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and node.args
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("counter", "gauge", "histogram")
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)):
                names.add(node.args[0].value)
    return names


def dead_metric_names(text: str, registered: set) -> list:
    mentioned = {"".join(groups) for groups in METRIC.findall(text)}
    return sorted(mentioned - registered)


def check_metric_names(errors: list) -> None:
    registered = registered_metric_names()
    for doc in SPAN_DOCS:
        for name in dead_metric_names((REPO / doc).read_text(), registered):
            errors.append(f"{doc} names metric `{name}`, which nothing "
                          f"under src/repro registers")


def region_server_rpcs() -> set:
    """Every ``handle_*`` method of ``RegionServer``."""
    from repro.cluster.server import RegionServer
    return {name for name in dir(RegionServer) if name.startswith("handle_")}


def dead_handler_names(text: str, rpcs: set) -> list:
    return sorted(set(HANDLER.findall(text)) - rpcs)


def check_handler_names(errors: list) -> None:
    rpcs = region_server_rpcs()
    for doc in HANDLER_DOCS:
        for name in dead_handler_names((REPO / doc).read_text(), rpcs):
            errors.append(f"{doc} names `{name}`, which no RegionServer "
                          f"method defines")


def dead_code_imports(text: str) -> list:
    """``module.name`` for every name a code block of ``text`` imports
    from a ``repro`` module that does not provide it."""
    dead = []
    for block in FENCE.findall(text):
        for module_name, names in REPRO_IMPORT.findall(block):
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                dead.append(module_name)
                continue
            names = re.sub(r"#[^\n]*", "", names).strip().strip("()")
            for item in names.split(","):
                name = item.split(" as ")[0].strip()
                parts = module_name.split(".") + [name]
                if name and not (hasattr(module, name)
                                 or _is_module_file(parts)
                                 or _is_package(parts)):
                    dead.append(f"{module_name}.{name}")
    return dead


def check_code_imports(errors: list) -> None:
    for doc in USER_DOCS:
        for mention in dead_code_imports((REPO / doc).read_text()):
            errors.append(f"{doc} has a code block importing `{mention}`, "
                          f"which cannot be imported")


def config_fields() -> dict:
    """Knob name → the config classes that define it as a field."""
    fields: dict = {}
    for module_name, class_name in CONFIG_CLASSES:
        cls = getattr(importlib.import_module(module_name), class_name)
        for field in dataclasses.fields(cls):
            fields.setdefault(field.name, []).append(class_name)
    return fields


def bare_knob_names(text: str, fields: dict) -> list:
    """Backticked bare knob names in ``text``'s prose (code blocks pass
    knobs as keyword arguments and are left alone)."""
    return sorted({name for name in BARE_NAME.findall(FENCE.sub("", text))
                   if name in fields})


def check_bare_knobs(errors: list) -> None:
    fields = config_fields()
    for doc in USER_DOCS:
        for name in bare_knob_names((REPO / doc).read_text(), fields):
            owners = " or ".join(f"`{owner}.{name}`"
                                 for owner in fields[name])
            errors.append(f"{doc} names knob `{name}` bare; write {owners}")


def check_public_docstrings(errors: list) -> None:
    import repro
    for name in repro.__all__:
        if name.startswith("__"):
            continue
        obj = getattr(repro, name)
        if inspect.isclass(obj) and not (obj.__doc__ or "").strip():
            errors.append(
                f"repro.{name} is public (in repro.__all__) but the class "
                f"has no docstring")


def main() -> int:
    errors: list = []
    check_design_anchors(errors)
    check_readme_module_map(errors)
    check_operations_coverage(errors)
    check_module_references(errors)
    check_class_attributes(errors)
    check_span_names(errors)
    check_metric_names(errors)
    check_handler_names(errors)
    check_code_imports(errors)
    check_bare_knobs(errors)
    check_public_docstrings(errors)
    if errors:
        for error in errors:
            print(f"docs-lint: {error}", file=sys.stderr)
        return 1
    packages = ", ".join(repro_packages())
    print(f"docs-lint ok ({packages})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
