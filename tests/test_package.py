"""The package's public names: every export resolves, once; every public
definition is exported or named by a module; the CSV format is decided
in one module; numpy is the only import from outside the standard
library; and the test oracles use only public names, and no function of
the ingest module."""

import ast
import inspect
import sys
from pathlib import Path

import cityattract
from cityattract import events


def test_every_export_resolves():
    missing = [name for name in cityattract.__all__ if not hasattr(cityattract, name)]
    assert missing == []
    assert len(set(cityattract.__all__)) == len(cityattract.__all__)


def test_no_module_calls_csv_writer():
    # every CSV file is rendered by cityattract.output, so one quoting rule holds
    writers = {"writer", "DictWriter"}
    found = []
    for path in sorted(Path(cityattract.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            imported = isinstance(node, ast.ImportFrom) and node.module == "csv" and {a.name for a in node.names} & writers
            called = isinstance(node, ast.Attribute) and node.attr in writers and getattr(node.value, "id", None) == "csv"
            if imported or called:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_modules_import_only_the_standard_library_and_numpy():
    # numpy is the one runtime dependency; other packages on the machine
    # (a faster JSON reader, say) must not creep into the package
    allowed = set(sys.stdlib_module_names) | {"numpy", "cityattract"}
    found = []
    for path in sorted(Path(cityattract.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name.split(".")[0] not in allowed]
    assert found == []


def test_oracles_import_no_private_name_from_the_package():
    # an oracle built on the package's own internals cannot catch their faults
    path = Path(__file__).with_name("oracles.py")
    found = [
        f"{node.lineno} {alias.name}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cityattract"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []


def test_oracles_import_no_function_from_the_ingest_module():
    # the row-by-row ingest reference must decide rows with its own rules:
    # it may share the package's types and constants, not its functions
    path = Path(__file__).with_name("oracles.py")
    found = [
        f"{node.lineno} {alias.name}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module == "cityattract.events"
        for alias in node.names
        if inspect.isfunction(getattr(events, alias.name, None))
    ]
    assert found == []


def test_every_public_definition_is_exported_or_named_in_the_package():
    # a public module-level function or class that __all__ does not export
    # and no module names is code that only tests call
    paths = sorted(Path(cityattract.__file__).parent.rglob("*.py"))
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    named = set(cityattract.__all__)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    found = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in named
    ]
    assert found == []
