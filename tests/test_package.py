"""The package's public names: every export resolves, once; and the CSV
format is decided in one module."""

import ast
from pathlib import Path

import cityattract


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
