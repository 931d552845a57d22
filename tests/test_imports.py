"""Every module of the package (but its re-exporting __init__) and every
script reads each name it imports, so a deletion leaves no import behind."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "mfsde").glob("*.py") if p.name != "__init__.py")
MODULES += sorted((ROOT / "scripts").glob("*.py"))


def unread_imports(source):
    """'line N: name' for each name an import in ``source`` binds and no
    expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(f"line {line}: {name}" for name, line in bound.items() if name not in read)


def test_unread_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from a import b as c, d\n"
        "def f():\n"
        "    import json\n"
        "    d = 1\n"
        "    return c(osp)\n"
    )
    assert unread_imports(source) == ["line 2: os", "line 4: d", "line 6: json"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_reads_every_name_it_imports(path):
    assert unread_imports(path.read_text()) == []


@pytest.mark.parametrize(
    "path", sorted(p for p in (ROOT / "src" / "mfsde").glob("*.py") if p.name != "cli.py"),
    ids=lambda p: p.name)
def test_only_the_cli_writes_csv(path):
    # run_scenario writes every artifact; the library's report types give
    # their (header, rows) and open no file
    tree = ast.parse(path.read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "csv" not in imported
    assert "write_csv" not in path.read_text()
