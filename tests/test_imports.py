"""Every module of the package (but its re-exporting __init__) and every
script reads each name it imports, so a deletion leaves no import behind, and
every private module-level name of the package is read by the package or a
script, so a deletion leaves no helper behind."""

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


def private_names(source):
    """{name: line} of each single-underscore name ``source`` binds at
    module level."""
    bound = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        bound[name.id] = node.lineno
    return {name: line for name, line in bound.items()
            if name.startswith("_") and not name.startswith("__")}


def names_read(source):
    """Every name ``source`` reads: as a variable, an attribute or an
    imported name."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_unread_private_names_are_found():
    source = (
        "_USED, __dunder__ = 1, 2\n"
        "_UNUSED: int = 3\n"
        "def _helper():\n"
        "    return _USED\n"
        "class _Orphan:\n"
        "    pass\n"
        "def public():\n"
        "    _local = _helper()\n"
        "    return _local\n"
    )
    read = names_read(source)
    assert {name: line for name, line in private_names(source).items()
            if name not in read} == {"_UNUSED": 2, "_Orphan": 5}


def test_every_private_module_name_is_read():
    read = set()
    for path in MODULES + [ROOT / "src" / "mfsde" / "__init__.py"]:
        read |= names_read(path.read_text())
    unread = [f"{path.name} line {line}: {name}"
              for path in sorted((ROOT / "src" / "mfsde").glob("*.py"))
              for name, line in private_names(path.read_text()).items() if name not in read]
    assert unread == []


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


def references_by_scope(source, names):
    """{(scope, name)} of each read of one of ``names`` in ``source``, as a
    variable or an attribute, where scope is the dotted path of the classes
    and functions around it ('' at module level)."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            name = (child.id if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load)
                    else child.attr if isinstance(child, ast.Attribute) else None)
            if name in names:
                found.add((".".join(scope), name))
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_references_by_scope_are_found():
    source = (
        "from m import draw\n"
        "x = draw\n"
        "class C:\n"
        "    def steps(self):\n"
        "        return m.draw(1)\n"
        "def f():\n"
        "    def g():\n"
        "        draw = 1\n"
        "        return draw\n"
    )
    assert references_by_scope(source, {"draw"}) == {
        ("", "draw"), ("C.steps", "draw"), ("f.g", "draw")}


def test_one_method_starts_an_interacting_run():
    # StreamedFlow.steps draws a run's noise block and iterates its Euler
    # steps; a second reader of either would be a second way to start a run
    names = {"brownian_increments", "_euler_steps"}
    found = {(path.name, *ref)
             for path in sorted((ROOT / "src" / "mfsde").glob("*.py"))
             for ref in references_by_scope(path.read_text(), names)}
    assert found == {("dynamics.py", "StreamedFlow.steps", name) for name in names}
