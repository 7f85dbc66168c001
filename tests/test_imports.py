"""Every imported name is used: a stdlib check over the project's Python files."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "tests", "perfbench")


def _used_names(tree: ast.AST) -> set[str]:
    """The names ``tree`` reads or binds, those listed in ``__all__`` and
    those read by string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
        annotations = getattr(node, "annotation", None), getattr(node, "returns", None)
        for annotation in filter(None, annotations):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used |= _used_names(ast.parse(part.value, mode="eval"))
    return used


def unused_imports(path: Path) -> list[str]:
    """``path:line name`` for each name ``path`` imports and never uses,
    lines marked ``# noqa`` aside."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, str(path))
    used = _used_names(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.ImportFrom) and node.module == "__future__"
        ):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            if name != "*" and name not in used and "# noqa" not in lines[alias.lineno - 1]:
                unused.append("%s:%d %s" % (path, alias.lineno, name))
    return unused


def test_no_unused_imports():
    files = sorted(path for tree in TREES for path in (ROOT / tree).rglob("*.py"))
    assert files
    assert [item for path in files for item in unused_imports(path)] == []


def test_unused_import_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import IO\n"
        "from typing import List as L  # noqa\n"
        "from json import dumps, loads\n"
        "__all__ = ['dumps']\n"
        "def f(x: 'IO[str]') -> None:\n"
        "    sys.exit()\n"
    )
    unused = [item.rpartition(" ")[2] for item in unused_imports(module)]
    assert unused == ["os", "loads"]
