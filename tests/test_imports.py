"""Every imported name is used, every private top-level name of the
package is read, and every public top-level function or class of it is
read or exported: stdlib checks over the project's Python files."""

import ast
from pathlib import Path

import patentbulk

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "tests", "perfbench")
PACKAGE = ROOT / "src" / "patentbulk"


def _used_names(tree: ast.AST) -> set[str]:
    """The names ``tree`` reads or binds, those listed in a literal
    ``__all__`` (a computed one names nothing statically) and those read
    by string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple)) and any(
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
        "__all__ = sorted(__all__)\n"
        "def f(x: 'IO[str]') -> None:\n"
        "    sys.exit()\n"
    )
    unused = [item.rpartition(" ")[2] for item in unused_imports(module)]
    assert unused == ["os", "loads"]


def _imported_modules(tree: ast.AST) -> list[tuple[str, int]]:
    """``(module, line)`` of each absolute import in ``tree``."""
    return [
        (name, node.lineno)
        for node in ast.walk(tree)
        for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.Import)
            else [node.module] if isinstance(node, ast.ImportFrom) and not node.level
            else []
        )
    ]


def test_no_module_imports_dataclasses():
    # it loads inspect, ast, dis and tokenize: about 1 MB of every command's peak RSS
    imports = [
        (module.partition(".")[0], "%s:%d" % (path.name, line))
        for path in sorted(PACKAGE.glob("*.py"))
        for module, line in _imported_modules(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert "typing" in dict(imports)  # the scan sees the imports
    assert [where for module, where in imports if module == "dataclasses"] == []


def _private_definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """``(name, line)`` of each name that starts with one ``_`` and that a
    top-level ``def``, ``class`` or assignment of ``tree`` binds."""
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.extend(
                (part.id, node.lineno) for target in targets for part in ast.walk(target)
                if isinstance(part, ast.Name)
            )
    return [(name, line) for name, line in bound if name[:1] == "_" and name[:2] != "__"]


def _read_names(tree: ast.AST) -> set[str]:
    """The names ``tree`` reads: loaded names, attributes and imported names."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_private_names(paths: list[Path]) -> list[str]:
    """``path:line name`` for each private top-level name of ``paths`` that
    none of ``paths`` reads."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in paths}
    read = set().union(*map(_read_names, trees.values()))
    return [
        "%s:%d %s" % (path, line, name)
        for path, tree in trees.items()
        for name, line in _private_definitions(tree)
        if name not in read
    ]


def test_no_private_name_left_unread():
    paths = sorted(PACKAGE.glob("*.py"))
    assert sum(len(_private_definitions(ast.parse(path.read_text(encoding="utf-8")))) for path in paths) > 50
    assert unread_private_names(paths) == []


def test_unread_private_name_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "_LIMIT: int = 3\n"
        "_a, _b = 1, 2\n"
        "__all__ = []\n"
        "def _helper():\n"
        "    return _a\n"
        "class _Left:\n"
        "    pass\n"
    )
    (tmp_path / "b.py").write_text("from a import _helper\nimport a\nprint(a._LIMIT)\n")
    unread = [item.rpartition(" ")[2] for item in unread_private_names(
        [tmp_path / "a.py", tmp_path / "b.py"]
    )]
    assert unread == ["_b", "_Left"]


def unread_public_names(paths: list[Path], exported: set[str]) -> list[str]:
    """``path:line name`` for each public top-level ``def`` or ``class`` of
    ``paths`` that none of ``paths`` reads and ``exported`` does not name."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in paths}
    read = set().union(exported, *map(_read_names, trees.values()))
    return [
        "%s:%d %s" % (path, node.lineno, node.name)
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name[:1] != "_" and node.name not in read
    ]


def test_no_public_name_left_unread():
    # a name only the tests read is code that no command runs
    paths = sorted(PACKAGE.glob("*.py"))
    assert unread_public_names(paths, set(patentbulk.__all__)) == []


def test_unread_public_name_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "LIMIT = 3\n"
        "def helper():\n"
        "    return Kept()\n"
        "class Kept:\n"
        "    def method(self):\n"
        "        pass\n"
        "def exported():\n"
        "    pass\n"
        "def called():\n"
        "    pass\n"
        "def left():\n"
        "    pass\n"
        "class Left:\n"
        "    pass\n"
        "def _private():\n"
        "    pass\n"
    )
    (tmp_path / "b.py").write_text("import a\nfrom a import helper\nprint(a.called())\n")
    unread = [item.rpartition(" ")[2] for item in unread_public_names(
        [tmp_path / "a.py", tmp_path / "b.py"], {"exported"}
    )]
    assert unread == ["left", "Left"]
