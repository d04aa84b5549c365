"""Source hygiene: every imported name in the package and the tests is used.

No lint tool is a dependency, so this walks the syntax tree with `ast`: a
name bound by `import` / `from ... import` must appear somewhere else in the
same file as a name (attribute chains start with one) or inside a string
annotation.  `from __future__ import ...` binds nothing and is skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "stagesum").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def imported_names(tree: ast.Module) -> dict:
    """Bound name -> line of the import that binds it."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    return bound


def referenced_names(tree: ast.Module) -> set:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    annotations = [n.annotation for n in ast.walk(tree)
                   if isinstance(n, (ast.arg, ast.AnnAssign))]
    annotations += [n.returns for n in ast.walk(tree)
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for ann in filter(None, annotations):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                inner = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(inner) if isinstance(n, ast.Name)}
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = referenced_names(tree)
    return [f"line {line}: {name}" for name, line in imported_names(tree).items()
            if name not in used]


def test_scan_finds_an_unused_import():
    source = "import os\nimport sys\nfrom typing import Optional\nsys.exit(0)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: Optional"]
    assert unused_imports("import a.b\nfrom c import d as e\na.b.f(e)\n") == []
    assert unused_imports("from x import T\ndef f(t: 'T') -> 'list[T]': pass\n") == []
    # a string that only looks like the name is not a use
    assert unused_imports("from x import T\nprint('T')\n") == ["line 1: T"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
