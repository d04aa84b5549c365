"""Source hygiene: every imported name in the package and the tests is used,
and every function and class the package defines is referenced in it.

No lint tool is a dependency, so this walks the syntax tree with `ast`: a
name bound by `import` / `from ... import` must appear somewhere else in the
same file as a name (attribute chains start with one) or inside a string
annotation.  `from __future__ import ...` binds nothing and is skipped.  A
function, method or class defined in `src/stagesum` (dunders exempt) must
appear somewhere in `src/stagesum` as a name or as an attribute; what only
the tests call is dead code.  An attribute of a name bound to a module
counts only for that module (`M.encode` for `model.encode`; `np.matmul` for
none of the package's), and any other attribute (`state.reorder`) for all.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "stagesum").glob("*.py"))
FILES = SOURCES + sorted((ROOT / "tests").glob("*.py"))


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


# module.name -> why it stays without a caller in src/stagesum
EXEMPT: dict[str, str] = {}


def module_bindings(tree: ast.Module, modules: set) -> dict:
    """Names bound by imports to modules: name -> the module in `modules`
    it is bound to, or None for a module from elsewhere.  Names that
    `from x import y` binds to anything but a package module are left out."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                target = alias.name if alias.asname else alias.name.split(".")[0]
                last = target.split(".")[-1]
                bound[alias.asname or target] = last if last in modules else None
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module == "stagesum"):
            for alias in node.names:
                if alias.name in modules:
                    bound[alias.asname or alias.name] = alias.name
    return bound


def dead_definitions(sources: dict) -> list[str]:
    """Functions and classes defined in `sources` (file name -> text) that no
    node of any of them uses: as a name, as an attribute of their own
    module, or as an attribute of anything but a module."""
    modules = {Path(path).stem for path in sources}
    defined, used = [], {None: set()}     # module -> attributes used on it; None: any
    for path, source in sources.items():
        tree = ast.parse(source)
        bound = module_bindings(tree, modules)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.append((Path(path).stem, node.name, f"{path}:{node.lineno}"))
            elif isinstance(node, ast.Name):
                used[None].add(node.id)
            elif isinstance(node, ast.Attribute):
                owner = node.value.id if isinstance(node.value, ast.Name) else None
                if owner not in bound:
                    used[None].add(node.attr)
                elif bound[owner] is not None:
                    used.setdefault(bound[owner], set()).add(node.attr)
    return [f"{where}: {name}" for module, name, where in defined
            if name not in used[None] | used.get(module, set())
            and f"{module}.{name}" not in EXEMPT]


def test_scan_finds_a_dead_definition():
    sources = {"a.py": "def f(): pass\ndef g(): f()\nclass C:\n"
                       "    def m(self): pass\n    def __len__(self): return 0\n",
               "b.py": "import a\na.C().m()\n"}
    assert dead_definitions(sources) == ["a.py:2: g"]
    # a name that appears only in a string or a comment is not a use
    assert dead_definitions({"a.py": "def f(): pass\nprint('f')  # f\n"}) == ["a.py:1: f"]


def test_scan_resolves_module_attributes():
    """An attribute of a module counts only for that module: another
    package module's function or a foreign module's of the same name is
    not a use."""
    sources = {"a.py": "def f(): pass\ndef h(): pass\ndef matmul(): pass\n",
               "c.py": "def f(): pass\n",
               "b.py": "import numpy as np\nfrom . import c as cc\n"
                       "cc.f()\nnp.matmul(1, 2)\nnp.h\n"}
    assert dead_definitions(sources) == ["a.py:1: f", "a.py:2: h", "a.py:3: matmul"]
    # other attributes (methods, fields) count for every module
    assert dead_definitions({"a.py": "def f(): pass\n", "b.py": "x = 1\nx.f()\n"}) == []


def test_no_dead_definitions():
    assert dead_definitions({p.name: p.read_text(encoding="utf-8") for p in SOURCES}) == []
