"""Source hygiene: every name a module of ``nfc``, of the tests or of the
demos imports is used in it, and every name ``nfc`` defines is used or
exported."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "nfc"

#: ``__init__.py`` imports names only to re-export them
MODULES = (sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
           + sorted(TESTS.glob("*.py")) + sorted((TESTS.parent / "demos").glob("*.py")))


def imported_names(tree: ast.Module) -> dict:
    """Name bound by each import statement -> its line number."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def used_names(tree: ast.Module) -> set:
    """Every name read in the module, string annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= used_names(ast.parse(ann.value, mode="eval"))
    return used


def test_modules_found():
    assert {p.name for p in MODULES} >= {"series.py", "surface.py", "cli.py",
                                         "conftest.py", "test_imports.py", "05_cli_tour.py"}


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: p.name if p.parent == SRC else f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = sorted((line, name) for name, line in imported_names(tree).items()
                    if name not in used)
    assert unused == [], f"{path.name}: imported but never used: {unused}"


def test_scan_sees_string_annotations_and_flags_unused():
    tree = ast.parse("from x import A, B, C\n"
                     "def f(a: 'A') -> 'list[B]':\n"
                     "    pass\n")
    names = imported_names(tree)
    assert sorted(n for n in names if n not in used_names(tree)) == ["C"]


def private_definitions(tree: ast.Module) -> dict:
    """Module-level private function, class and constant names -> line number."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                out[name] = node.lineno
    return out


def referenced_names(tree: ast.Module) -> set:
    """Names a module reads or imports from a sibling."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def test_no_dead_private_helpers():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in SRC.glob("*.py")}
    refs = set().union(*map(referenced_names, trees.values()))
    dead = sorted((name, line, module) for module, tree in trees.items()
                  for name, line in private_definitions(tree).items() if name not in refs)
    assert dead == [], f"private names defined but never referenced in nfc: {dead}"


def test_scan_flags_unreferenced_private_names():
    tree = ast.parse("_A = 1\n"
                     "_B: int = 2\n"
                     "__all__ = []\n"
                     "def _f():\n"
                     "    return _A\n"
                     "class _C:\n"
                     "    _B = 3\n"
                     "def g(x: '_B') -> int:\n"
                     "    return x._B + len([_C])\n")
    assert sorted(n for n in private_definitions(tree) if n not in referenced_names(tree)) == [
        "_B", "_f"]


def public_definitions(tree: ast.Module) -> dict:
    """Module-level public function and class names -> line number."""
    return {node.name: node.lineno for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def dead_public_names(trees: dict) -> list:
    """(name, line, module) of each public function or class that
    ``__init__.py`` does not export and that no module of the package reads.

    trees maps a file name of the package to its parsed source.
    """
    exported = {alias.name for node in trees["__init__.py"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    refs = set().union(*map(referenced_names, trees.values()))
    return sorted((name, line, module) for module, tree in trees.items()
                  for name, line in public_definitions(tree).items()
                  if name not in exported and name not in refs)


def test_no_dead_public_names():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in SRC.glob("*.py")}
    dead = dead_public_names(trees)
    assert dead == [], f"public names neither exported by nfc nor referenced in it: {dead}"


def test_scan_flags_unreferenced_public_names():
    trees = {
        "__init__.py": ast.parse("from .a import F\n"),
        "a.py": ast.parse("def F():\n"
                          "    return 1\n"
                          "def g():\n"
                          "    pass\n"
                          "class H:\n"
                          "    pass\n"
                          "def k(x: 'int') -> 'H':\n"
                          "    return H()\n"
                          "def _p():\n"
                          "    pass\n"
                          "V = 1\n"),
        "b.py": ast.parse("from .a import g\n"
                          "class Q:\n"
                          "    def k(self):\n"
                          "        return 'k'\n"),
    }
    assert [name for name, _, _ in dead_public_names(trees)] == ["Q", "k"]
