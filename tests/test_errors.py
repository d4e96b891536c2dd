"""Every name has a caller."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The package, and the benchmark that drives it: the benchmark's calls are
# the program's traffic. The tests are not callers.
CALLER_FILES = sorted((ROOT / "src" / "vidspec").glob("*.py")) + sorted(
    (ROOT / "perfbench").glob("*.py")
)


def definitions(tree: ast.Module) -> list[str]:
    """Top-level functions, classes and constants, and the methods of
    top-level classes, by name; dunder names, which Python calls itself, are
    left out."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [f.name for f in node.body if isinstance(f, ast.FunctionDef)]
        if isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def references(tree: ast.Module) -> set[str]:
    """Every name read and every attribute taken; a docstring or comment
    that mentions a name is no reference."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def test_every_public_name_has_a_caller():
    """Each public or private function, class, constant and method of the
    package or the benchmark is read somewhere in the package or the
    benchmark, so no name (an error type or a private helper included)
    outlives its last caller."""
    trees = {path: ast.parse(path.read_text()) for path in CALLER_FILES}
    called = set().union(*(references(tree) for tree in trees.values()))
    defined = [
        f"{path.relative_to(ROOT)}:{name}"
        for path, tree in trees.items()
        for name in definitions(tree)
    ]
    uncalled = [entry for entry in defined if entry.rsplit(":", 1)[1] not in called]
    assert defined and not uncalled
