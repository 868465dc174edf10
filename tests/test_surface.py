"""The library holds only what the program runs.

Every function, class and method defined in src/coxinv (dunders aside)
must be named somewhere in src/coxinv, scripts/ or perfbench/ outside its
own definition: as a Name, an Attribute or an imported name.  A name that
only tests reach belongs in tests/oracles.py or nowhere.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coxinv"


def _program_files():
    files = sorted(PACKAGE.glob("*.py"))
    for sub in ("scripts", "perfbench"):
        files += sorted(p for p in (ROOT / sub).rglob("*.py")
                        if "work" not in p.relative_to(ROOT).parts)
    return files


def _names(node):
    """Every name node mentions: Names, Attributes and imported names."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            for alias in n.names:
                yield alias.name.rpartition(".")[2]


def _definitions(tree, module):
    """(qualified name, name, node) for each function, class and method."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                qual = f"{prefix}.{child.name}"
                yield qual, child.name, child
                yield from walk(child, qual)
            else:
                yield from walk(child, prefix)
    yield from walk(tree, module)


def unused_definitions():
    uses = {}
    trees = {}
    for path in _program_files():
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.parent == PACKAGE:
            trees[path.stem] = tree
        for name in _names(tree):
            uses[name] = uses.get(name, 0) + 1
    unused = []
    for module, tree in sorted(trees.items()):
        for qual, name, node in _definitions(tree, module):
            if name.startswith("__") and name.endswith("__"):
                continue
            own = sum(1 for n in _names(node) if n == name)
            if uses.get(name, 0) - own <= 0:
                unused.append(qual)
    return unused


def test_every_library_name_is_used_by_the_program():
    assert unused_definitions() == []
