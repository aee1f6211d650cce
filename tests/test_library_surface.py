"""The library holds only what the commands and scripts use.

Every public function, class and method defined in `src/csmasim` must be
referenced somewhere in `src/csmasim` or `scripts/` outside its own body;
`__init__.py` re-exports do not count.  Identities that only tests call
belong in `tests/oracles.py`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "csmasim"


def _definitions(tree: ast.Module):
    """(qualified name, bare name, node) for public defs at module and class level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item


def _references(tree: ast.Module):
    """(name, node) for every name or attribute the module reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node


def _inside(node, outer) -> bool:
    return (outer.lineno, outer.col_offset) <= (node.lineno, node.col_offset) and (
        (node.end_lineno, node.end_col_offset) <= (outer.end_lineno, outer.end_col_offset))


def unreferenced_names() -> list[str]:
    users = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in users if path.name != "__init__.py"}
    refs = {path: list(_references(tree)) for path, tree in trees.items()}
    missing = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for qualified, name, node in _definitions(tree):
            used = any(ref == name and (other != path or not _inside(at, node))
                       for other, found in refs.items() for ref, at in found)
            if not used:
                missing.append(f"{path.stem}.{qualified}")
    return missing


def test_every_public_definition_has_a_caller():
    assert unreferenced_names() == []
