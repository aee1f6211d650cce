"""The library holds only what the commands and scripts use.

Every public function, class and method defined in `src/csmasim` must be
referenced somewhere in `src/csmasim` or `scripts/` outside its own body.
Identities that only tests call belong in `tests/oracles.py`.  Every
defaulted parameter of such a function or method must also be passed, by
position or keyword, in some call in `src/csmasim`, `scripts/` or
`perfbench/`: a setting that no caller changes is a module constant.
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


def _parse(paths) -> dict:
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def unreferenced_names() -> list[str]:
    trees = _parse(sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")))
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


def _defaulted(node: ast.FunctionDef, method: bool):
    """(parameter, position or None if keyword-only) for each defaulted parameter."""
    positional = node.args.posonlyargs + node.args.args
    if method:
        positional = positional[1:]  # self or cls
    first = len(positional) - len(node.args.defaults)
    for k, arg in enumerate(positional[first:], start=first):
        yield arg.arg, k
    for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    if any(kw.arg in (name, None) for kw in call.keywords):  # None: **kwargs
        return True
    if position is None:
        return False
    return (len(call.args) > position
            or any(isinstance(a, ast.Starred) for a in call.args))


def unpassed_defaults() -> list[str]:
    callers = (sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
               + sorted(p for p in (ROOT / "perfbench").glob("*.py")
                        if not p.name.startswith("test_")))
    calls: dict[str, list[ast.Call]] = {}
    for tree in _parse(callers).values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(called, []).append(node)
    missing = []
    for path, tree in _parse(sorted(PACKAGE.glob("*.py"))).items():
        for qualified, name, node in _definitions(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            for param, position in _defaulted(node, method="." in qualified):
                if not any(_passes(call, param, position) for call in calls.get(name, [])):
                    missing.append(f"{path.stem}.{qualified}({param})")
    return missing


def test_every_public_definition_has_a_caller():
    assert unreferenced_names() == []


def test_every_default_is_overridden_by_a_caller():
    assert unpassed_defaults() == []


def test_package_init_reexports_nothing():
    # callers import each name from the module that defines it
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert not [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]


def _frozen_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               and any(kw.arg == "frozen" and getattr(kw.value, "value", False)
                       for kw in d.keywords)
               for d in node.decorator_list)


def test_frozen_dataclasses_validate():
    # a frozen record that checks nothing is a NamedTuple: @dataclass generates
    # its methods by exec at every import, ~1 ms a class
    bare = [f"{path.stem}.{node.name}" for path, tree in _parse(sorted(PACKAGE.glob("*.py"))).items()
            for node in tree.body if isinstance(node, ast.ClassDef) and _frozen_dataclass(node)
            and not any(isinstance(item, ast.FunctionDef) and item.name == "__post_init__"
                        for item in node.body)]
    assert bare == []
