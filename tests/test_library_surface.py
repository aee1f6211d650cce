"""The library holds only what the commands and scripts use.

Every public function, class and method defined in `src/csmasim` must be
referenced somewhere in `src/csmasim` or `scripts/` outside its own body.
Identities that only tests call belong in `tests/oracles.py`.  Every
defaulted parameter of such a function or method must also be passed, by
position or keyword, in some call in `src/csmasim`, `scripts/` or
`perfbench/`: a setting that no caller changes is a module constant.  Every
module that the benchmark's operation imports, and every name it patches,
must exist.
"""

import ast
import importlib
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


def perfbench_hooks() -> tuple[list[str], list[str]]:
    """The csmasim modules `perfbench/op.py` imports and the `module.name`s it
    patches, by assignment or in a loop over a tuple of modules."""
    tree = ast.parse((ROOT / "perfbench" / "op.py").read_text())
    aliases = {}  # local name -> module
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "csmasim":
                    aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module == "csmasim":
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"csmasim.{alias.name}"
    loops = {node.target.id: [aliases[elt.id] for elt in node.iter.elts]
             for node in ast.walk(tree)
             if isinstance(node, ast.For) and isinstance(node.target, ast.Name)
             and isinstance(node.iter, ast.Tuple)
             and all(isinstance(elt, ast.Name) and elt.id in aliases for elt in node.iter.elts)}
    patched = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
                    owner = target.value.id
                    for module in loops.get(owner, [aliases.get(owner)]):
                        if module is not None:
                            patched.append(f"{module}.{target.attr}")
    return sorted(set(aliases.values())), sorted(patched)


def test_perfbench_hooks_exist():
    # perfbench's own tests run it on a fake package, so only this catches a
    # renamed module or patched name, which fails every benchmark operation
    modules, patched = perfbench_hooks()
    assert "csmasim.engine" in modules and "csmasim.cli.run_experiment" in patched
    for module in modules:
        importlib.import_module(module)  # a module that is gone raises here
    assert [name for name in patched
            if not hasattr(importlib.import_module(name.rpartition(".")[0]),
                           name.rpartition(".")[2])] == []
