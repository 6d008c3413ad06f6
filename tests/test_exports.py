"""Every name a module of the package exports through ``__all__`` resolves and has a caller."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import alphascreen

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "alphascreen"


def test_every_name_in_each_modules_all_resolves():
    modules = [alphascreen] + [
        importlib.import_module(f"alphascreen.{info.name}")
        for info in pkgutil.iter_modules(alphascreen.__path__)
    ]
    exporting = [module for module in modules if hasattr(module, "__all__")]
    assert len(exporting) >= 6  # the parse found the library modules
    dangling = [
        f"{module.__name__}.{name}"
        for module in exporting
        for name in module.__all__
        if not hasattr(module, name)
    ]
    assert dangling == []


def exported(tree):
    """The names of a module's top-level ``__all__`` list, if it has one."""
    for statement in tree.body:
        if isinstance(statement, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in statement.targets
        ):
            return ast.literal_eval(statement.value)
    return []


def referenced(tree):
    """The names a source reads, as a name or as an attribute.

    A top-level statement's reads of the names it defines itself, such
    as a recursive call or a class naming itself, are left out.  Imports,
    and so ``__init__``'s re-exports, read nothing, nor do the strings of
    an ``__all__`` list.
    """
    names = set()
    for statement in tree.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined = {statement.name}
        elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
            targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
            defined = {target.id for target in targets if isinstance(target, ast.Name)}
        else:
            defined = set()
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name not in defined:
                names.add(name)
    return names


def test_every_exported_name_has_a_caller_outside_the_tests():
    # Callers are the package itself, the benchmark (read only, as in
    # test_perfbench_surface.py) and the README's library quick start.
    package = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    readme = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), flags=re.DOTALL)
    callers = [*package.values(), *map(ast.parse, readme)]
    callers += [ast.parse(path.read_text()) for path in sorted((ROOT / "perfbench").glob("*.py"))]
    called = set().union(*map(referenced, callers))
    exports = {module: exported(tree) for module, tree in package.items()}
    assert sum(map(bool, exports.values())) >= 6  # the parse found the library modules
    uncalled = [
        f"alphascreen.{module}.{name}"
        for module, names in exports.items()
        for name in names
        if name not in called
    ]
    assert uncalled == []
