"""The benchmark under ``perfbench/`` imports and calls public names of the package.

The benchmark is not part of this suite, so a renamed or deleted name,
or a changed signature, would break it silently; this parses its
sources, checks that every name it imports from the package still
resolves, and binds every call it makes to such a name to the callee's
current signature.
"""

import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("alphascreen", "alphascreen.baselines", "alphascreen.simulation", "alphascreen.cli")
MISSING = object()


def resolve(module, name):
    """The object ``from module import name`` binds, or ``MISSING``."""
    value = getattr(importlib.import_module(module), name, MISSING)
    if value is not MISSING:
        return value
    try:
        return importlib.import_module(f"{module}.{name}")  # a submodule, such as alphascreen.cli
    except ModuleNotFoundError:
        return MISSING


def sources():
    for path in sorted(PERFBENCH.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def package_imports(tree):
    """``{local name: (module, name)}`` of the names a source imports from the package."""
    return {
        alias.asname or alias.name: (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in MODULES
        for alias in node.names
    }


def package_calls():
    """``(file, line, callee name, callee, call node)`` of each call to an imported name.

    A call is matched when it names an imported object (``f(...)``) or an
    attribute of one (``cli.main(...)``); calls through other
    expressions, such as a dict of functions, are not followed.
    """
    for filename, tree in sources():
        imports = package_imports(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in imports:
                name, callee = func.id, resolve(*imports[func.id])
            elif (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in imports
            ):
                name = f"{func.value.id}.{func.attr}"
                callee = getattr(resolve(*imports[func.value.id]), func.attr, MISSING)
            else:
                continue
            yield filename, node.lineno, name, callee, node


def test_every_name_perfbench_imports_resolves():
    imported = [
        (filename, *target)
        for filename, tree in sources()
        for target in package_imports(tree).values()
    ]
    assert len(imported) > 20  # the parse found the benchmark's imports
    missing = [item for item in imported if resolve(*item[1:]) is MISSING]
    assert missing == []


def test_every_call_perfbench_makes_binds_to_the_current_signature():
    checked, broken = 0, []
    for filename, line, name, callee, node in package_calls():
        if callee is MISSING:
            broken.append((filename, line, name, "no such attribute"))
            continue
        starred = any(isinstance(arg, ast.Starred) for arg in node.args)
        if starred or any(keyword.arg is None for keyword in node.keywords):
            continue  # the argument count is not known from the source
        try:
            inspect.signature(callee).bind(*node.args, **{k.arg: k.value for k in node.keywords})
        except TypeError as exc:
            broken.append((filename, line, name, str(exc)))
        checked += 1
    assert checked > 30  # the parse found the benchmark's calls
    assert broken == []
