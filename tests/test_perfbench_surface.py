"""The benchmark under ``perfbench/`` imports public names of the package.

The benchmark is not part of this suite, so a renamed or deleted name
would break it silently; this parses its sources and checks that every
name it imports from the package still resolves.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("alphascreen", "alphascreen.baselines", "alphascreen.simulation", "alphascreen.cli")


def resolves(module, name):
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")  # a submodule, such as alphascreen.cli
    except ModuleNotFoundError:
        return False
    return True


def test_every_name_perfbench_imports_resolves():
    imported = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module in MODULES:
                imported.extend((path.name, node.module, alias.name) for alias in node.names)
    assert len(imported) > 20  # the parse found the benchmark's imports
    missing = [item for item in imported if not resolves(*item[1:])]
    assert missing == []
