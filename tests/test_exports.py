"""Every name a module of the package exports through ``__all__`` resolves and has a caller."""

import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


def modules_calling(names):
    """The package's modules that call a function or method named in ``names``."""
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in names:
                    callers.add(path.stem)
    return callers


def test_only_estimation_fits_or_splits_a_panel():
    # ``PanelFits`` composes a panel's fits; every other module reads them from it
    fitting = {"estimate_alpha", "fit_observed", "_latent_fit", "chronological_split"}
    assert modules_calling(fitting) == {"estimation"}


def test_only_io_writes_files():
    # ``io.write_csv`` writes every table, so one module knows the format
    assert modules_calling({"write_text", "write_bytes", "open"}) == {"io"}


# The names the package re-exports, pinned: ``alphascreen/__init__.py``
# resolves each on first use, from the module that defines it.
PACKAGE_EXPORTS = {
    "baselines": ["PValueResult", "bh_procedure", "bh_statistics", "sbh_statistics", "sn_statistics"],
    "errors": [
        "AlignmentError", "AlphascreenError", "DegenerateNormalizerError", "DimensionError",
        "NegativeControlError", "NoFactorStructureError", "RankDeficientError",
    ],
    "estimation": [
        "LatentFit", "PanelFit", "PanelFits", "estimate_alpha", "estimate_latent",
        "long_run_variance", "regress_out_observed",
    ],
    "fdr": [
        "FdrMetrics", "NegativeControlConfig", "SplitTestResult", "fdp_power",
        "select_threshold", "split_statistics",
    ],
    "io": ["load_factors_csv", "load_returns_csv", "save_factors_csv", "save_returns_csv"],
    "linalg": ["demean_columns", "least_squares"],
    "methods": ["METHODS"],
    "panels": ["FactorPanel", "ReturnPanel", "check_aligned", "chronological_split"],
    "simulation": [
        "ArmaComponent", "MetricsReport", "SimulationScenario",
        "arma_mixture_errors", "figure1_hetero_scenario", "garch_factors", "generate_panel",
        "run_studies", "run_study_detailed", "table1_lognormal_scenario", "table1_normal_scenario",
        "table2_garch_arma_scenario",
    ],
}


def test_every_package_export_resolves_in_a_fresh_process():
    # each source module's names first, in a process of their own, so that
    # no other import has loaded the module; then the submodules by attribute
    code = (
        "import importlib, json, sys\n"
        "exports = json.loads(sys.argv[1])\n"
        "wrong = []\n"
        "for module, names in exports.items():\n"
        "    for name in names:\n"
        "        value = {}\n"
        "        exec(f'from alphascreen import {name} as value', value)\n"
        "        source = importlib.import_module(f'alphascreen.{module}')\n"
        "        if value['value'] is not getattr(source, name):\n"
        "            wrong.append(name)\n"
        "print(json.dumps(wrong))\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    for module, names in PACKAGE_EXPORTS.items():
        result = subprocess.run(
            [sys.executable, "-c", code, json.dumps({module: names})], env=env, check=True,
            capture_output=True, text=True, timeout=120,
        )
        assert json.loads(result.stdout) == [], module
    attribute = (
        "import alphascreen as a, sys\n"
        "assert 'alphascreen.simulation' not in sys.modules\n"
        "print(a.simulation.__name__, a.simulation.replication_rng.__module__)\n"
        "print(sorted(set(dir(a)) & set(sys.argv[1:])) == sorted(sys.argv[1:]))\n"
    )
    names = [name for group in PACKAGE_EXPORTS.values() for name in group]
    result = subprocess.run(
        [sys.executable, "-c", attribute, *names], env=env, check=True, capture_output=True,
        text=True, timeout=120,
    )
    assert result.stdout.split() == ["alphascreen.simulation", "alphascreen.simulation", "True"]


def test_an_unknown_package_attribute_is_an_attribute_error():
    assert not hasattr(alphascreen, "no_such_name")
    with pytest.raises(ImportError):
        exec("from alphascreen import no_such_name", {})
