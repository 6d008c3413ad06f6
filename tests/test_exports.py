"""Every name a module of the package exports through ``__all__`` resolves."""

import importlib
import pkgutil

import alphascreen


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
