"""Every name a ``repro`` module lists in ``__all__`` resolves.

A deleted definition that a package still exports fails here, whether or
not any other test imports it.
"""

import importlib
import pkgutil

import repro


def test_every_exported_name_resolves():
    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    ]
    assert len(modules) > 40
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []
