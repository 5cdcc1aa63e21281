"""The public surface: every ``__all__`` entry and package re-export
resolves to a real object."""

import importlib
import pkgutil
import types

import netexposure


def _modules():
    for info in pkgutil.iter_modules(netexposure.__path__):
        yield importlib.import_module(f"netexposure.{info.name}")


def test_every_all_entry_resolves():
    for module in _modules():
        names = getattr(module, "__all__", [])
        assert len(names) == len(set(names)), module.__name__
        missing = [name for name in names if not hasattr(module, name)]
        assert missing == [], module.__name__


def test_package_reexports_come_from_a_module_all():
    public = {}
    for module in _modules():
        for name in getattr(module, "__all__", []):
            public[name] = getattr(module, name)
    for name, value in vars(netexposure).items():
        if name.startswith("_") or isinstance(value, types.ModuleType):
            continue
        assert public.get(name) is value, name
