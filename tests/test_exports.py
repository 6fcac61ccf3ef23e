"""Every public name resolves: a deletion cannot leave a stale export behind.

Each module's __all__ must name attributes the module has, and each name
the package __init__ loads lazily must be public in the module it comes from.
"""
import importlib
import pkgutil

import pytest

import ssbspec

MODULES = sorted(m.name for m in pkgutil.iter_modules(ssbspec.__path__))


def _exports(name: str) -> list[tuple[str, str]]:
    """(source module, name) for each name the module makes public."""
    if name != "__init__":
        return [(name, public) for public in importlib.import_module(f"ssbspec.{name}").__all__]
    return [(source, public) for public, source in ssbspec._EXPORTS.items()]


@pytest.mark.parametrize("name", MODULES + ["__init__"])
def test_every_export_resolves(name):
    package = ssbspec if name == "__init__" else importlib.import_module(f"ssbspec.{name}")
    exports = _exports(name)
    assert exports
    for source, public in exports:
        module = importlib.import_module(f"ssbspec.{source}")
        assert hasattr(package, public), f"{name} exports {public!r}, which it does not define"
        assert public in module.__all__, f"{name} exports {public!r}, which {source} does not make public"
