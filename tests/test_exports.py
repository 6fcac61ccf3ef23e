"""Every public name resolves: a deletion cannot leave a stale export behind.

Each module's __all__ must name attributes the module has, and each name
the package __init__ re-exports must be public in the module it comes from.
"""
import ast
import importlib
import pathlib
import pkgutil

import pytest

import ssbspec

# __main__ runs the command line when imported
MODULES = sorted(m.name for m in pkgutil.iter_modules(ssbspec.__path__) if m.name != "__main__")


def _exports(name: str) -> list[tuple[str, str, str]]:
    """(source module, name there, name here) for each name the module makes public."""
    if name != "__init__":
        return [(name, public, public) for public in importlib.import_module(f"ssbspec.{name}").__all__]
    tree = ast.parse(pathlib.Path(ssbspec.__file__).read_text())
    return [
        (node.module, alias.name, alias.asname or alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("name", MODULES + ["__init__"])
def test_every_export_resolves(name):
    package = ssbspec if name == "__init__" else importlib.import_module(f"ssbspec.{name}")
    exports = _exports(name)
    assert exports
    for source, public, bound in exports:
        module = importlib.import_module(f"ssbspec.{source}")
        assert hasattr(package, bound), f"{name} exports {bound!r}, which it does not define"
        assert public in module.__all__, f"{name} exports {public!r}, which {source} does not make public"
