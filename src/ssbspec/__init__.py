"""Numerical spectra for spontaneously broken gauge symmetries.

The package-level names load on first use (PEP 562), so ``import ssbspec``
loads no numpy and ``python -m ssbspec`` reaches ``__main__`` before it.
"""
from importlib import import_module

__version__ = "0.1.0"

# public name -> the ssbspec module it comes from
_EXPORTS = {
    "SpectrumResult": "breaking",
    "mass_form": "breaking",
    "spectrum": "breaking",
    "HiggsModel": "higgsmodel",
    "QuarticPotential": "higgsmodel",
    "check_potential_invariance": "higgsmodel",
    "find_vacuum": "higgsmodel",
    "GeneratorSet": "liecore",
    "act": "liecore",
    "exponentiate": "liecore",
    "random_algebra_element": "liecore",
    "realify": "liecore",
    "unrealify": "liecore",
    "validate_generators": "liecore",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
