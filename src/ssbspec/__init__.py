"""Numerical spectra for spontaneously broken gauge symmetries."""

from .breaking import (
    MassForm,
    QuadraticReport,
    SpectrumResult,
    decompose_shift,
    mass_form,
    orbit_split,
    quadratic_lagrangian,
    spectrum,
    stabilizer_split,
)
from .higgsmodel import (
    HiggsModel,
    QuarticPotential,
    check_potential_invariance,
    find_vacuum,
)
from .liecore import (
    GeneratorSet,
    act,
    exponentiate,
    random_algebra_element,
    realify,
    unrealify,
    validate_generators,
)

__version__ = "0.1.0"
