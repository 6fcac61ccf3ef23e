"""Each refusal of a malformed argument raises its own error with its own message."""
import numpy as np
import pytest

from ssbspec.breaking import orbit_frame, spectrum
from ssbspec.chiral import RepresentationError, TripleProduct, su2_irrep, triple_invariance_defect
from ssbspec.electroweak import ChargeError, ElectroweakParams, build_generators, charge_operators
from ssbspec.higgsmodel import HiggsModel, NotAVacuumError, QuarticPotential
from ssbspec.liecore import GeneratorError, GeneratorSet, unrealify
from ssbspec.modelfile import ModelFileError, emit_document

EW = build_generators(2.0, 1.0)
TAU = TripleProduct(np.ones((2, 2, 1)), (True, False, False))


CASES = {
    "acted-shape": (lambda: orbit_frame(EW, np.zeros(3)), ValueError, r"vacuum must have shape \(2,\), got \(3,\)"),
    "vacuum-at-origin": (
        lambda: HiggsModel(EW, QuarticPotential(2.0, 1.0), np.zeros(2)),
        NotAVacuumError,
        r"Hessian has negative eigenvalue -2\.000e\+00",
    ),
    "no-vacuum": (lambda: spectrum(HiggsModel(EW, QuarticPotential(2.0, 1.0))), NotAVacuumError, "model has no vacuum"),
    "triple-shape": (
        lambda: triple_invariance_defect(TAU, EW, EW, EW),
        RepresentationError,
        r"tensor shape \(2, 2, 1\) does not match representation dimensions \(2, 2, 2\)",
    ),
    "triple-counts": (
        lambda: triple_invariance_defect(TAU, EW, EW, GeneratorSet(np.zeros((3, 1, 1)))),
        RepresentationError,
        "must share one generator count",
    ),
    "irrep-dimension": (lambda: su2_irrep(0), RepresentationError, "at least 1"),
    "charges-not-commuting": (
        lambda: charge_operators(GeneratorSet(np.concatenate([EW.matrices[:3], EW.matrices[:1]])), ElectroweakParams()),
        ChargeError,
        "T3 and hypercharge do not commute",
    ),
    "empty-stack": (lambda: GeneratorSet(np.zeros((0, 2, 2))), GeneratorError, "must be nonempty"),
    "project-shape": (lambda: EW.project(np.zeros((3, 3))), GeneratorError, r"expected trailing shape \(2, 2\)"),
    "not-closed": (
        lambda: GeneratorSet(EW.matrices[:2]).structure_constants(),
        GeneratorError,
        "brackets leave the generator span",
    ),
    "odd-realified": (lambda: unrealify(np.zeros(3)), GeneratorError, "even length"),
    "emit-nan": (lambda: emit_document({"report": {"x": float("nan")}}), ModelFileError, "cannot emit NaN"),
    "emit-type": (lambda: emit_document({"report": {"x": {1, 2}}}), ModelFileError, "cannot emit value of type set"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_refusal_names_what_is_wrong(case):
    call, error, match = CASES[case]
    with pytest.raises(error, match=match):
        call()
