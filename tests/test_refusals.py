"""Each refusal of a malformed argument raises its own error with its own message."""
import numpy as np
import pytest

from ssbspec.breaking import orbit_frame, orbit_split, quadratic_lagrangian
from ssbspec.chiral import (
    RepresentationError,
    TripleProduct,
    intertwiner_basis,
    su2_irrep,
    triple_invariance_defect,
)
from ssbspec.electroweak import ChargeError, ElectroweakParams, build_generators, charge_operators, decompose_gauge_field
from ssbspec.higgsmodel import HiggsModel, NotAVacuumError, QuarticPotential
from ssbspec.liecore import GeneratorError, GeneratorSet, unrealify
from ssbspec.modelfile import ModelFileError, emit_document

EW = build_generators(2.0, 1.0)
SPIN1 = GeneratorSet(su2_irrep(3))
V0 = np.array([0.0, 1.0], dtype=complex)
TAU = TripleProduct(np.ones((2, 2, 1)), (True, False, False))


def _negative_transverse_hessian():
    # zero on the orbit, -1 on every transverse direction
    frame = orbit_frame(EW, V0)
    transverse = frame.u[:, frame.rank :]
    return orbit_split(EW, V0, -transverse @ transverse.T)


CASES = {
    "acted-shape": (lambda: orbit_frame(EW, np.zeros(3)), ValueError, r"vacuum must have shape \(2,\), got \(3,\)"),
    "transverse-negative": (_negative_transverse_hessian, NotAVacuumError, "on the transverse space; not a minimum"),
    "no-vacuum": (
        lambda: quadratic_lagrangian(HiggsModel(EW, QuarticPotential(2.0, 1.0))),
        NotAVacuumError,
        "model has no vacuum",
    ),
    "intertwiner-counts": (lambda: intertwiner_basis(EW, SPIN1), RepresentationError, "generator counts differ: 4 vs 3"),
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
    "decompose-width": (
        lambda: decompose_gauge_field(np.zeros((5, 3)), ElectroweakParams()),
        ValueError,
        "expected 4 coefficients on the last axis, got 3",
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
