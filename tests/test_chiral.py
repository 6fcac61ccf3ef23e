"""Yukawa invariance and fermion mass tests.

The electroweak lepton doublet, scalar doublet, right singlet and their
Yukawa tensor are read from models/electroweak.model: the delta pairing
of the two doublets, conjugate-linear in the lepton slot.
"""
import pathlib

import numpy as np
import pytest

from ssbspec import chiral
from ssbspec.chiral import (
    RepresentationError,
    TripleProduct,
    fermion_mass_after_breaking,
    fermion_mass_matrix,
    su2_irrep,
    triple_invariance_defect,
)
from ssbspec.liecore import GeneratorError, GeneratorSet
from ssbspec.modelfile import parse_model_file

GP = 1.0
MODEL_FILE = pathlib.Path(__file__).resolve().parents[1] / "models" / "electroweak.model"
BUNDLE = parse_model_file(MODEL_FILE.read_text())
NAMED = {"higgs": BUNDLE.model.generators, **BUNDLE.representations}
LEFT, SCALAR, SINGLET = (NAMED[name] for name in BUNDLE.yukawa.slots)
TAU = BUNDLE.yukawa.product


def charge_rep(q: float, r: int = 1) -> GeneratorSet:
    mats = np.zeros((r, 1, 1), dtype=complex)
    mats[-1, 0, 0] = 1j * q
    return GeneratorSet(mats)


def test_representation_validation():
    # a representation is a GeneratorSet, which refuses a non-skew stack when built
    with pytest.raises(GeneratorError, match="skew"):
        GeneratorSet(np.array([[[1.0, 0.0], [0.0, 1.0]]], dtype=complex))
    with pytest.raises(GeneratorError):
        GeneratorSet(np.zeros((2, 2, 3), dtype=complex))


def test_su2_irrep_closes_with_fixed_structure():
    for dim in (2, 3, 4):
        gs = GeneratorSet(matrices=su2_irrep(dim))
        c = gs.structure_constants()
        # [X_1, X_2] = -X_3 and cyclic, independent of the spin
        assert c[0, 1, 2] == pytest.approx(-1.0, abs=1e-12)
        assert c[1, 2, 0] == pytest.approx(-1.0, abs=1e-12)
        assert gs.skew_defect() < 1e-12


def test_yukawa_tensor_entries_and_invariance():
    assert TAU.tensor[0, 0, 0] == 1.0
    assert TAU.tensor[1, 1, 0] == 1.0
    assert np.count_nonzero(TAU.tensor) == 2
    assert TAU.conjugated == (True, False, False)
    defect = triple_invariance_defect(TAU, LEFT, SCALAR, SINGLET)
    assert defect < 1e-12


def test_contract_unfolds_the_bilinear():
    a = np.array([2.0 + 1j, -1.0])
    b = np.array([0.5, 3.0 - 2j])
    c = np.array([1.5])
    expected = (np.conj(a) @ b) * c[0]
    assert TAU.contract(a, b, c) == pytest.approx(expected)


def test_flipped_singlet_charge_breaks_invariance():
    flipped = charge_rep(GP, r=4)  # +gp instead of -gp
    defect = triple_invariance_defect(TAU, LEFT, SCALAR, flipped)
    assert defect > 0.1 * GP


def test_zero_tensor_trivially_invariant():
    tau = TripleProduct(np.zeros((2, 2, 1)), (True, False, False))
    assert triple_invariance_defect(tau, LEFT, SCALAR, SINGLET) == 0.0


def test_invariance_exponentiates():
    rng = np.random.default_rng(11)
    import scipy.linalg

    for _ in range(10):
        coeffs = rng.normal(size=4)
        ua = scipy.linalg.expm(np.einsum("r,rij->ij", coeffs, LEFT.matrices))
        ub = scipy.linalg.expm(np.einsum("r,rij->ij", coeffs, SCALAR.matrices))
        uc = scipy.linalg.expm(np.einsum("r,rij->ij", coeffs, SINGLET.matrices))
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        b = rng.normal(size=2) + 1j * rng.normal(size=2)
        c = rng.normal(size=1) + 1j * rng.normal(size=1)
        before = TAU.contract(a, b, c)
        after = TAU.contract(ua @ a, ub @ b, uc @ c)
        assert abs(after - before) < 1e-8


def test_electron_mass_and_massless_neutrino():
    v0 = np.array([0.0, 1.0], dtype=complex)
    assert fermion_mass_after_breaking(TAU, v0, g_y=0.5) == pytest.approx(0.5)
    assert fermion_mass_after_breaking(TAU, v0, g_y=0.0) == 0.0
    m = fermion_mass_matrix(TAU, v0, g_y=0.5)
    assert m[1, 0] == pytest.approx(0.5)
    assert m[0, 0] == 0.0


def test_mass_follows_the_vacuum_direction():
    rotated = np.array([0.7, 0.0], dtype=complex)
    m = fermion_mass_matrix(TAU, rotated, g_y=1.0)
    assert m[0, 0] == pytest.approx(0.7)
    assert m[1, 0] == 0.0
    assert fermion_mass_after_breaking(TAU, rotated, g_y=1.0) == pytest.approx(0.7)


@pytest.mark.parametrize("mass", [fermion_mass_matrix, fermion_mass_after_breaking], ids=lambda f: f.__name__)
def test_frozen_scalar_slot_must_match_its_dimension(mass):
    # fermion_mass_after_breaking once ended in numpy's bare broadcast error
    with pytest.raises(RepresentationError, match=r"^scalar slot expects a vector of length 2$"):
        mass(TAU, np.ones(3, dtype=complex), 0.5)


def test_conjugated_scalar_slot_freezes_at_the_conjugate_vacuum():
    # tau(a, b, c) = conj(a) (b_0 + i b_1) c: at v0 = (1, i) a linear scalar
    # slot gives 1 + i i = 0, a conjugate-linear one 1 + i (-i) = 2
    tensor = np.array([[[1.0], [1j]]])
    v0 = np.array([1.0, 1j])
    linear = TripleProduct(tensor, (True, False, False))
    conjugate = TripleProduct(tensor, (True, True, False))
    assert fermion_mass_matrix(linear, v0, g_y=0.5)[0, 0] == 0.0
    assert fermion_mass_matrix(conjugate, v0, g_y=0.5)[0, 0] == 1.0
    assert fermion_mass_after_breaking(conjugate, v0, g_y=0.5) == 1.0
    for tau in (linear, conjugate):
        assert chiral._frozen_coupling(tau, v0, 0.5)[0, 0] == 0.5 * tau.contract([1.0], v0, [1.0])
