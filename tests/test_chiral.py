"""Equivariance and Yukawa tests.

Closed forms: an equivariant map between the standard 2-dim su(2)
action and the trivial one must be annihilated by all three generators,
so the space is 0; a rep against itself always contains the identity,
and exactly that for an irreducible action.  Two pure charge actions
i q_1, i q_2 intertwine iff q_1 = q_2.
"""
import numpy as np
import pytest

from ssbspec import chiral
from ssbspec.chiral import (
    RepresentationError,
    TripleProduct,
    electroweak_fermion_representations,
    electroweak_yukawa_tensor,
    fermion_mass_after_breaking,
    fermion_mass_matrix,
    intertwiner_basis,
    su2_irrep,
    triple_invariance_defect,
)
from ssbspec.liecore import GeneratorError, GeneratorSet

G, GP = 2.0, 1.0
LEFT, SCALAR, SINGLET = electroweak_fermion_representations(G, GP)


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


def test_doublet_vs_singlet_has_no_intertwiner():
    basis = intertwiner_basis(LEFT, SINGLET)
    assert basis.dimension == 0


def test_rep_against_itself_contains_identity():
    basis = intertwiner_basis(LEFT, LEFT)
    assert basis.dimension == 1
    K = basis.matrices[0]
    assert np.allclose(K, K[0, 0] * np.eye(2), atol=1e-10)


def test_trivial_vs_trivial():
    triv = charge_rep(0.0)
    basis = intertwiner_basis(triv, triv)
    assert basis.dimension == 1
    assert abs(abs(basis.matrices[0][0, 0]) - 1.0) < 1e-12


def test_schur_dimension_one_for_su2_irreps():
    for dim in (1, 2, 3):
        rep = GeneratorSet(su2_irrep(dim))
        assert intertwiner_basis(rep, rep).dimension == 1


def test_su2_irrep_closes_with_fixed_structure():
    for dim in (2, 3, 4):
        gs = GeneratorSet(matrices=su2_irrep(dim))
        c = gs.structure_constants()
        # [X_1, X_2] = -X_3 and cyclic, independent of the spin
        assert c[0, 1, 2] == pytest.approx(-1.0, abs=1e-12)
        assert c[1, 2, 0] == pytest.approx(-1.0, abs=1e-12)
        assert gs.skew_defect() < 1e-12


def test_unequal_charges_do_not_intertwine():
    assert intertwiner_basis(charge_rep(1.0), charge_rep(2.0)).dimension == 0
    assert intertwiner_basis(charge_rep(1.5), charge_rep(1.5)).dimension == 1


def test_intertwiner_dimension_is_basis_independent():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    u, _ = np.linalg.qr(x)
    conj = GeneratorSet(
        np.einsum("ij,rjk,kl->ril", u.conj().T, LEFT.matrices, u)
    )
    assert intertwiner_basis(LEFT, conj).dimension == intertwiner_basis(LEFT, LEFT).dimension


def test_yukawa_tensor_entries_and_invariance():
    tau = electroweak_yukawa_tensor()
    assert tau.tensor[0, 0, 0] == 1.0
    assert tau.tensor[1, 1, 0] == 1.0
    assert np.count_nonzero(tau.tensor) == 2
    assert tau.conjugated == (True, False, False)
    defect = triple_invariance_defect(tau, LEFT, SCALAR, SINGLET)
    assert defect < 1e-12


def test_contract_unfolds_the_bilinear():
    tau = electroweak_yukawa_tensor()
    a = np.array([2.0 + 1j, -1.0])
    b = np.array([0.5, 3.0 - 2j])
    c = np.array([1.5])
    expected = (np.conj(a) @ b) * c[0]
    assert tau.contract(a, b, c) == pytest.approx(expected)


def test_flipped_singlet_charge_breaks_invariance():
    tau = electroweak_yukawa_tensor()
    flipped = charge_rep(GP, r=4)  # +gp instead of -gp
    defect = triple_invariance_defect(tau, LEFT, SCALAR, flipped)
    assert defect > 0.1 * GP


def test_zero_tensor_trivially_invariant():
    tau = TripleProduct(np.zeros((2, 2, 1)), (True, False, False))
    assert triple_invariance_defect(tau, LEFT, SCALAR, SINGLET) == 0.0


def test_invariance_exponentiates():
    tau = electroweak_yukawa_tensor()
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
        before = tau.contract(a, b, c)
        after = tau.contract(ua @ a, ub @ b, uc @ c)
        assert abs(after - before) < 1e-8


def test_electron_mass_and_massless_neutrino():
    tau = electroweak_yukawa_tensor()
    v0 = np.array([0.0, 1.0], dtype=complex)
    assert fermion_mass_after_breaking(tau, v0, g_y=0.5) == pytest.approx(0.5)
    assert fermion_mass_after_breaking(tau, v0, g_y=0.0) == 0.0
    m = fermion_mass_matrix(tau, v0, g_y=0.5)
    assert m[1, 0] == pytest.approx(0.5)
    assert m[0, 0] == 0.0


def test_mass_follows_the_vacuum_direction():
    tau = electroweak_yukawa_tensor()
    rotated = np.array([0.7, 0.0], dtype=complex)
    m = fermion_mass_matrix(tau, rotated, g_y=1.0)
    assert m[0, 0] == pytest.approx(0.7)
    assert m[1, 0] == 0.0
    assert fermion_mass_after_breaking(tau, rotated, g_y=1.0) == pytest.approx(0.7)


@pytest.mark.parametrize("mass", [fermion_mass_matrix, fermion_mass_after_breaking], ids=lambda f: f.__name__)
def test_frozen_scalar_slot_must_match_its_dimension(mass):
    # fermion_mass_after_breaking once ended in numpy's bare broadcast error
    with pytest.raises(RepresentationError, match=r"^scalar slot expects a vector of length 2$"):
        mass(electroweak_yukawa_tensor(), np.ones(3, dtype=complex), 0.5)


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
