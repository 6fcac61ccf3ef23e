import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssbspec.breaking import spectrum
from ssbspec.electroweak import (
    ChargeError,
    ElectroweakParams,
    boson_mass_predictions,
    build_generators,
    build_model,
    charge_operators,
    decompose_gauge_field,
    diagonal_basis,
    elementary_charge,
    recompose_gauge_field,
    weinberg_angle,
)
from ssbspec.liecore import GeneratorError, GeneratorSet

PARAMS = ElectroweakParams(g=2.0, gp=1.0, mu=2.0, lam=1.0)


def test_closed_forms():
    pred = boson_mass_predictions(PARAMS)
    assert pred.w == pytest.approx(np.sqrt(2.0))
    assert pred.z == pytest.approx(np.sqrt(2.5))
    assert pred.photon == 0.0
    assert pred.higgs == pytest.approx(np.sqrt(2.0))
    assert weinberg_angle(PARAMS) == pytest.approx(np.arctan(0.5))
    assert elementary_charge(PARAMS) == pytest.approx(2.0 / np.sqrt(5.0))
    assert elementary_charge(PARAMS) == pytest.approx(PARAMS.g * np.sin(weinberg_angle(PARAMS)))


@settings(max_examples=30, deadline=None)
@given(st.floats(0.2, 4.0), st.floats(0.2, 4.0), st.floats(0.2, 4.0), st.floats(0.2, 4.0))
def test_numerical_spectrum_agrees_with_closed_forms(g, gp, mu, lam):
    p = ElectroweakParams(g=g, gp=gp, mu=mu, lam=lam)
    s = spectrum(build_model(p))
    pred = boson_mass_predictions(p)
    np.testing.assert_allclose(s.boson_masses, pred.as_array(), atol=1e-9)
    np.testing.assert_allclose(s.higgs_masses, [pred.higgs], atol=1e-9)


def test_diagonal_basis_annihilator():
    basis = diagonal_basis(PARAMS)
    model = build_model(PARAMS)
    gs, v0 = model.generators, model.vacuum
    # the last combination annihilates the vacuum, the others do not
    acted = np.einsum("ar,rij,j->ai", basis, gs.matrices, v0)
    norms = np.linalg.norm(acted, axis=1)
    assert norms[3] < 1e-12
    assert np.all(norms[:3] > 0.1)
    np.testing.assert_allclose(basis @ basis.T, np.eye(4), atol=1e-14)


def test_charge_operators_doublet():
    ops = charge_operators(build_generators(PARAMS.g, PARAMS.gp), PARAMS)
    np.testing.assert_allclose(ops.t3, np.diag([0.5, -0.5]), atol=1e-14)
    np.testing.assert_allclose(ops.hypercharge, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(ops.charge, np.diag([1.0, 0.0]), atol=1e-14)
    # T+- are ladder operators for T3 (T+ lowers in this pairing convention)
    comm = ops.t3 @ ops.t_plus - ops.t_plus @ ops.t3
    np.testing.assert_allclose(comm, -ops.t_plus, atol=1e-14)
    comm = ops.t3 @ ops.t_minus - ops.t_minus @ ops.t3
    np.testing.assert_allclose(comm, ops.t_minus, atol=1e-14)
    # the convention pairs with the W+- split: A1 T1 + A2 T2 = (W+ T+ + W- T-)/sqrt2
    rng = np.random.default_rng(1)
    a = rng.normal(size=4)
    dec = decompose_gauge_field(a, PARAMS)
    lhs = a[0] * ops.t1 + a[1] * ops.t2
    rhs = (dec.w_plus * ops.t_plus + dec.w_minus * ops.t_minus) / np.sqrt(2.0)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)
    # the vacuum is electrically neutral
    v0 = build_model(PARAMS).vacuum
    assert np.linalg.norm(ops.charge @ v0) < 1e-14


def test_charge_operators_singlet():
    # right-handed lepton: no weak charge, hypercharge action -i g'
    mats = np.zeros((4, 1, 1), dtype=complex)
    mats[3] = -1j * PARAMS.gp
    ops = charge_operators(GeneratorSet(mats), PARAMS)
    assert ops.hypercharge[0, 0] == pytest.approx(-2.0)
    assert ops.charge[0, 0] == pytest.approx(-1.0)


def test_charge_operators_reject_bad_reps():
    mats = np.zeros((4, 2, 2), dtype=complex)
    mats[0] = np.array([[0.0, 1.0], [0.0, 0.0]])  # not skew-Hermitian
    # the GeneratorSet refuses it before charge_operators could see it
    with pytest.raises(GeneratorError, match="not skew-Hermitian"):
        charge_operators(GeneratorSet(mats), PARAMS)
    with pytest.raises(ChargeError):
        charge_operators(GeneratorSet(np.zeros((3, 2, 2), dtype=complex)), PARAMS)


def test_decompose_gauge_field_example():
    dec = decompose_gauge_field(np.array([0.0, 0.0, 1.0, 0.0]), PARAMS)
    assert dec.z == pytest.approx(2.0 / np.sqrt(5.0))
    assert dec.photon == pytest.approx(1.0 / np.sqrt(5.0))
    assert dec.w_plus == pytest.approx(0.0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=4, max_size=4))
def test_decompose_round_trip_and_norms(coeffs):
    a = np.array(coeffs)
    dec = decompose_gauge_field(a, PARAMS)
    np.testing.assert_allclose(recompose_gauge_field(dec, PARAMS), a, atol=1e-12)
    assert abs(dec.w_plus) ** 2 + abs(dec.w_minus) ** 2 == pytest.approx(
        a[0] ** 2 + a[1] ** 2, abs=1e-10
    )
    assert dec.w_minus == pytest.approx(np.conj(dec.w_plus))


def test_decompose_accepts_fields():
    a = np.random.default_rng(0).normal(size=(5, 5, 4))
    dec = decompose_gauge_field(a, PARAMS)
    assert dec.z.shape == (5, 5)
    np.testing.assert_allclose(recompose_gauge_field(dec, PARAMS), a, atol=1e-12)


def test_parameter_validation():
    with pytest.raises(ValueError):
        ElectroweakParams(g=-1.0)
