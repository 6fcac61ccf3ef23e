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
    elementary_charge,
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
    # g g' itself overflowed at 1e200 and lost digits in subnormals at 1e-160
    for coupling in (1e-160, 1e200):
        p = ElectroweakParams(g=coupling, gp=coupling)
        assert elementary_charge(p) == pytest.approx(coupling / np.sqrt(2.0), rel=1e-15)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.2, 4.0), st.floats(0.2, 4.0), st.floats(0.2, 4.0), st.floats(0.2, 4.0))
def test_numerical_spectrum_agrees_with_closed_forms(g, gp, mu, lam):
    p = ElectroweakParams(g=g, gp=gp, mu=mu, lam=lam)
    s = spectrum(build_model(p))
    pred = boson_mass_predictions(p)
    np.testing.assert_allclose(s.boson_masses, pred.as_array(), atol=1e-9)
    np.testing.assert_allclose(s.higgs_masses, [pred.higgs], atol=1e-9)


def test_diagonal_basis_annihilator():
    # the module docstring's mass-diagonal combinations a_1..a_4, as closed forms
    g, gp = PARAMS.g, PARAMS.gp
    norm = np.hypot(g, gp)
    basis = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, g / norm, -gp / norm], [0, 0, gp / norm, g / norm]])
    model = build_model(PARAMS)
    gs, v0 = model.generators, model.vacuum
    # the last combination annihilates the vacuum, the others do not
    acted = np.einsum("ar,rij,j->ai", basis, gs.matrices, v0)
    norms = np.linalg.norm(acted, axis=1)
    assert norms[3] < 1e-12
    assert np.all(norms[:3] > 0.1)
    np.testing.assert_allclose(basis @ basis.T, np.eye(4), atol=1e-14)
    # spectrum finds the same rows up to sign, and the W pair's plane
    s = spectrum(model)
    np.testing.assert_allclose(np.abs(s.unbroken), np.abs(basis[3:]), atol=1e-12)
    np.testing.assert_allclose(np.abs(s.broken[0]), np.abs(basis[2]), atol=1e-12)
    np.testing.assert_allclose(s.broken[1:] @ basis[2:].T, 0.0, atol=1e-12)


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
    w_plus, w_minus = (a[0] + 1j * a[1]) / np.sqrt(2.0), (a[0] - 1j * a[1]) / np.sqrt(2.0)
    lhs = a[0] * ops.t1 + a[1] * ops.t2
    rhs = (w_plus * ops.t_plus + w_minus * ops.t_minus) / np.sqrt(2.0)
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


def test_parameter_validation():
    with pytest.raises(ValueError):
        ElectroweakParams(g=-1.0)
