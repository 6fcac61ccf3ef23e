import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssbspec.electroweak import build_generators, build_model
from ssbspec.higgsmodel import (
    HiggsModel,
    NotAVacuumError,
    PotentialError,
    QuarticPotential,
    check_potential_invariance,
    find_vacuum,
)
from ssbspec.liecore import realify, unrealify

QUARTIC = QuarticPotential(mu=2.0, lam=1.0)


def fd_gradient(p, v, h=1e-6):
    x = realify(v)
    out = np.empty(x.size)
    for k in range(x.size):
        e = np.zeros(x.size)
        e[k] = h
        out[k] = (p.value(unrealify(x + e)) - p.value(unrealify(x - e))) / (2 * h)
    return out


def fd_hessian(p, v, h=1e-5):
    x = realify(v)
    out = np.empty((x.size, x.size))
    for k in range(x.size):
        e = np.zeros(x.size)
        e[k] = h
        out[:, k] = (
            p.gradient(unrealify(x + e)) - p.gradient(unrealify(x - e))
        ) / (2 * h)
    return 0.5 * (out + out.T)


def test_parameter_validation():
    assert QuarticPotential(mu=-1.0, lam=1.0).vacuum_radius == 0.0
    with pytest.raises(PotentialError):
        QuarticPotential(mu=1.0, lam=0.0)


def test_vacuum_radius_and_curvature():
    assert QUARTIC.vacuum_radius == pytest.approx(1.0)
    v0 = np.array([0.0, 1.0], dtype=complex)
    np.testing.assert_array_equal(QUARTIC.gradient(v0), np.zeros(4))
    H = QUARTIC.hessian(v0)
    # the radial realified direction carries curvature 2 mu, the rest is flat
    assert H[2, 2] == pytest.approx(2 * QUARTIC.mu)
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(H)), [0, 0, 0, 2 * QUARTIC.mu], atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_analytic_derivatives_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    g, H = QUARTIC.gradient(v), QUARTIC.hessian(v)
    scale_g = max(1.0, np.linalg.norm(g))
    scale_h = max(1.0, np.abs(H).max())
    assert np.linalg.norm(g - fd_gradient(QUARTIC, v)) / scale_g < 1e-6
    assert np.abs(H - fd_hessian(QUARTIC, v)).max() / scale_h < 1e-6


@pytest.mark.parametrize("seed", range(8))
def test_find_vacuum_hits_sphere(seed):
    model = HiggsModel(build_generators(2.0, 1.0), QUARTIC)
    rng = np.random.default_rng(seed)
    start = rng.normal(size=2) * 3 + 1j * rng.normal(size=2) * 3
    v0 = find_vacuum(model, start)
    assert abs(np.linalg.norm(v0) - QUARTIC.vacuum_radius) < 1e-10


def test_find_vacuum_general_parameters():
    for mu, lam in [(0.5, 0.25), (7.0, 3.0), (1e-2, 4.0)]:
        pot = QuarticPotential(mu, lam)
        model = HiggsModel(build_generators(1.3, 0.6), pot)
        v0 = find_vacuum(model, np.array([0.1 + 0.2j, -0.05j]))
        assert abs(np.linalg.norm(v0) - pot.vacuum_radius) < 1e-9 * max(1.0, pot.vacuum_radius)


def test_find_vacuum_rejects_zero_seed():
    model = HiggsModel(build_generators(2.0, 1.0), QUARTIC)
    with pytest.raises(PotentialError):
        find_vacuum(model, np.zeros(2, dtype=complex))


def test_model_verifies_supplied_vacuum():
    gens = build_generators(2.0, 1.0)
    HiggsModel(gens, QUARTIC, np.array([0.0, 1.0]))  # on the sphere: fine
    with pytest.raises(NotAVacuumError):
        HiggsModel(gens, QUARTIC, np.array([0.0, 1.7]))
    with pytest.raises(NotAVacuumError):
        HiggsModel(gens, QUARTIC, np.array([0.0, 1.0, 0.0]))


class Lopsided:
    """V(v) = <v, D v> for D = diag(1, 2); only its value is used."""

    def value(self, v):
        return float(np.vdot(v, np.diag([1.0, 2.0]) @ v).real)


def test_invariance_check_quartic_and_broken():
    model = build_model()
    assert check_potential_invariance(model, samples=100, seed=3) < 1e-9
    # a non-scalar diagonal quadratic form is not invariant under the action
    skewed = HiggsModel(model.generators, Lopsided())
    assert check_potential_invariance(skewed, samples=100, seed=3) > 0.01
