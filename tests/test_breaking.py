import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssbspec.breaking import mass_form, orbit_frame, spectrum
from ssbspec.chiral import su2_irrep
from ssbspec.electroweak import ElectroweakParams, boson_mass_predictions, build_generators, build_model
from ssbspec.higgsmodel import HiggsModel, NotAVacuumError, QuarticPotential
from ssbspec.liecore import GeneratorSet, act, exponentiate, random_algebra_element


def closed_form_mass_matrix(g, gp, radius):
    """Independent closed form for the doublet mass form."""
    m = np.zeros((4, 4))
    m[0, 0] = m[1, 1] = m[2, 2] = g * g
    m[2, 3] = m[3, 2] = -g * gp
    m[3, 3] = gp * gp
    return 0.25 * radius * radius * m


def doublet_vacuum(radius):
    return np.array([0.0, radius], dtype=complex)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(0.1, 5.0, allow_nan=False),
    st.floats(0.1, 5.0, allow_nan=False),
    st.floats(0.1, 5.0, allow_nan=False),
)
def test_mass_form_closed_form(g, gp, radius):
    gs = build_generators(g, gp)
    mf = mass_form(gs, doublet_vacuum(radius))
    np.testing.assert_allclose(mf, closed_form_mass_matrix(g, gp, radius), atol=1e-12)
    np.testing.assert_array_equal(mf, mf.T)


def test_mass_form_is_psd_bilinear():
    gs = build_generators(1.7, 0.9)
    mf = mass_form(gs, doublet_vacuum(1.3))
    a = np.array([0.2, -1.0, 0.5, 2.0])
    assert a @ mf @ a >= 0.0
    b = np.array([1.0, 0.0, -0.3, 0.1])
    assert a @ mf @ b == pytest.approx(b @ mf @ a)


def test_stabilizer_is_the_photon_line():
    g, gp = 2.0, 1.0
    gs = build_generators(g, gp)
    split = spectrum(HiggsModel(gs, QuarticPotential(2.0, 1.0), doublet_vacuum(1.0)))
    assert split.unbroken.shape == (1, 4)
    norm = np.hypot(g, gp)
    expected = np.array([0.0, 0.0, gp / norm, g / norm])
    # up to sign, the kernel is the (g' b_3 + g b_4) direction
    overlap = abs(split.unbroken[0] @ expected)
    assert overlap == pytest.approx(1.0, abs=1e-12)
    # and it annihilates the vacuum
    residual = np.einsum("r,rij,j->i", split.unbroken[0], gs.matrices, doublet_vacuum(1.0))
    assert np.linalg.norm(residual) < 1e-12


def test_stabilizer_split_zero_vacuum():
    # v0 = 0 breaks nothing: the orbit map has rank 0
    gs = build_generators(2.0, 1.0)
    assert orbit_frame(gs, np.zeros(2, dtype=complex)).rank == 0


def test_boson_spectrum_matches_closed_forms():
    p = ElectroweakParams(g=2.0, gp=1.0, mu=2.0, lam=1.0)
    model = build_model(p)
    s = spectrum(model)
    np.testing.assert_allclose(
        s.boson_masses, [np.sqrt(2.5), np.sqrt(2.0), np.sqrt(2.0), 0.0], atol=1e-12
    )
    assert s.goldstone_count == 3
    np.testing.assert_allclose(s.higgs_masses, [np.sqrt(2.0)], atol=1e-12)
    # the massive neutral direction, the heaviest broken row, is (g b3 - g' b4)/norm
    z = orbit_frame(model.generators, model.vacuum).vt[0]
    np.testing.assert_allclose(np.abs(z), [0, 0, 2 / np.sqrt(5), 1 / np.sqrt(5)], atol=1e-12)


def test_broken_masses_diagonalize_the_form():
    model = build_model(ElectroweakParams(g=1.1, gp=0.7))
    s = spectrum(model)
    mf = mass_form(model.generators, model.vacuum)
    d = s.goldstone_count
    basis = np.vstack([orbit_frame(model.generators, model.vacuum).vt[:d], s.unbroken])
    D = basis @ mf @ basis.T
    np.testing.assert_allclose(D, np.diag(np.diag(D)), atol=1e-12)
    np.testing.assert_allclose(np.diag(D)[:d], 0.5 * s.boson_masses[:d] ** 2, atol=1e-12)
    np.testing.assert_allclose(np.diag(D)[d:], 0.0, atol=1e-12)
    # rows are orthonormal
    np.testing.assert_allclose(basis @ basis.T, np.eye(4), atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.floats(-5.0, 2.0), st.floats(-5.0, 2.0))
def test_spectrum_across_coupling_scales(log_g, log_gp):
    # the W pair and the photon were once sorted into one cluster, so a broken
    # row could be the photon direction once g fell below about 1e-4
    p = ElectroweakParams(g=10.0**log_g, gp=10.0**log_gp)
    model = build_model(p)
    s = spectrum(model)
    pred = boson_mass_predictions(p).as_array()
    atol = 1e-12 * pred.max()
    np.testing.assert_allclose(s.boson_masses, pred, rtol=1e-9, atol=atol)
    assert np.all(np.diff(s.boson_masses) <= 0.0)
    assert np.count_nonzero(s.boson_masses) == s.goldstone_count == 3
    gs, v0 = model.generators, model.vacuum
    # |a v0| = M / sqrt 2 on every broken row, and 0 on every unbroken one
    moved = [np.linalg.norm(act(gs, row, v0)) for row in orbit_frame(gs, v0).vt[:3]]
    np.testing.assert_allclose(moved, s.boson_masses[:3] / np.sqrt(2.0), rtol=1e-9, atol=atol)
    still = [np.linalg.norm(act(gs, row, v0)) for row in s.unbroken]
    np.testing.assert_allclose(still, 0.0, atol=atol)


def test_mass_form_transforms_under_vacuum_rotation():
    gs = build_generators(2.0, 1.0)
    v0 = doublet_vacuum(1.0)
    rng = random.Random(5)
    for _ in range(5):
        U = exponentiate(gs, random_algebra_element(gs, rng))
        rotated = mass_form(gs, U @ v0)
        # adjoint action of U^-1 on coefficients
        conj = np.einsum("ij,rjk,kl->ril", np.conj(U.T), gs.matrices, U)
        C, defect = gs.project(conj)
        assert defect.max() < 1e-10
        C = C.T  # column i holds the coefficients of U^-1 g_i U
        base = mass_form(gs, v0)
        np.testing.assert_allclose(rotated, C.T @ base @ C, atol=1e-10)
        # the eigenvalue multiset is invariant
        np.testing.assert_allclose(
            np.linalg.eigvalsh(rotated), np.linalg.eigvalsh(base), atol=1e-10
        )


def test_orbit_split_structure():
    p = ElectroweakParams()
    model = build_model(p)
    split = spectrum(model)
    assert split.orbit_basis.shape == (3, 4)
    assert split.transverse_basis.shape == (1, 4)
    # the transverse direction is the real-radial one, realify((0, 1))
    np.testing.assert_allclose(np.abs(split.transverse_basis[0]), [0, 0, 1, 0], atol=1e-12)
    np.testing.assert_allclose(split.higgs_masses, [np.sqrt(p.mu)], atol=1e-12)
    # the Hessian is zero on the orbit and 2 m^2 on each transverse direction
    H = model.potential.hessian(model.vacuum)
    np.testing.assert_allclose(split.orbit_basis @ H @ split.orbit_basis.T, 0.0, atol=1e-12)
    transverse = split.transverse_basis @ H @ split.transverse_basis.T
    np.testing.assert_allclose(transverse, np.diag(2.0 * split.higgs_masses**2), atol=1e-12)
    frame = np.vstack([split.orbit_basis, split.transverse_basis])
    np.testing.assert_allclose(frame @ frame.T, np.eye(4), atol=1e-12)


def test_orbit_split_rejects_non_minimum():
    gs = build_generators(2.0, 1.0)
    pot = QuarticPotential(2.0, 1.0)
    v = np.array([0.0, 0.4], dtype=complex)  # inside the sphere: indefinite Hessian
    with pytest.raises(NotAVacuumError):
        spectrum(HiggsModel(gs, pot, v))


def test_spectrum_requires_vacuum():
    # the model refuses a missing vacuum, so spectrum never meets one
    model = build_model()
    with pytest.raises(NotAVacuumError, match="vacuum must have shape"):
        spectrum(type(model)(model.generators, model.potential, None))


@pytest.mark.parametrize("mu", [2.0, 1e-9, 1e-12])
@pytest.mark.parametrize("direction", [[1, 0, 0, 0], [1, 1, 1, 1]], ids=["e0", "diagonal"])
def test_flat_higgs_directions_are_exactly_massless(direction, mu):
    # spin 3/2: every transverse direction but the radial one is flat, and
    # its Hessian eigenvalue comes out at rounding level, not at 0; the
    # radial one keeps its mass however small mu is
    pot = QuarticPotential(mu, 1.0)
    v = np.array(direction, dtype=complex)
    model = HiggsModel(GeneratorSet(su2_irrep(4)), pot, pot.vacuum_radius * v / np.linalg.norm(v))
    masses = spectrum(model).higgs_masses
    assert np.count_nonzero(masses) == 1
    assert masses[0] == pytest.approx(np.sqrt(pot.mu), rel=1e-12)
