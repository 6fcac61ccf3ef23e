import random

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ssbspec.chiral import su2_irrep
from ssbspec import liecore
from ssbspec.electroweak import build_generators
from ssbspec.liecore import (
    TOL_ALG,
    GeneratorError,
    GeneratorSet,
    act,
    expm_skew,
    exponentiate,
    random_algebra_element,
    realify,
    safe_norm,
    unrealify,
    validate_generators,
)

EW = build_generators(2.0, 1.0)
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

coeff_vectors = st.lists(
    st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False), min_size=4, max_size=4
).map(np.array)


def random_complex(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def test_preset_defects_vanish_exactly():
    report = validate_generators(EW)
    assert report.skew_defect == 0.0
    assert report.closure_defect == 0.0


def test_act_examples():
    # third weak generator on (0, 1) and the hypercharge generator on (1, 0)
    g, gp = 2.0, 1.0
    out = act(EW, np.array([0.0, 0.0, 1.0, 0.0]), np.array([0.0, 1.0]))
    np.testing.assert_allclose(out, [0.0, -0.5j * g], atol=1e-15)
    out = act(EW, np.array([0.0, 0.0, 0.0, 1.0]), np.array([1.0, 0.0]))
    np.testing.assert_allclose(out, [0.5j * gp, 0.0], atol=1e-15)


def test_exponentiate_phase():
    u1 = GeneratorSet(np.array([[[1j]]]))
    U = exponentiate(u1, np.array([np.pi]))
    np.testing.assert_allclose(U, [[-1.0]], atol=1e-13)


def _with_spectrum(rng, w):
    """i V diag(w) V^dagger for a seeded random unitary V."""
    n = len(w)
    V, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return 1j * (V * np.asarray(w)) @ V.conj().T


def test_expm_skew_matches_scipy():
    rng = np.random.default_rng(30)
    spin1 = su2_irrep(3)
    cases = [
        np.zeros((2, 2)),
        np.zeros((3, 3)),
        1j * np.diag([0.7, 0.7, -1.4]),
        _with_spectrum(rng, [0.3, 0.3, -0.6]),
        _with_spectrum(rng, [1.0, 1.0 + 1e-10, -2.0]),
    ]
    for norm in np.logspace(-9, 1, 11):
        for mats in (EW.matrices, spin1):
            A = np.einsum("r,rij->ij", rng.normal(size=len(mats)), mats)
            cases.append(A * (norm / np.linalg.norm(A, 2)))
    for A in cases:
        U = expm_skew(A)
        np.testing.assert_allclose(U, scipy.linalg.expm(A), rtol=0, atol=1e-13)
        np.testing.assert_allclose(U @ U.conj().T, np.eye(len(A)), rtol=0, atol=1e-13)
    # a (k, m, n, n) stack, as for a transform field on a grid
    stack = np.einsum("kmr,rij->kmij", rng.normal(size=(3, 4, 3)), spin1)
    U = expm_skew(stack)
    assert U.shape == stack.shape
    for idx in np.ndindex(3, 4):
        np.testing.assert_allclose(U[idx], scipy.linalg.expm(stack[idx]), rtol=0, atol=1e-13)


def test_expm_skew_takes_eigh_only_past_a_one_norm_of_16():
    # 1-norms from about 0.05 to 60: every squaring count, and sites past the bound
    rng = np.random.default_rng(31)
    coeffs = rng.normal(size=(400, 3)) * np.logspace(-3, 0, 400)[:, None]
    stack = np.einsum("mr,rij->mij", coeffs, 40 * su2_irrep(3))
    far = np.abs(stack).sum(axis=-2).max(axis=-1) > 16.0
    assert 0 < np.count_nonzero(far) < len(far)
    U, ref = expm_skew(stack), liecore._expm_eigh(stack)
    assert np.array_equal(U[far], ref[far])
    # below the bound: Taylor with up to six squarings, each about doubling the rounding
    near, ref = U[~far], ref[~far]
    assert not np.any(np.all(near == ref, axis=(-1, -2)))
    assert np.max(np.abs(near - ref)) <= 1e-13
    assert np.max(np.abs(near @ near.conj().swapaxes(-1, -2) - np.eye(3))) <= 1e-13


def test_structure_constants_su2_block():
    c = EW.structure_constants()
    # [b_1, b_2] = -g b_3 and cyclic; the u(1) generator commutes with everything
    g = 2.0
    assert c[0, 1, 2] == pytest.approx(-g, abs=1e-12)
    assert c[1, 2, 0] == pytest.approx(-g, abs=1e-12)
    assert c[2, 0, 1] == pytest.approx(-g, abs=1e-12)
    np.testing.assert_allclose(c[3], 0.0, atol=1e-12)
    np.testing.assert_allclose(c[:, 3], 0.0, atol=1e-12)


@pytest.mark.parametrize("k", [-300, 345, 500])
def test_brackets_scale_exactly_with_the_generators(k):
    # the brackets are taken on the unit basis; on the stack itself their
    # products and projection, which grow like max|X|^3, overflowed from
    # about 1e102 into a RuntimeWarning
    unit = GeneratorSet(su2_irrep(3))
    scaled = GeneratorSet(unit.matrices * 2.0**k)
    with np.errstate(all="raise"):
        c, defect = scaled.structure_constants(), scaled.closure_defect()
    assert np.array_equal(c, unit.structure_constants() * 2.0**k)
    assert defect == unit.closure_defect()


def test_projection_detects_outside_span():
    sigma1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    _, defect = EW.project(sigma1)
    assert defect == pytest.approx(np.sqrt(2.0), rel=1e-12)
    coeffs, defect = EW.project(EW.matrix_of(np.array([0.5, -1.0, 2.0, 0.25])))
    np.testing.assert_allclose(coeffs, [0.5, -1.0, 2.0, 0.25], atol=1e-12)
    assert defect < 1e-12


def test_projection_names_a_dependent_generator():
    m = EW.matrices
    for stack, message in (
        ([m[0], m[1], 3e5 * m[0] - 2e-5 * m[1], m[3]], "generator 2 lies in the span of the generators before it"),
        ([m[0], np.zeros_like(m[0]), m[2]], "generator 1 is zero"),
    ):
        with pytest.raises(GeneratorError, match=message):
            GeneratorSet(stack).closure_defect()
    # couplings decades apart are not dependence: the decision is coupling-free
    scaled = GeneratorSet([1e-12 * m[0], 1e12 * m[1], m[2], m[3]])
    np.testing.assert_allclose(scaled.project(m[3])[0], [0, 0, 0, 1], atol=1e-15)


def _old_project(gs, mats):
    """The einsum form project replaced, one Gram solve per matrix."""
    b = np.real(np.einsum("rij,...ij->...r", np.conj(gs.matrices), mats))
    gram = np.real(np.einsum("rij,sij->rs", np.conj(gs.matrices), gs.matrices))
    coeffs = np.linalg.solve(gram, b[..., None])[..., 0]
    recon = np.einsum("...r,rij->...ij", coeffs, gs.matrices)
    return coeffs, np.linalg.norm((mats - recon).reshape(mats.shape[:-2] + (-1,)), axis=-1)


@pytest.mark.parametrize("gs", [EW, GeneratorSet(su2_irrep(3))], ids=["doublet", "spin1"])
def test_project_matches_its_einsum_form(gs):
    rng = np.random.default_rng(gs.n)
    n = gs.n
    # a single matrix, as a (1, n, n) stack, projects bit for bit
    for _ in range(200):
        one = rng.normal(size=(1, n, n)) + 1j * rng.normal(size=(1, n, n))
        for new, old in zip(gs.project(one), _old_project(gs, one)):
            assert new.shape == old.shape and np.array_equal(new, old)
    # a (4, 5, 3) grid stack of near-span matrices, one solve for all, and
    # the same stack as a view with strided columns
    stack = np.einsum("...r,rij->...ij", rng.normal(size=(4, 5, 3, gs.r)), gs.matrices)
    stack = stack + 1e-3 * (rng.normal(size=stack.shape) + 1j * rng.normal(size=stack.shape))
    for mats in (stack, np.repeat(stack, 2, axis=-1)[..., ::2]):
        for new, old in zip(gs.project(mats), _old_project(gs, mats)):
            assert new.shape == old.shape
            assert np.max(np.abs(new - old)) <= 1e-13 * np.max(np.abs(old))


def test_coefficient_map_matches_a_gram_solve():
    # a basis whose unit Gram matrix is far from diagonal (condition number 43)
    m = EW.matrices
    gs = GeneratorSet([m[0], m[0] + 0.5 * m[1], m[2] - 0.3 * m[3], 2.0 * m[3] + m[1]])
    unit = gs.unit_basis()[1]
    basis = unit.reshape(gs.r, -1).view(float)
    gram = basis @ basis.T
    assert np.max(np.abs(gram - np.diag(np.diag(gram)))) >= 0.25
    x = np.random.default_rng(0).normal(size=(200, 2 * gs.n**2))
    to_basis, inverse_gram = liecore._coefficient_map(unit)
    got = x @ to_basis @ inverse_gram
    ref = np.linalg.solve(gram, (x @ basis.T).T).T
    bound = 10 * np.linalg.cond(gram) * np.finfo(float).eps * np.max(np.abs(ref))
    assert np.max(np.abs(got - ref)) <= bound
    # project reads the same map, scaled back to the basis's own coefficients
    mats = unrealify(x[:5]).reshape(5, gs.n, gs.n)
    coeffs = _old_project(gs, mats)[0]
    np.testing.assert_allclose(gs.project(mats)[0], coeffs, rtol=1e-13, atol=1e-13 * np.max(np.abs(coeffs)))


def test_shape_errors():
    with pytest.raises(GeneratorError):
        GeneratorSet(np.zeros((2, 2, 3), dtype=complex))
    with pytest.raises(GeneratorError):
        act(EW, np.zeros(3), np.array([1.0, 0.0]))
    with pytest.raises(GeneratorError):
        act(EW, np.zeros(4), np.zeros(3))


@settings(max_examples=50, deadline=None)
@given(coeff_vectors)
def test_exponential_inverts(coeffs):
    U = exponentiate(EW, coeffs)
    Uinv = exponentiate(EW, -coeffs)
    np.testing.assert_allclose(U @ Uinv, np.eye(2), atol=1e-12)
    # a stack of coefficient vectors exponentiates each one, bit for bit
    assert np.array_equal(exponentiate(EW, np.stack([coeffs, -coeffs])), [U, Uinv])


@settings(max_examples=50, deadline=None)
@given(coeff_vectors, st.integers(0, 2**32 - 1))
def test_action_is_skew(coeffs, seed):
    rng = np.random.default_rng(seed)
    v, w = random_complex(rng, 2), random_complex(rng, 2)
    lhs = np.vdot(act(EW, coeffs, v), w).real
    rhs = np.vdot(v, act(EW, coeffs, w)).real
    assert lhs + rhs == pytest.approx(0.0, abs=1e-10)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_realify_round_trip_and_isometry(seed):
    rng = np.random.default_rng(seed)
    v = random_complex(rng, 3)
    x = realify(v)
    np.testing.assert_allclose(unrealify(x), v, atol=0)
    assert np.linalg.norm(x) == pytest.approx(np.linalg.norm(v), rel=1e-14)


def test_realify_interleaves():
    np.testing.assert_array_equal(realify(np.array([1 + 2j, 3.0])), [1.0, 2.0, 3.0, 0.0])


def test_random_elements_deterministic_and_centered():
    a = random_algebra_element(EW, 1234, scale=0.7)
    b = random_algebra_element(EW, 1234, scale=0.7)
    np.testing.assert_array_equal(a, b)
    rng = random.Random(0)
    draws = np.array([random_algebra_element(EW, rng) for _ in range(1000)])
    # mean of 1000 unit-variance draws stays within 5 standard errors
    assert np.all(np.abs(draws.mean(axis=0)) < 5.0 / np.sqrt(1000))


@pytest.mark.parametrize("block", [2, 3, 7])
def test_site_blocks_cover_every_site_once(block, monkeypatch):
    monkeypatch.setattr(liecore, "SITE_BLOCK", block)
    for count in range(1, 30):
        blocks = liecore.site_blocks(count)
        assert [i for b in blocks for i in range(count)[b]] == list(range(count))
        sizes = [b.stop - b.start for b in blocks]
        # full blocks, then the rest; a lone last site joins the block before it
        assert sizes[:-1] == [block] * (len(sizes) - 1)
        assert 1 <= sizes[-1] <= block + 1
        assert sizes[-1] > 1 or count == 1


@PROPERTY
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
    st.floats(-12.0, 12.0),
    st.floats(-6.0, 0.0),
)
def test_generator_set_refuses_a_non_skew_part_nan_and_inf(r, n, seed, log_scale, log_part):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(r, n, n)) + 1j * rng.normal(size=(r, n, n))
    skew = 10.0**log_scale * (x - np.conj(np.swapaxes(x, 1, 2)))
    gs = GeneratorSet(skew)
    assert gs.scale == np.max(np.abs(skew))
    # a Hermitian part far above TOL_ALG times the scale, at any scale
    herm = x + np.conj(np.swapaxes(x, 1, 2))
    with pytest.raises(GeneratorError, match=r"not skew-Hermitian \(defect"):
        GeneratorSet(skew + 10.0**log_part * gs.scale * herm / np.max(np.abs(herm)))
    i, a, b = rng.integers(r), rng.integers(n), rng.integers(n)
    for value in (np.nan, np.inf, -np.inf, complex(0.0, np.inf), complex(np.nan, 0.0)):
        bad = skew.copy()
        bad[i, a, b] = value
        with pytest.raises(GeneratorError, match="not skew-Hermitian"):
            GeneratorSet(bad)
    # an infinite entry with its skew partner: inf - inf is no defect of 0
    bad = skew.copy()
    bad[i, a, b], bad[i, b, a] = np.inf, -np.inf
    with pytest.raises(GeneratorError, match="not skew-Hermitian"):
        GeneratorSet(bad)


@PROPERTY
@given(st.floats(-12.0, 12.0), st.floats(-12.0, 12.0), st.integers(1, 5), st.integers(1, 5))
def test_generator_set_accepts_every_stack_the_package_builds(log_g, log_gp, r, n):
    g, gp = 10.0**log_g, 10.0**log_gp
    stacks = [build_generators(g, gp)]
    stacks += [GeneratorSet(su2_irrep(dim)) for dim in range(1, 6)]
    stacks.append(GeneratorSet(np.zeros((r, n, n))))  # a trivial representation
    for gs in stacks:
        assert gs.skew_defect() <= TOL_ALG * gs.scale


def test_safe_norm_does_not_overflow():
    x = np.array([[3e200, 4e200], [3.0, 4.0], [0.0, 0.0], [np.inf, 1.0]])
    np.testing.assert_allclose(safe_norm(x), [5e200, 5.0, 0.0, np.inf], rtol=1e-15)
