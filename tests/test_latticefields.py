"""Lattice operator tests.

Closed forms used below:
  - central difference of sin(kx) is cos(kx) sin(kh)/h, exactly.
  - abelian transform law: a' = a - dtheta + O(h^2).
  - constant su(2) gauge field in the plane: F_01 = [A_0, A_1] with
    coefficient c^2 along the third generator, density -f^2/2 euclidean
    and +f^2/2 lorentzian for f = |F_01|.
"""
import random
import tracemalloc

import numpy as np
import pytest

from ssbspec import latticefields, liecore
from ssbspec.breaking import spectrum
from ssbspec.chiral import su2_irrep
from ssbspec.electroweak import ElectroweakParams, build_generators, build_model
from ssbspec.latticefields import (
    Grid,
    LatticeError,
    NonGroupTransformError,
    central_difference,
    convergence_orders,
    covariance_defects,
    covariant_derivative,
    field_strength,
    gauge_transform_gauge,
    gauge_transform_matter,
    higgs_density,
    klein_gordon_density,
    quadratic_expansion_check,
    smooth_gauge_field,
    smooth_multiplet_field,
    smooth_scalar_field,
    smooth_transform_field,
    yang_mills_density,
)
from ssbspec.liecore import GeneratorSet, expm_skew, exponentiate

PARAMS = ElectroweakParams(g=2.0, gp=1.0, mu=2.0, lam=1.0)
GS = build_generators(PARAMS.g, PARAMS.gp)
MODEL = build_model(PARAMS)
SPEC = spectrum(MODEL)

U1 = GeneratorSet(matrices=np.array([[[1j]]]))
SPIN1 = GeneratorSet(su2_irrep(3))

SU2 = GeneratorSet(
    matrices=0.5j
    * np.array(
        [
            [[0, 1], [1, 0]],
            [[0, -1j], [1j, 0]],
            [[1, 0], [0, -1]],
        ],
        dtype=complex,
    )
)


def test_grid_validation():
    with pytest.raises(LatticeError):
        Grid(dim=2, shape=(3, 8), spacing=0.1)
    with pytest.raises(LatticeError):
        Grid(dim=2, shape=(8,), spacing=0.1)
    with pytest.raises(LatticeError):
        Grid(dim=1, shape=(8,), spacing=0.0)
    with pytest.raises(LatticeError):
        Grid(dim=1, shape=(8,), spacing=0.1, metric="conformal")
    # inf > 0 holds, and central differences over an infinite spacing read 0
    for spacing in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(LatticeError, match="spacing must be finite and positive"):
            Grid(dim=2, shape=(4, 4), spacing=spacing)
    g = Grid(dim=3, shape=(4, 8, 4), spacing=0.5, metric="lorentzian")
    assert np.array_equal(g.signs, [1.0, -1.0, -1.0])


def test_central_difference_matches_closed_form():
    n = 64
    grid = Grid(dim=1, shape=(n,), spacing=2 * np.pi / n)
    x = np.arange(n) * grid.spacing
    k = 3.0
    d = central_difference(grid, np.sin(k * x), 0)
    # exact discrete identity, not just O(h^2)
    expected = np.cos(k * x) * np.sin(k * grid.spacing) / grid.spacing
    assert np.max(np.abs(d - expected)) < 1e-13
    assert np.max(np.abs(d - k * np.cos(k * x))) < k**3 * grid.spacing**2


def test_abelian_transform_law():
    n = 64
    grid = Grid(dim=1, shape=(n,), spacing=2 * np.pi / n)
    x = np.arange(n) * grid.spacing
    theta = 0.7 * np.sin(x) + 0.3 * np.cos(2 * x)
    sigma = np.exp(1j * theta)[:, None, None]
    a = (0.2 + 0.1 * np.sin(3 * x))[:, None, None]
    out = gauge_transform_gauge(U1, grid, sigma, a)
    dtheta = 0.7 * np.cos(x) - 0.6 * np.sin(2 * x)
    gap = np.max(np.abs(out[:, 0, 0] - (a[:, 0, 0] - dtheta)))
    assert gap < 2.0 * grid.spacing**2
    # before its projection, A' = i a - (d sigma) sigma^-1 leaves the span i R by O(h^2)
    moved = 1j * a[:, 0, 0] - central_difference(grid, sigma[:, 0, 0], 0) * np.conj(sigma[:, 0, 0])
    assert np.max(U1.project(moved[:, None, None])[1]) < 2.0 * grid.spacing**2


def test_non_unitary_transform_rejected():
    grid = Grid(dim=1, shape=(8,), spacing=0.1)
    sigma = 1.1 * np.broadcast_to(np.eye(1), (8, 1, 1)).astype(complex)
    a = np.zeros((8, 1, 1))
    with pytest.raises(NonGroupTransformError, match="not unitary"):
        gauge_transform_gauge(U1, grid, sigma, a)


def test_nan_transform_site_is_rejected():
    # NaN compares False against the unitarity tolerance, so the check is
    # written as not (defect <= tol)
    grid = Grid(dim=2, shape=(4, 4), spacing=0.25)
    sigma = smooth_transform_field(GS, grid, seed=4)
    a = smooth_gauge_field(grid, GS.r, seed=5)
    sigma[1, 2, 0, 1] = np.nan
    with pytest.raises(NonGroupTransformError, match=r"not unitary \(defect nan\)"):
        gauge_transform_gauge(GS, grid, sigma, a)


def test_field_strength_antisymmetric_exactly():
    grid = Grid(dim=2, shape=(8, 8), spacing=0.25)
    a = smooth_gauge_field(grid, SU2.r, seed=5)
    f = field_strength(SU2, grid, a)
    assert np.array_equal(f, -np.swapaxes(f, 2, 3))


def test_field_strength_abelian_constant_vanishes():
    grid = Grid(dim=2, shape=(6, 6), spacing=0.5)
    a = np.full((6, 6, 2, 1), 0.37)
    f = field_strength(U1, grid, a)
    assert np.max(np.abs(f)) == 0.0


def test_yang_mills_density_constant_commutator():
    c = 0.8
    a = np.zeros((6, 6, 2, 3))
    a[..., 0, 0] = c  # A_0 = c g_1
    a[..., 1, 1] = c  # A_1 = c g_2
    for metric, sign in (("euclidean", -1.0), ("lorentzian", 1.0)):
        grid = Grid(dim=2, shape=(6, 6), spacing=0.5, metric=metric)
        f = field_strength(SU2, grid, a)
        # [g_1, g_2] = -g_3 for this basis
        assert np.allclose(f[..., 0, 1, :], [0.0, 0.0, -(c**2)], atol=1e-14)
        dens = yang_mills_density(grid, f)
        assert np.allclose(dens, sign * 0.5 * c**4, atol=1e-13)


def test_covariant_derivative_constant_field():
    grid = Grid(dim=1, shape=(8,), spacing=0.3)
    psi = np.broadcast_to(np.array([0.4 + 0.2j, -0.1j]), (8, 2)).copy()
    a = np.zeros((8, 1, GS.r))
    a[..., 0, 2] = 1.3
    grad = covariant_derivative(GS, grid, a, psi, 0)
    expected = 1.3 * (GS.matrices[2] @ psi[0])
    assert np.allclose(grad, expected, atol=1e-14)
    assert np.allclose(covariant_derivative(GS, grid, np.zeros_like(a), psi, 0), 0.0, atol=1e-15)


def test_shape_validation_errors():
    grid = Grid(dim=2, shape=(8, 8), spacing=0.1)
    good_a = np.zeros((8, 8, 2, GS.r))
    with pytest.raises(LatticeError):
        covariant_derivative(GS, grid, good_a, np.zeros((8, 7, 2)), 0)
    with pytest.raises(LatticeError, match="matter field has 3 components"):
        covariant_derivative(GS, grid, good_a, np.zeros((8, 8, 3)), 0)
    with pytest.raises(LatticeError, match="gauge field must have shape"):
        covariant_derivative(GS, grid, good_a[:4], np.zeros((8, 8, 2)), 0)
    with pytest.raises(LatticeError):
        central_difference(grid, np.zeros((8, 8)), 2)
    with pytest.raises(LatticeError, match="field must have shape"):
        central_difference(grid, np.zeros((4, 16, 2)), 0)  # the site count of the grid, but not its shape
    with pytest.raises(LatticeError):
        gauge_transform_matter(np.zeros((8, 8, 2, 2)), np.zeros((8, 8, 3)))
    with pytest.raises(LatticeError):
        gauge_transform_gauge(GS, grid, smooth_transform_field(GS, grid, 0), np.zeros((8, 8, 2, 3)))


def test_covariance_orders_second_order():
    base = Grid(dim=2, shape=(16, 16), spacing=1.0 / 16)
    der, stren = convergence_orders(GS, base, seed=3)
    assert all(1.9 <= o <= 2.1 for o in der.orders)
    assert all(1.9 <= o <= 2.1 for o in stren.orders)


def test_convergence_orders_transform_once_per_level(monkeypatch):
    # the fields are sampled once, on the finest grid, and strided down;
    # the == below against freshly sampled coarse fields proves that exact.
    # The 3-D case strides a slice of (step,) * dim off the plane.  The spies
    # sit on the site-last kernels that convergence_orders calls: the gauge
    # transform and the transform field's exponential.
    calls = {}

    def spy(name):
        real = getattr(latticefields, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(latticefields, name, counted)

    spy("_transform_gauge")
    spy("_expm_skew_into")
    plane = Grid(dim=2, shape=(8, 8), spacing=1.0 / 8)
    cube = Grid(dim=3, shape=(6, 6, 6), spacing=1.0 / 6)
    for gs, base, refinements in ((GS, plane, 2), (SPIN1, plane, 2), (GS, cube, 1)):
        calls.update(_transform_gauge=0, _expm_skew_into=0)
        der, stren = convergence_orders(gs, base, seed=5, refinements=refinements)
        assert calls == {"_transform_gauge": refinements + 1, "_expm_skew_into": 1}
        for level in range(refinements + 1):
            g = base.refined(2**level)
            a = smooth_gauge_field(g, gs.r, 5)
            psi = smooth_multiplet_field(g, gs.n, 6)
            sigma = smooth_transform_field(gs, g, 7)
            assert covariance_defects(gs, g, a, psi, sigma) == (der.defects[level], stren.defects[level])


def test_constant_transform_leaves_densities_invariant():
    grid = Grid(dim=2, shape=(12, 12), spacing=0.2)
    a = 0.8 * smooth_gauge_field(grid, GS.r, seed=11)
    psi = smooth_multiplet_field(grid, GS.n, seed=12)
    phi = MODEL.vacuum + 0.3 * smooth_multiplet_field(grid, GS.n, seed=13)
    coeffs = np.array([0.4, -0.9, 0.25, 0.6])
    one = exponentiate(GS, coeffs)
    sigma = np.broadcast_to(one, grid.shape + one.shape).copy()

    a2 = gauge_transform_gauge(GS, grid, sigma, a)
    # a constant transform keeps A' in the span: sigma A sigma^-1 is all of it
    conjugated = np.einsum("ij,...djk,kl->...dil", one, GS.matrix_of(a), one.conj().T)
    assert np.max(GS.project(conjugated)[1]) < 1e-12
    psi2 = gauge_transform_matter(sigma, psi)
    phi2 = gauge_transform_matter(sigma, phi)

    f1 = yang_mills_density(grid, field_strength(GS, grid, a))
    f2 = yang_mills_density(grid, field_strength(GS, grid, a2))
    assert np.max(np.abs(f1 - f2)) < 1e-10
    k1 = klein_gordon_density(GS, grid, a, psi, mass=0.7)
    k2 = klein_gordon_density(GS, grid, a2, psi2, mass=0.7)
    assert np.max(np.abs(k1 - k2)) < 1e-10
    h1 = higgs_density(GS, grid, a, phi, MODEL.potential)
    h2 = higgs_density(GS, grid, a2, phi2, MODEL.potential)
    assert np.max(np.abs(h1 - h2)) < 1e-10


def test_smooth_fields_deterministic_and_resolution_consistent():
    grid = Grid(dim=2, shape=(8, 8), spacing=0.25)
    f1 = smooth_scalar_field(grid, seed=4)
    f2 = smooth_scalar_field(grid, seed=4)
    assert np.array_equal(f1, f2)
    # refining by 2 samples the same function at the even sites
    fine = smooth_scalar_field(grid.refined(2), seed=4)
    assert np.allclose(fine[::2, ::2], f1, atol=1e-13)


def _per_site_waves(grid, count, seed, scale):
    """The smooth components from their definition: one np.sin per wave and site."""
    rng = random.Random(seed)
    out = np.zeros(grid.shape + (count,))
    for component in range(count):
        for k, phase, amp in latticefields._wave_set(rng, grid.dim):
            for site in np.ndindex(*grid.shape):
                x = np.array(site) / np.array(grid.shape)
                out[site + (component,)] += amp * np.sin(phase + 2.0 * np.pi * np.dot(k, x))
    return scale * out / latticefields.WAVE_TERMS


@pytest.mark.parametrize("shape", [(5,), (4, 9), (5, 7, 6)], ids=["1d", "2d", "3d"])
def test_smooth_components_match_a_per_site_sine(shape):
    # the waves turned axis by axis, against the sine itself
    grid = Grid(dim=len(shape), shape=shape, spacing=0.1)
    got = latticefields._smooth_components(grid, 4, seed=17, scale=0.8)
    assert got.shape == (4,) + shape  # site-last
    assert np.max(np.abs(np.moveaxis(got, 0, -1) - _per_site_waves(grid, 4, 17, 0.8))) <= 1e-14


def test_quadratic_expansion_cubic_remainder():
    check = quadratic_expansion_check(MODEL, SPEC, eps=0.02, seed=0)
    assert check.cross_term_max < 1e-10
    assert check.remainder > 0
    assert 6.5 <= check.ratio <= 9.5


def test_quadratic_expansion_zero_eps():
    check = quadratic_expansion_check(MODEL, SPEC, eps=0.0, seed=1)
    assert check.remainder == 0.0
    assert check.remainder_half == 0.0


def test_derivative_covariance_small_on_smooth_data():
    grid = Grid(dim=2, shape=(32, 32), spacing=1.0 / 32)
    a = smooth_gauge_field(grid, GS.r, seed=1)
    psi = smooth_multiplet_field(grid, GS.n, seed=2)
    sigma = smooth_transform_field(GS, grid, seed=3)
    assert covariance_defects(GS, grid, a, psi, sigma)[0] < 0.1


# ---------------------------------------------------------------------------
# the transform field's exponential is liecore.expm_skew, site by site: its
# Taylor route below a 1-norm of 16 and its eigh route above (tested in
# tests/test_liecore.py)


PLANE128 = Grid(dim=2, shape=(128, 128), spacing=1.0 / 128)


def _transform_route_inputs(gs, grid, seed):
    """The matrices smooth_transform_field exponentiates, (sites, n, n), and their 1-norms."""
    coeffs = latticefields._smooth_components(grid, gs.r, seed, latticefields.TRANSFORM_SCALE)
    a = gs.matrix_of(coeffs.reshape(gs.r, -1).T)
    return a, np.abs(a).sum(axis=-2).max(axis=-1)


def _unitary_defects(sigma):
    return np.max(np.abs(sigma @ sigma.conj().swapaxes(-1, -2) - np.eye(sigma.shape[-1])), axis=(-1, -2))


@pytest.mark.parametrize("gs", [GS, SPIN1], ids=["doublet", "spin1"])
def test_transform_field_taylor_route_matches_expm_skew(gs):
    a, norm = _transform_route_inputs(gs, PLANE128, seed=2)
    assert np.max(norm) <= 16.0  # every site takes the Taylor route
    sigma = smooth_transform_field(gs, PLANE128, seed=2).reshape(a.shape)
    assert np.max(_unitary_defects(sigma)) <= 1e-14
    assert np.array_equal(sigma, expm_skew(a))


def test_transform_field_far_sites_take_expm_skew():
    gs = GeneratorSet(1e6 * su2_irrep(3))
    grid = Grid(dim=2, shape=(16, 16), spacing=1.0 / 16)
    a, norm = _transform_route_inputs(gs, grid, seed=4)
    assert np.min(norm) > 16.0
    assert np.array_equal(smooth_transform_field(gs, grid, seed=4).reshape(a.shape), expm_skew(a))


def test_transform_field_route_is_chosen_per_site():
    gs = GeneratorSet(40 * su2_irrep(3))
    grid = Grid(dim=2, shape=(32, 32), spacing=1.0 / 32)
    a, norm = _transform_route_inputs(gs, grid, seed=5)
    far = norm > 16.0
    assert 0 < np.count_nonzero(far) < len(far)  # sites on both sides of the bound
    sigma = smooth_transform_field(gs, grid, seed=5).reshape(a.shape)
    # each side alone gives the same bits as the mixed field
    assert np.array_equal(sigma[far], expm_skew(a[far]))
    assert np.array_equal(sigma[~far], expm_skew(a[~far]))


# ---------------------------------------------------------------------------
# the matmul kernels against the einsum expressions they replaced, on a 3-D
# grid, so that three planes mu < nu enter the field strength

GRID3 = Grid(dim=3, shape=(4, 5, 6), spacing=0.25)


def _random_fields(gs, grid, seed):
    """Random (not smooth) a, psi and a group-valued sigma on the grid."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=grid.shape + (grid.dim, gs.r))
    psi = rng.normal(size=grid.shape + (gs.n,)) + 1j * rng.normal(size=grid.shape + (gs.n,))
    sigma = expm_skew(np.einsum("...r,rij->...ij", rng.normal(size=grid.shape + (gs.r,)), gs.matrices))
    return a, psi, sigma


def _assert_rel(new, ref, rel=1e-13):
    assert new.shape == ref.shape
    assert np.max(np.abs(new - ref)) <= rel * np.max(np.abs(ref))


def _unrolled_matmul(x, y):
    """x @ y over the last two axes, one broadcast product per inner index:
    the site-first product the lattice kernels used before the site-last one."""
    out = x[..., :, :1] * y[..., :1, :]
    for j in range(1, x.shape[-1]):
        out += x[..., :, j : j + 1] * y[..., j : j + 1, :]
    return out


def _site_last(a):
    """(sites, ..., n, k) to (n, k, ..., sites), as a view."""
    return np.moveaxis(np.moveaxis(a, 0, -1), (-3, -2), (0, 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_unrolled_matmul_matches_einsum(n):
    rng = np.random.default_rng(n)

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    def check(x, y):
        """The site-last kernel equals the site-first unrolled sum bit for bit."""
        ref = _unrolled_matmul(x, y)
        out = np.empty(_site_last(ref).shape, dtype=complex)
        term = np.empty(out.shape[1:], dtype=complex)
        assert np.array_equal(liecore._site_product(_site_last(x), _site_last(y), out, term), _site_last(ref))
        return ref

    x, y = cplx(20, n, n), cplx(20, n, n)
    _assert_rel(check(x, y), np.einsum("...ij,...jk->...ik", x, y))
    # the conjugation shapes: one matrix per site against one per direction
    sites, dirs = cplx(20, 1, n, n), cplx(20, 3, n, n)
    ref = np.einsum("...ij,...djk->...dik", sites[..., 0, :, :], dirs)
    _assert_rel(check(sites, dirs), ref)
    adjoint = sites.conj().swapaxes(-1, -2)  # a strided view
    ref = np.einsum("...dij,...jk->...dik", dirs, adjoint[..., 0, :, :])
    _assert_rel(check(dirs, adjoint), ref)
    # the matrix-vector shape
    psi = cplx(20, n, 1)
    _assert_rel(check(x, psi), np.einsum("...ij,...jk->...ik", x, psi))


def _old_field_strength(gs, grid, a):
    c = gs.structure_constants()
    F = np.zeros(grid.shape + (grid.dim, grid.dim, gs.r))
    for mu in range(grid.dim):
        for nu in range(grid.dim):
            if mu != nu:
                curl = central_difference(grid, a[..., nu, :], mu) - central_difference(grid, a[..., mu, :], nu)
                F[..., mu, nu, :] = curl + np.einsum("...i,...j,ijk->...k", a[..., mu, :], a[..., nu, :], c)
    return F


@pytest.mark.parametrize("gs", [GS, SPIN1], ids=["doublet", "spin1"])
def test_matmul_kernels_match_their_einsum_forms(gs):
    a, psi, sigma = _random_fields(gs, GRID3, seed=gs.n)
    _assert_rel(gs.matrix_of(a), np.einsum("...r,rij->...ij", a, gs.matrices))
    # the site-last matrices of site-last coefficients equal matrix_of's bit
    # for bit, per site and per direction
    flat = a.reshape(-1, GRID3.dim, gs.r)
    for coeffs in (flat[:, 1], flat):
        dest = np.empty(_site_last(gs.matrix_of(coeffs)).shape, dtype=complex)
        latticefields._load_matrices(gs, coeffs.T, dest)
        assert np.array_equal(dest, _site_last(gs.matrix_of(coeffs)))
    for mu in range(GRID3.dim):
        ref = central_difference(GRID3, psi, mu) + np.einsum(
            "...r,rij,...j->...i", a[..., mu, :], gs.matrices, psi
        )
        _assert_rel(covariant_derivative(gs, GRID3, a, psi, mu), ref)
    _assert_rel(field_strength(gs, GRID3, a), _old_field_strength(gs, GRID3, a))

    sigma_inv = sigma.conj().swapaxes(-1, -2)
    conjugated = np.einsum("...ij,...djk,...kl->...dil", sigma, gs.matrix_of(a), sigma_inv)
    dsig = np.stack([central_difference(GRID3, sigma, mu) for mu in range(GRID3.dim)], axis=GRID3.dim)
    # project has its own check against its einsum form in test_liecore
    coeffs, _ = gs.project(conjugated - np.einsum("...dij,...jk->...dik", dsig, sigma_inv))
    _assert_rel(gauge_transform_gauge(gs, GRID3, sigma, a), coeffs)


@pytest.mark.parametrize("metric", ["euclidean", "lorentzian"])
@pytest.mark.parametrize("gs", [GS, SPIN1], ids=["doublet", "spin1"])
def test_strength_defect_on_independent_planes_equals_full_mean(gs, metric):
    grid = Grid(dim=3, shape=GRID3.shape, spacing=GRID3.spacing, metric=metric)
    a, _, sigma = _random_fields(gs, grid, seed=10 + gs.n)
    a_prime = gauge_transform_gauge(gs, grid, sigma, a)
    f_prime = gs.matrix_of(field_strength(gs, grid, a_prime))
    f = gs.matrix_of(field_strength(gs, grid, a))
    conj = np.einsum("...ij,...mnjk,...kl->...mnil", sigma, f, sigma.conj().swapaxes(-1, -2))
    full = float(np.sqrt(np.mean(np.abs(f_prime - conj) ** 2)))
    site_last = (latticefields._site_last(grid, x) for x in (a, a_prime, sigma))
    assert latticefields._strength_defect(gs, grid, *site_last) == pytest.approx(full, rel=1e-13)


def _traced_peak(fn) -> int:
    """Peak bytes allocated above entry while fn runs."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()


# Measured peaks (numpy 2.4, x86-64), spin-1 unless named, with 15-20 % headroom
# in each bound.  Over the whole grid at once (no site blocks) they were 18.6,
# 12.6 and 22.6 MB; conjugating F on all (D, D) planes once peaked near 46 MB,
# with grid-first fields between the site-last kernels 7.2, 6.2 and 11.1 MB,
# and with whole-field differences, curls and F planes 5.5, 6.2 and 9.5 MB
# (doublet 7.9 MB; 32.5 and 31.5 MB at 64^2).  covariance_defects holds a
# contiguous site-last copy of its grid-first sigma (2.4 MB) while the gauge
# transform gathers sigma's neighbours, so its bound stays where it was.
def test_covariance_defects_peak_memory_at_128():
    a = smooth_gauge_field(PLANE128, SPIN1.r, seed=0)
    psi = smooth_multiplet_field(PLANE128, SPIN1.n, seed=1)
    sigma = smooth_transform_field(SPIN1, PLANE128, seed=2)
    assert _traced_peak(lambda: covariance_defects(SPIN1, PLANE128, a, psi, sigma)) < 6.8e6  # 6.4 MB


def test_smooth_transform_field_peak_memory_at_128():
    assert _traced_peak(lambda: smooth_transform_field(SPIN1, PLANE128, seed=2)) < 7.3e6  # 6.2 MB


def _orders_peak(gs, extent: int) -> int:
    base = Grid(dim=2, shape=(extent, extent), spacing=1.0 / extent)
    return _traced_peak(lambda: convergence_orders(gs, base, seed=0, refinements=2))


def test_convergence_orders_peak_memory_at_32_refined_twice():
    assert _orders_peak(SPIN1, 32) < 9.5e6  # 8.1 MB


@pytest.mark.parametrize(
    "gs, extent, bound", [(GS, 32, 7.1e6), (SPIN1, 64, 31.8e6)], ids=["doublet-32", "spin1-64"]  # 6.0 and 27.0 MB
)
def test_convergence_orders_peak_memory_refined_twice(gs, extent, bound):
    assert _orders_peak(gs, extent) < bound


# ---------------------------------------------------------------------------
# site blocks and the slice form of the central difference


@pytest.mark.parametrize("extent", [4, 5])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("dtype", [float, complex])
def test_central_difference_equals_its_roll_form(dim, extent, dtype):
    rng = np.random.default_rng(dim * extent)
    for mu in range(dim):
        # the extent under test on axis mu, other (distinct) extents elsewhere
        grid = Grid(dim=dim, shape=[extent if k == mu else 6 + k for k in range(dim)], spacing=0.3)
        field = rng.normal(size=grid.shape + (2, 3))
        if dtype is complex:
            field = field + 1j * rng.normal(size=field.shape)
        ref = (np.roll(field, -1, axis=mu) - np.roll(field, 1, axis=mu)) / (2.0 * grid.spacing)
        got = central_difference(grid, field, mu)
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("extent", [4, 5])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_block_differences_equal_central_difference_at_every_block_size(dim, extent, monkeypatch):
    # each block gathers its neighbours by flat index, the periodic wraps at
    # both ends of every axis included; blocks of 2 sites up to the whole
    # grid, a lone last site riding with the block before it
    grid = Grid(dim=dim, shape=(extent,) * dim, spacing=0.3)
    rng = np.random.default_rng(dim * extent)
    field = rng.normal(size=grid.shape + (2,)) + 1j * rng.normal(size=grid.shape + (2,))
    flat = latticefields._contiguous(grid, field).reshape(2, -1)
    for mu in range(dim):
        whole = central_difference(grid, field, mu)
        assert np.array_equal(whole, (np.roll(field, -1, axis=mu) - np.roll(field, 1, axis=mu)) / (2.0 * grid.spacing))
        for block in range(2, grid.site_count + 1):
            monkeypatch.setattr(liecore, "SITE_BLOCK", block)
            parts = [
                latticefields._difference(grid, flat, latticefields._neighbours(grid, b)[mu])
                for b in liecore.site_blocks(grid.site_count)
            ]
            assert np.array_equal(np.concatenate(parts, axis=-1), latticefields._contiguous(grid, whole).reshape(2, -1))


# 1056 and 1024 sites split unevenly at 7 and 1000; 120 sites leave one
# site over at 7, which rides with the block before it
BLOCK_GRIDS = [
    Grid(dim=2, shape=(33, 32), spacing=1.0 / 32),
    Grid(dim=3, shape=(8, 8, 16), spacing=1.0 / 8),
    Grid(dim=3, shape=(4, 5, 6), spacing=0.25, metric="lorentzian"),
]


@pytest.mark.parametrize("block", [7, 1000])
@pytest.mark.parametrize("grid", BLOCK_GRIDS, ids=["plane", "cube", "lone-site"])
@pytest.mark.parametrize("gs", [GS, SPIN1], ids=["doublet", "spin1"])
def test_site_blocks_leave_the_lattice_kernels_bit_identical(gs, grid, block, monkeypatch):
    def kernels():
        a = smooth_gauge_field(grid, gs.r, seed=1)
        psi = smooth_multiplet_field(grid, gs.n, seed=2)
        sigma = smooth_transform_field(gs, grid, seed=3)
        return sigma, gauge_transform_gauge(gs, grid, sigma, a), covariance_defects(gs, grid, a, psi, sigma)

    assert grid.site_count <= liecore.SITE_BLOCK  # the reference is one block
    whole = kernels()
    monkeypatch.setattr(liecore, "SITE_BLOCK", block)
    blocked = kernels()
    for ref, got in zip(whole, blocked):
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("block", [7, 1000])
@pytest.mark.parametrize(
    "base, refinements",
    [(Grid(dim=2, shape=(16, 16), spacing=1.0 / 16), 2), (Grid(dim=3, shape=(6, 6, 6), spacing=1.0 / 6), 1)],
    ids=["plane", "cube"],
)
@pytest.mark.parametrize("gs", [GS, SPIN1], ids=["doublet", "spin1"])
def test_site_blocks_leave_convergence_orders_bit_identical(gs, base, refinements, block, monkeypatch):
    # n <= 3 only: for n >= 4 the projection's gemm rounds by block (ROADMAP item 9)
    fine = base.refined(2**refinements)
    fields = (smooth_gauge_field(fine, gs.r, 1), smooth_multiplet_field(fine, gs.n, 2), smooth_transform_field(gs, fine, 3))

    def measure():
        return convergence_orders(gs, base, seed=4, refinements=refinements), covariance_defects(gs, fine, *fields)

    assert fine.site_count <= liecore.SITE_BLOCK  # the reference is one block per level
    whole = measure()
    monkeypatch.setattr(liecore, "SITE_BLOCK", block)
    assert measure() == whole


@pytest.mark.parametrize("grid", BLOCK_GRIDS[::2], ids=["plane", "lone-site"])
def test_gauge_transform_takes_two_site_products_per_direction(grid, monkeypatch):
    # one for the unitarity check, then (sigma A_mu - d_mu sigma) sigma^-1
    sigma = smooth_transform_field(GS, grid, seed=4)
    a = smooth_gauge_field(grid, GS.r, seed=5)
    calls = []
    real = latticefields._site_product
    monkeypatch.setattr(latticefields, "_site_product", lambda *args: calls.append(1) or real(*args))
    monkeypatch.setattr(liecore, "SITE_BLOCK", 7)
    gauge_transform_gauge(GS, grid, sigma, a)
    assert len(calls) == len(liecore.site_blocks(grid.site_count)) * (1 + 2 * grid.dim)


def test_non_unitary_site_in_the_last_block_is_reported(monkeypatch):
    grid = Grid(dim=2, shape=(5, 6), spacing=0.2)
    sigma = smooth_transform_field(GS, grid, seed=4)
    a = smooth_gauge_field(grid, GS.r, seed=5)
    monkeypatch.setattr(liecore, "SITE_BLOCK", 7)  # blocks of 7, 7, 7, 7 and 2 sites
    gauge_transform_gauge(GS, grid, sigma, a)
    sigma[0, 1] *= 1.05  # defect 0.1025 in the first block
    sigma[4, 5] *= 1.1  # the last site: sigma sigma^dagger = 1.21, the worst defect
    with pytest.raises(NonGroupTransformError, match=r"not unitary \(defect 2\.100e-01\)"):
        gauge_transform_gauge(GS, grid, sigma, a)
