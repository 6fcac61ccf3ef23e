"""Discretized field theory on a periodic grid.

Conventions:
  - fields are site-last inside, from synthesis to defect: matter (n, *grid),
    gauge coefficient fields (D, r, *grid), transforms (n, n, *grid).  The
    public functions take and return them grid-first: (*grid, n) and so on.
  - derivatives are central differences with periodic wrap, O(h^2).
  - gauge fields are stored as real generator coefficients; contraction
    of algebra indices is the plain Euclidean coefficient product.
  - the metric is diagonal: all +1, or (+1, -1, ..., -1).

Kernels: site-local work runs in blocks of liecore.SITE_BLOCK sites, on
slices of the site-last fields.  Each kernel call allocates one workspace for
the longest block (_site_workspace) and fills it with out=; per-site matrix
products and the transform field's exponential run on (n, n, sites) stacks,
so a site's result does not depend on its block.
"""
from __future__ import annotations

import math
import random
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .breaking import SpectrumResult, mass_form
from .higgsmodel import HiggsModel
from .liecore import TOL_ALG, GeneratorSet, realify, unrealify
from .liecore import _coefficient_map, _expm_skew_into, _real, _site_product, _site_workspace

__all__ = [
    "ExpansionCheck",
    "Grid",
    "LatticeError",
    "NonGroupTransformError",
    "OrderMeasurement",
    "central_difference",
    "convergence_orders",
    "covariance_defects",
    "covariant_derivative",
    "field_strength",
    "gauge_transform_gauge",
    "gauge_transform_matter",
    "higgs_density",
    "klein_gordon_density",
    "quadratic_expansion_check",
    "smooth_gauge_field",
    "smooth_multiplet_field",
    "smooth_scalar_field",
    "smooth_transform_field",
    "yang_mills_density",
]


class LatticeError(ValueError):
    pass


class NonGroupTransformError(LatticeError):
    """A transform field is not valued in the represented group."""


class Grid(namedtuple("Grid", "dim shape spacing metric")):
    """Periodic uniform grid with a diagonal metric.

    shape is stored as a tuple of ints, one extent per dimension; metric is
    "euclidean" or "lorentzian".
    """

    __slots__ = ()

    def __new__(cls, dim: int, shape: tuple[int, ...], spacing: float, metric: str = "euclidean"):
        if dim < 1:
            raise LatticeError("grid dimension must be at least 1")
        shape = tuple(int(m) for m in shape)
        if len(shape) != dim:
            raise LatticeError(f"expected {dim} extents, got {len(shape)}")
        if any(m < 4 for m in shape):
            raise LatticeError("each extent must be at least 4")
        if not (np.isfinite(spacing) and spacing > 0):
            raise LatticeError(f"spacing must be finite and positive, got {spacing}")
        if metric not in ("euclidean", "lorentzian"):
            raise LatticeError(f"unknown metric {metric!r}")
        return super().__new__(cls, dim, shape, spacing, metric)

    @property
    def signs(self) -> np.ndarray:
        s = np.ones(self.dim)
        if self.metric == "lorentzian":
            s[1:] = -1.0
        return s

    @property
    def site_count(self) -> int:
        return math.prod(self.shape)

    def refined(self, factor: int) -> "Grid":
        """Same physical box, factor times the resolution."""
        return Grid(
            dim=self.dim,
            shape=tuple(m * factor for m in self.shape),
            spacing=self.spacing / factor,
            metric=self.metric,
        )


def _check_grid_axes(grid: Grid, field: np.ndarray, trailing: int, what: str):
    if field.shape[: grid.dim] != grid.shape or field.ndim != grid.dim + trailing:
        raise LatticeError(
            f"{what} must have shape {grid.shape} + {trailing} trailing axes, "
            f"got {field.shape}"
        )


def central_difference(grid: Grid, field: np.ndarray, mu: int) -> np.ndarray:
    """(f(x+h e_mu) - f(x-h e_mu)) / 2h with periodic wrap, on a grid-first field."""
    if not 0 <= mu < grid.dim:
        raise LatticeError(f"direction {mu} out of range for dimension {grid.dim}")
    return _difference(grid, np.ascontiguousarray(field), mu)


def _difference(grid: Grid, field: np.ndarray, axis: int) -> np.ndarray:
    """The central difference along the given axis of field, which runs along
    one grid direction.  The differences are taken between slices of the field
    straight into the output, the two wrapped edge slabs included, so no
    shifted copy is made."""
    step = 2.0 * grid.spacing
    out = np.empty(field.shape, np.result_type(field, step))

    def along(start, stop):
        return (slice(None),) * axis + (slice(start, stop),)

    np.subtract(field[along(2, None)], field[along(None, -2)], out=out[along(1, -1)])
    np.subtract(field[along(1, 2)], field[along(-1, None)], out=out[along(None, 1)])
    np.subtract(field[along(None, 1)], field[along(-2, -1)], out=out[along(-1, None)])
    out /= step
    return out


def _site_last(grid: Grid, field: np.ndarray) -> np.ndarray:
    """A grid-first field (*grid, ...) as a site-last view (..., *grid), whose
    grid axes still merge into one site axis."""
    return np.moveaxis(field, range(grid.dim), range(-grid.dim, 0))


def _grid_first(grid: Grid, field: np.ndarray) -> np.ndarray:
    """A site-last field (..., *grid) as a contiguous grid-first one (*grid, ...)."""
    return np.ascontiguousarray(np.moveaxis(field, range(-grid.dim, 0), range(grid.dim)))


def _load_matrices(gs: GeneratorSet, coeffs: np.ndarray, dest: np.ndarray):
    """dest = the matrices of the site-last coefficients (r, ..., sites), into a
    contiguous (n, n, ..., sites): matrix_of's matmul transposed, the same
    products of each site, which BLAS sums in the same order."""
    np.matmul(gs.matrices.reshape(gs.r, -1).T, coeffs.reshape(gs.r, -1), out=dest.reshape(gs.n * gs.n, -1))


def _check_gauge(gs: GeneratorSet, grid: Grid, a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    _check_grid_axes(grid, a, 2, "gauge field")
    if a.shape[grid.dim] != grid.dim or a.shape[-1] != gs.r:
        raise LatticeError(f"gauge field must end in ({grid.dim}, {gs.r})")
    return a


def _transform_matter(sigma: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """sigma psi, site by site, for site-last sigma (n, n, sites) and psi (n, sites)."""
    out = np.empty(psi.shape, dtype=complex)
    for block, (term,) in _site_workspace(psi.shape[-1], (1,)):
        _site_product(sigma[..., block], psi[:, None, block], out[:, None, block], term)
    return out


def gauge_transform_matter(sigma: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Pointwise sigma(x) psi(x)."""
    sigma = np.asarray(sigma, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    if sigma.shape[:-2] != psi.shape[:-1] or sigma.shape[-1] != psi.shape[-1]:
        raise LatticeError(f"transform shape {sigma.shape} does not match matter shape {psi.shape}")
    n = psi.shape[-1]
    out = _transform_matter(sigma.reshape(-1, n, n).transpose(1, 2, 0), psi.reshape(-1, n).T)
    return np.ascontiguousarray(out.T).reshape(psi.shape)


def _transform_gauge(gs: GeneratorSet, grid: Grid, sigma: np.ndarray, a: np.ndarray) -> np.ndarray:
    """gauge_transform_gauge on site-last fields: sigma (n, n, *grid) and a and
    the result (D, r, *grid)."""
    sites, n = grid.site_count, gs.n
    flat_sigma = sigma.reshape(n, n, sites)
    blocks = _site_workspace(sites, (n, n), (n, n), (n, n), (n,))

    unitary_worst = []
    for block, (s_inv, free, prod, term) in blocks:
        s = flat_sigma[..., block]
        _site_product(s, np.conjugate(s.transpose(1, 0, 2), out=s_inv), prod, term)
        prod -= np.eye(n)[..., None]
        unitary_worst.append(np.max(np.abs(prod, out=_real(free))))
    unitary_defect = np.max(unitary_worst)
    # unitarity is the group side of skew-Hermiticity, so it shares TOL_ALG;
    # written as not (defect <= tol) so that a NaN defect fails
    if not (unitary_defect <= TOL_ALG):
        raise NonGroupTransformError(
            f"transform field is not unitary (defect {float(unitary_defect):.3e})"
        )
    e, unit = gs.unit_basis()
    to_basis, inverse_gram = _coefficient_map(unit)
    flat_a = a.reshape(grid.dim, gs.r, sites)
    coeffs = np.empty(flat_a.shape)
    for mu in range(grid.dim):
        d_sigma = _difference(grid, sigma, 2 + mu).reshape(n, n, sites)
        for block, (s_inv, m, prod, term) in blocks:
            s = flat_sigma[..., block]
            _load_matrices(gs, flat_a[mu, :, block], m)
            _site_product(s, m, prod, term)
            prod -= d_sigma[..., block]
            moved = _site_product(prod, np.conjugate(s.transpose(1, 0, 2), out=s_inv), m, term)
            # the projection reads (sites, n, n); prod's memory holds that copy
            stage = prod.reshape(-1, n, n)
            np.copyto(stage, moved.transpose(2, 0, 1))
            np.ldexp(stage.reshape(len(stage), -1).view(float) @ to_basis @ inverse_gram, -e, out=coeffs[mu, :, block].T)
        del d_sigma  # so that it is not held beside the next direction's
    return coeffs.reshape(a.shape)


def gauge_transform_gauge(gs: GeneratorSet, grid: Grid, sigma: np.ndarray, a: np.ndarray) -> np.ndarray:
    """A'_mu = sigma A_mu sigma^-1 - (d_mu sigma) sigma^-1, in coefficients,
    shape (*shape, D, r).

    The derivative term is a central difference, so for a smooth group
    valued sigma the result leaves the generator span by O(h^2), and the
    coefficients are its projection onto the span.  A sigma that is not
    sitewise unitary, or has a NaN entry, is rejected; the error gives the
    worst site defect over the whole field.

    The work runs one direction at a time: d_mu sigma needs neighbours, so
    it is taken over the whole field, and only one direction's is held.
    Everything else is site local and runs in blocks of liecore.SITE_BLOCK
    sites, in one site-last workspace for the call: the unitarity check, then
    A'_mu = (sigma A_mu - d_mu sigma) sigma^-1 and its coefficients.
    """
    sigma = np.asarray(sigma, dtype=complex)
    _check_grid_axes(grid, sigma, 2, "transform field")
    a = _check_gauge(gs, grid, a)
    return _grid_first(grid, _transform_gauge(gs, grid, _site_last(grid, sigma), _site_last(grid, a)))


def _covariant(gs: GeneratorSet, grid: Grid, a_mu: np.ndarray, psi: np.ndarray, mu: int) -> np.ndarray:
    """d_mu psi + A_mu psi on site-last fields: a_mu (r, *grid), psi and the result (n, *grid)."""
    n = gs.n
    flat_a, flat_psi = a_mu.reshape(gs.r, -1), psi.reshape(n, -1)
    dpsi = _difference(grid, psi, 1 + mu)
    flat_out = dpsi.reshape(n, -1)
    for block, (m, moved, term) in _site_workspace(flat_out.shape[-1], (n, n), (n, 1), (1,)):
        _load_matrices(gs, flat_a[:, block], m)
        flat_out[:, block] += _site_product(m, flat_psi[:, None, block], moved, term)[:, 0]
    return dpsi


def covariant_derivative(gs: GeneratorSet, grid: Grid, a: np.ndarray, psi: np.ndarray, mu: int) -> np.ndarray:
    """d_mu psi + A_mu psi."""
    psi = np.asarray(psi, dtype=complex)
    _check_grid_axes(grid, psi, 1, "matter field")
    if not 0 <= mu < grid.dim:
        raise LatticeError(f"direction {mu} out of range for dimension {grid.dim}")
    a = _check_gauge(gs, grid, a)
    if psi.shape[-1] != gs.n:
        raise LatticeError(f"matter field has {psi.shape[-1]} components, the generators act on {gs.n}")
    return _grid_first(grid, _covariant(gs, grid, _site_last(grid, a[..., mu, :]), _site_last(grid, psi), mu))


def _strength_planes(gs: GeneratorSet, grid: Grid, a: np.ndarray) -> np.ndarray:
    """F_{mu nu} of the site-last a (D, r, *grid) on the planes mu < nu, in
    np.triu_indices order: (r, planes, sites)."""
    c = gs.structure_constants()
    r = gs.r
    mus, nus = np.triu_indices(grid.dim, 1)
    out = np.empty((r, len(mus), grid.site_count))
    for p, (mu, nu) in enumerate(zip(mus, nus)):
        curl = _difference(grid, a[nu], 1 + mu) - _difference(grid, a[mu], 1 + nu)
        outer = a[mu, :, None] * a[nu, None, :]
        bracket = c.reshape(r * r, r).T @ outer.reshape(r * r, -1)
        np.add(curl.reshape(r, -1), bracket, out=out[:, p])
    return out


def field_strength(gs: GeneratorSet, grid: Grid, a: np.ndarray) -> np.ndarray:
    """F_{mu nu} = d_mu A_nu - d_nu A_mu + [A_mu, A_nu], in coefficients.

    The bracket is evaluated through the structure constants, so closure
    is exact; generator sets that do not close raise here.
    Returns shape (*grid, D, D, r), antisymmetric in (mu, nu).
    """
    planes = _strength_planes(gs, grid, _site_last(grid, _check_gauge(gs, grid, a)))
    F = np.zeros(grid.shape + (grid.dim, grid.dim, gs.r))
    for p, (mu, nu) in enumerate(zip(*np.triu_indices(grid.dim, 1))):
        F[..., mu, nu, :] = planes[:, p].T.reshape(grid.shape + (gs.r,))
        F[..., nu, mu, :] = -F[..., mu, nu, :]
    return F


def yang_mills_density(grid: Grid, f: np.ndarray) -> np.ndarray:
    """-1/4 F^{mu nu} F_{mu nu}, algebra indices contracted Euclidean."""
    f = np.asarray(f, dtype=float)
    s = grid.signs
    return -0.25 * np.einsum("m,n,...mnr,...mnr->...", s, s, f, f)


def _add_kinetic(gs, grid, a, psi, out) -> np.ndarray:
    """out + sum_mu s_mu |nabla_mu psi|^2, added one direction at a time."""
    s = grid.signs
    for mu in range(grid.dim):
        grad = covariant_derivative(gs, grid, a, psi, mu)
        out = out + s[mu] * np.einsum("...i,...i->...", grad.conj(), grad).real
    return out


def klein_gordon_density(
    gs: GeneratorSet, grid: Grid, a: np.ndarray, psi: np.ndarray, mass: float
) -> np.ndarray:
    """(nabla^mu psi)^dag (nabla_mu psi) - m^2 psi^dag psi."""
    psi = np.asarray(psi, dtype=complex)
    mass_term = -(mass**2) * np.einsum("...i,...i->...", psi.conj(), psi).real
    return _add_kinetic(gs, grid, a, psi, mass_term)


def higgs_density(
    gs: GeneratorSet, grid: Grid, a: np.ndarray, phi: np.ndarray, potential
) -> np.ndarray:
    """(nabla^mu phi)^dag (nabla_mu phi) - V(phi)."""
    phi = np.asarray(phi, dtype=complex)
    return _add_kinetic(gs, grid, a, phi, -np.apply_along_axis(potential.value, -1, phi))


# ---------------------------------------------------------------------------
# smooth test fields, resolution independent for fixed seed


# waves per smooth component
WAVE_TERMS = 3
# amplitude of a transform's coefficient fields, which keeps sigma near the identity
TRANSFORM_SCALE = 0.4


def _wave_set(rng: random.Random, dim: int):
    # lowest nonzero wavevectors only; higher harmonics would push the
    # h^2 error constants up and blur order measurements on coarse grids
    waves = []
    for _ in range(WAVE_TERMS):
        k = [rng.randrange(-1, 2) for _ in range(dim)]
        if not any(k):
            k[rng.randrange(dim)] = 1
        waves.append((k, rng.uniform(0.0, 2.0 * math.pi), rng.gauss(0.0, 1.0)))
    return waves


def _smooth_components(grid: Grid, count: int, seed: int, scale: float) -> np.ndarray:
    """count periodic band-limited random fields, site-last: shape (count,) +
    grid.shape, drawn in order from one seeded generator.  A wave amp sin(phase
    + 2 pi k.x) is Im(amp e^(i phase)) turned axis by axis, elementwise, by the
    cos and sin of k_d 2 pi i / m_d, an angle that site 2^j i of a 2^j m axis
    shares: a refined grid resamples the same continuum functions, site for
    site."""
    rng = random.Random(seed)
    waves = [_wave_set(rng, grid.dim) for _ in range(count)]
    angles = [2.0 * np.pi * np.arange(m) / m for m in grid.shape]
    total = np.zeros((count,) + grid.shape)
    for j in range(WAVE_TERMS):  # every component's j-th wave, summed in order
        k, phase, amp = (np.array(part) for part in zip(*(w[j] for w in waves)))
        re, im = (amp * (scale / WAVE_TERMS) * f(phase) for f in (np.cos, np.sin))
        for d, angle in enumerate(angles):
            turn = (k[:, d, None] * angle).reshape((count,) + (1,) * d + (-1,))
            c, s, re, im = np.cos(turn), np.sin(turn), re[..., None], im[..., None]
            if d + 1 < grid.dim:
                re, im = re * c - im * s, re * s + im * c
            else:  # only the imaginary part is needed, added in place
                total += re * s
                total += im * c
    return total


def _multiplet(grid: Grid, n: int, seed: int) -> np.ndarray:
    parts = _smooth_components(grid, 2 * n, seed, 1.0)
    return parts[:n] + 1j * parts[n:]


def _transform(gs: GeneratorSet, grid: Grid, seed: int) -> np.ndarray:
    """smooth_transform_field, site-last: (n, n, *grid)."""
    coeffs = _smooth_components(grid, gs.r, seed, TRANSFORM_SCALE).reshape(gs.r, -1)
    sigma = np.empty((gs.n, gs.n) + grid.shape, dtype=complex)
    dest = sigma.reshape(gs.n, gs.n, -1).transpose(2, 0, 1)  # the exponential's (sites, n, n), a view of sigma
    _expm_skew_into(dest, lambda block, x: _load_matrices(gs, coeffs[:, block], x))
    return sigma


def smooth_scalar_field(grid: Grid, seed: int) -> np.ndarray:
    return _smooth_components(grid, 1, seed, 1.0)[0]


def smooth_multiplet_field(grid: Grid, n: int, seed: int) -> np.ndarray:
    return np.moveaxis(_multiplet(grid, n, seed), 0, -1)


def smooth_gauge_field(grid: Grid, r: int, seed: int) -> np.ndarray:
    """Coefficient field of shape grid.shape + (dim, r)."""
    return np.moveaxis(_smooth_components(grid, grid.dim * r, seed, 1.0), 0, -1).reshape(grid.shape + (grid.dim, r))


def smooth_transform_field(gs: GeneratorSet, grid: Grid, seed: int) -> np.ndarray:
    """sigma(x) = exp(sum_i c_i(x) g_i) with smooth coefficient fields.

    Each site's exponential is liecore's, from that site alone, so no site's
    result depends on the others.  The work runs in blocks of
    liecore.SITE_BLOCK sites on site-last stacks, in one workspace for the
    call, written into one result.
    """
    return _grid_first(grid, _transform(gs, grid, seed))


# ---------------------------------------------------------------------------
# covariance measurements, on site-last fields


def _derivative_defect(gs, grid, a, a_prime, psi, sigma) -> float:
    flat_sigma = sigma.reshape(gs.n, gs.n, -1)
    psi_prime = _transform_matter(flat_sigma, psi.reshape(gs.n, -1)).reshape(psi.shape)
    # the squared gaps fill one array in (D, sites, n) order, summed once
    gap = np.empty((grid.dim, grid.site_count, gs.n))
    for mu in range(grid.dim):  # rhs first, so that its nabla_mu psi is freed before lhs is built
        rhs = _transform_matter(flat_sigma, _covariant(gs, grid, a[mu], psi, mu).reshape(gs.n, -1))
        lhs = _covariant(gs, grid, a_prime[mu], psi_prime, mu).reshape(gs.n, -1)
        np.abs(np.subtract(lhs, rhs, out=lhs), out=gap[mu].T)
        del lhs, rhs  # so that they are not held beside the next direction's
    return float(np.sqrt(np.mean(np.square(gap, out=gap))))


def _strength_defect(gs, grid, a, a_prime, sigma) -> float:
    # F is antisymmetric: the planes mu < nu hold half the mean square over (D, D)
    sites, n, count = grid.site_count, gs.n, grid.dim * (grid.dim - 1) // 2
    f_prime = _strength_planes(gs, grid, a_prime)
    f = _strength_planes(gs, grid, a)
    flat_sigma = sigma.reshape(n, n, sites)
    planes = (n, n, count)
    # the matrices are built and conjugated in site blocks; the squared gaps
    # fill one array in (sites, planes, n, n) order, summed once, so the
    # summation order is the grid's
    gap = np.empty((sites, count, n, n))
    for block, (s_inv, f_mat, prod, term) in _site_workspace(sites, (n, n), planes, planes, planes[1:]):
        s = flat_sigma[..., block]
        np.conjugate(s.transpose(1, 0, 2), out=s_inv)
        _load_matrices(gs, f[..., block], f_mat)
        # sigma F sigma^-1 goes back into f_mat, F(A') into prod
        conj = _site_product(_site_product(s[:, :, None], f_mat, prod, term), s_inv[:, :, None], f_mat, term)
        _load_matrices(gs, f_prime[..., block], prod)
        np.subtract(prod, conj, out=prod)
        block_gap = gap[block].transpose(2, 3, 1, 0)
        np.square(np.abs(prod, out=block_gap), out=block_gap)
    return float(np.sqrt(2.0 * np.sum(gap) / (sites * grid.dim**2 * n**2)))


def _defects(gs, grid, a, psi, sigma) -> tuple[float, float]:
    """covariance_defects of site-last a (D, r, *grid), psi (n, *grid) and sigma (n, n, *grid)."""
    a_prime = _transform_gauge(gs, grid, sigma, a)
    return _derivative_defect(gs, grid, a, a_prime, psi, sigma), _strength_defect(gs, grid, a, a_prime, sigma)


def covariance_defects(
    gs: GeneratorSet, grid: Grid, a: np.ndarray, psi: np.ndarray, sigma: np.ndarray
) -> tuple[float, float]:
    """(derivative, strength): root-mean-square defects of both identities.

    The RMS of nabla'_mu (sigma psi) - sigma nabla_mu psi over sites,
    components and directions, and of F(A') - sigma F(A) sigma^-1 as
    matrices, both from one A'.  The mean-square norm keeps refinement
    ratios clean where a max would jump between sites.
    """
    sigma = np.asarray(sigma, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    _check_grid_axes(grid, sigma, 2, "transform field")
    _check_grid_axes(grid, psi, 1, "matter field")
    if psi.shape[-1] != gs.n:
        raise LatticeError(f"matter field has {psi.shape[-1]} components, the generators act on {gs.n}")
    fields = (_check_gauge(gs, grid, a), psi, sigma)
    return _defects(gs, grid, *(_site_last(grid, f) for f in fields))


class OrderMeasurement(NamedTuple):
    defects: tuple[float, ...]  # per grid, coarse to fine

    @property
    def orders(self) -> tuple[float, ...]:
        """log2 ratios between consecutive grids."""
        d = self.defects
        return tuple(float(np.log2(d[k] / d[k + 1])) for k in range(len(d) - 1))


def convergence_orders(
    gs: GeneratorSet, grid: Grid, seed: int, refinements: int = 2
) -> tuple[OrderMeasurement, OrderMeasurement]:
    """Measured convergence orders of both covariance defects under refinement.

    Returns (derivative, strength), as in covariance_defects.  The smooth
    test fields are sampled once, on the finest grid; each coarser grid
    takes the strided sub-lattice, which is bit-identical to resampling
    the same continuum data there (site i of the m-grid is site 2^k i of
    the 2^k m-grid, at the same correctly rounded angle, and every
    field builder works site by site).  Each of the refinements + 1 grids
    then gets one gauge transform, which both defects share, and each
    defect sequence estimates the discretization order (2 for central
    differences).
    """
    if refinements < 1:
        raise LatticeError(f"refinements must be at least 1 to measure an order, got {refinements}")
    fine = grid.refined(2**refinements)
    fields = (
        _smooth_components(fine, fine.dim * gs.r, seed, 1.0).reshape((fine.dim, gs.r) + fine.shape),
        _multiplet(fine, gs.n, seed + 1),
        _transform(gs, fine, seed + 2),
    )
    levels = []
    for level in range(refinements + 1):
        sites = (...,) + (slice(None, None, 2 ** (refinements - level)),) * grid.dim
        a, psi, sigma = (np.ascontiguousarray(f[sites]) for f in fields)
        levels.append(_defects(gs, grid.refined(2**level), a, psi, sigma))
    derivative, strength = zip(*levels)
    return OrderMeasurement(derivative), OrderMeasurement(strength)


# ---------------------------------------------------------------------------
# quadratic expansion of the combined higgs + gauge action


class ExpansionCheck(NamedTuple):
    eps: float
    remainder: float  # max-norm density gap at eps
    remainder_half: float  # the same at eps/2
    ratio: float  # remainder / remainder_half, ~8 for a cubic remainder
    cross_term_max: float  # gradient-orbit coupling, 0 in unitary gauge


def quadratic_expansion_check(model: HiggsModel, spec: SpectrumResult, eps: float, seed: int) -> ExpansionCheck:
    """Compare the full action density against its quadratic truncation on
    an 8x8 grid, for smooth perturbations drawn from seed.

    The scalar perturbation lives in the transverse (unitary gauge)
    subspace, so the gradient-orbit cross term cancels exactly and the
    remainder is third order in eps: halving eps divides it by ~8.
    """
    gs = model.generators
    v0 = model.vacuum
    grid = Grid(dim=2, shape=(8, 8), spacing=0.125)
    transverse = spec.transverse_basis  # (2n - d, 2n)
    weights = [smooth_scalar_field(grid, 1000 * (seed + 1) + j) for j in range(transverse.shape[0])]
    delta_phi = unrealify(np.stack(weights, axis=-1) @ transverse)
    gauge = smooth_gauge_field(grid, gs.r, 7777 + seed)

    s = grid.signs
    hess = model.potential.hessian(v0)
    v_at_vacuum = model.potential.value(v0)
    form = mass_form(gs, v0)

    def full_density(e: float) -> np.ndarray:
        phi = v0 + e * delta_phi
        return higgs_density(gs, grid, e * gauge, phi, model.potential) + yang_mills_density(
            grid, field_strength(gs, grid, e * gauge)
        )

    def quadratic_density(e: float) -> np.ndarray:
        out = np.full(grid.shape, -v_at_vacuum)
        y = realify(delta_phi)
        out = out - 0.5 * e * e * np.einsum("...i,ij,...j->...", y, hess, y)
        for mu in range(grid.dim):
            dgrad = central_difference(grid, delta_phi, mu)
            out = out + s[mu] * e * e * np.einsum("...i,...i->...", dgrad.conj(), dgrad).real
            a_mu = gauge[..., mu, :]
            out = out + s[mu] * e * e * np.einsum("...i,ij,...j->...", a_mu, form, a_mu)
        for mu in range(grid.dim):
            for nu in range(grid.dim):
                if mu == nu:
                    continue
                lin = central_difference(grid, gauge[..., nu, :], mu) - central_difference(
                    grid, gauge[..., mu, :], nu
                )
                out = out - 0.25 * e * e * s[mu] * s[nu] * np.einsum(
                    "...r,...r->...", lin, lin
                )
        return out

    def remainder(e: float) -> float:
        return float(np.max(np.abs(full_density(e) - quadratic_density(e))))

    acted_v0 = np.einsum("...r,rij,j->...i", gauge, gs.matrices, v0)  # (*shape, D, n)
    cross = 0.0
    for mu in range(grid.dim):
        dgrad = central_difference(grid, delta_phi, mu)
        term = 2.0 * np.einsum("...i,...i->...", dgrad.conj(), acted_v0[..., mu, :]).real
        cross = max(cross, float(np.max(np.abs(s[mu] * eps * eps * term))))

    r1 = remainder(eps)
    r2 = remainder(0.5 * eps)
    ratio = r1 / r2 if r2 > 0 else float("nan")
    return ExpansionCheck(
        eps=eps,
        remainder=r1,
        remainder_half=r2,
        ratio=ratio,
        cross_term_max=cross,
    )
