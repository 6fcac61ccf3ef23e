"""Discretized field theory on a periodic grid.

Conventions:
  - fields are site-last inside, from synthesis to defect: matter (n, *grid),
    gauge coefficient fields (D, r, *grid), transforms (n, n, *grid).  The
    public functions take and return them grid-first: (*grid, n) and so on.
  - derivatives are central differences with periodic wrap, O(h^2).
  - gauge fields are stored as real generator coefficients; contraction
    of algebra indices is the plain Euclidean coefficient product.
  - the metric is diagonal: all +1, or (+1, -1, ..., -1).

Kernels: all work runs in blocks of liecore.SITE_BLOCK sites, on slices of
the site-last fields.  Each kernel call allocates one workspace for the
longest block (_site_workspace) and fills it with out=; per-site matrix
products and the transform field's exponential run on (n, n, sites) stacks,
so a site's result does not depend on its block.  A central difference is
taken per block too, from neighbours gathered by flat index (_neighbours),
so the only whole-grid arrays are the fields themselves (sigma, A, A', psi,
psi' = sigma psi) and the squared gaps that each defect sums at once.
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
from .liecore import _coefficient_map, _expm_skew_into, _real, _site_product, _site_workspace, site_blocks

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
    field = np.asarray(field, np.result_type(field, 2.0 * grid.spacing))
    if field.shape[: grid.dim] != grid.shape:
        raise LatticeError(f"field must have shape {grid.shape} + trailing axes, got {field.shape}")
    flat = np.ascontiguousarray(field.reshape(grid.site_count, -1).T)
    out = np.empty(flat.shape[::-1], field.dtype)
    for block in site_blocks(grid.site_count):
        out[block] = _difference(grid, flat, _neighbours(grid, block)[mu]).T
    return out.reshape(field.shape)


def _neighbours(grid: Grid, block: slice) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each direction mu, the flat indices of the sites one step up and
    one step down mu from each site of the block, with periodic wrap."""
    steps, sites = [], np.arange(block.start, block.stop)
    for mu, extent in enumerate(grid.shape):
        stride = math.prod(grid.shape[mu + 1 :])
        span = extent * stride  # the sites within one stride of an end of their span wrap by a span
        at = sites - sites // span * span
        up, down = sites + stride, sites - stride
        up[at >= span - stride] -= span
        down[at < stride] += span
        steps.append((up, down))
    return steps


def _difference(grid: Grid, field: np.ndarray, step: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The central difference of the contiguous flat site-last field (..., sites)
    at the sites whose neighbours along one direction step holds (_neighbours),
    each site's the same subtraction and division as over the whole field."""
    out = field.take(step[0], axis=-1)
    out -= field.take(step[1], axis=-1)
    out /= 2.0 * grid.spacing
    return out


def _site_last(grid: Grid, field: np.ndarray) -> np.ndarray:
    """A grid-first field (*grid, ...) as a site-last view (..., *grid), whose
    grid axes still merge into one site axis."""
    return np.moveaxis(field, range(grid.dim), range(-grid.dim, 0))


def _contiguous(grid: Grid, field: np.ndarray) -> np.ndarray:
    """A grid-first field as a contiguous site-last one, whose neighbours
    _difference gathers."""
    return np.ascontiguousarray(_site_last(grid, field))


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
    for block, (s_inv, m, prod, term) in blocks:
        s = flat_sigma[..., block]
        np.conjugate(s.transpose(1, 0, 2), out=s_inv)
        for mu, step in enumerate(_neighbours(grid, block)):
            _load_matrices(gs, flat_a[mu, :, block], m)
            _site_product(s, m, prod, term)
            prod -= _difference(grid, flat_sigma, step)
            moved = _site_product(prod, s_inv, m, term)
            # the projection reads (sites, n, n); prod's memory holds that copy
            stage = prod.reshape(-1, n, n)
            np.copyto(stage, moved.transpose(2, 0, 1))
            np.ldexp(stage.reshape(len(stage), -1).view(float) @ to_basis @ inverse_gram, -e, out=coeffs[mu, :, block].T)
    return coeffs.reshape(a.shape)


def gauge_transform_gauge(gs: GeneratorSet, grid: Grid, sigma: np.ndarray, a: np.ndarray) -> np.ndarray:
    """A'_mu = sigma A_mu sigma^-1 - (d_mu sigma) sigma^-1, in coefficients,
    shape (*shape, D, r).

    The derivative term is a central difference, so for a smooth group
    valued sigma the result leaves the generator span by O(h^2), and the
    coefficients are its projection onto the span.  A sigma that is not
    sitewise unitary, or has a NaN entry, is rejected; the error gives the
    worst site defect over the whole field.

    The work runs in blocks of liecore.SITE_BLOCK sites, in one site-last
    workspace for the call: the unitarity check, then, direction by
    direction, A'_mu = (sigma A_mu - d_mu sigma) sigma^-1 and its
    coefficients, with d_mu sigma taken from the block's neighbours.
    """
    sigma = np.asarray(sigma, dtype=complex)
    _check_grid_axes(grid, sigma, 2, "transform field")
    a = _check_gauge(gs, grid, a)
    return _grid_first(grid, _transform_gauge(gs, grid, _contiguous(grid, sigma), _site_last(grid, a)))


def _covariant(gs, grid, a_mu, psi, block, step, m, moved, term) -> np.ndarray:
    """d_mu psi + A_mu psi on the block's sites, (n, block length), for flat
    site-last a_mu (r, sites) and contiguous psi (n, sites); step holds the
    block's neighbours along mu, and m, moved and term are workspace buffers
    of shapes (n, n), (n, 1) and (1,)."""
    out = _difference(grid, psi, step)
    _load_matrices(gs, a_mu[:, block], m)
    out += _site_product(m, psi[:, None, block], moved, term)[:, 0]
    return out


def covariant_derivative(gs: GeneratorSet, grid: Grid, a: np.ndarray, psi: np.ndarray, mu: int) -> np.ndarray:
    """d_mu psi + A_mu psi."""
    psi = np.asarray(psi, dtype=complex)
    _check_grid_axes(grid, psi, 1, "matter field")
    if not 0 <= mu < grid.dim:
        raise LatticeError(f"direction {mu} out of range for dimension {grid.dim}")
    a = _check_gauge(gs, grid, a)
    if psi.shape[-1] != gs.n:
        raise LatticeError(f"matter field has {psi.shape[-1]} components, the generators act on {gs.n}")
    flat_a, flat_psi = _site_last(grid, a[..., mu, :]).reshape(gs.r, -1), _contiguous(grid, psi).reshape(gs.n, -1)
    out = np.empty(flat_psi.shape, dtype=complex)
    for block, work in _site_workspace(grid.site_count, (gs.n, gs.n), (gs.n, 1), (1,)):
        out[:, block] = _covariant(gs, grid, flat_a, flat_psi, block, _neighbours(grid, block)[mu], *work)
    return _grid_first(grid, out.reshape((gs.n,) + grid.shape))


def _strength(grid: Grid, c: np.ndarray, a: np.ndarray, block: slice, steps) -> np.ndarray:
    """F_{mu nu} of the contiguous flat site-last a (D, r, sites) on the block's
    sites, whose neighbours steps holds, from the structure constants c: (r,
    planes mu < nu in np.triu_indices order, block length).  The bracket's
    gemm on the block's columns sums each column as over the whole field."""
    r = len(c)
    mus, nus = np.triu_indices(grid.dim, 1)
    out = np.empty((r, len(mus), block.stop - block.start))
    for p, (mu, nu) in enumerate(zip(mus, nus)):
        curl = _difference(grid, a[nu], steps[mu]) - _difference(grid, a[mu], steps[nu])
        outer = a[mu, :, None, block] * a[nu, None, :, block]
        np.add(curl, c.reshape(r * r, r).T @ outer.reshape(r * r, -1), out=out[:, p])
    return out


def field_strength(gs: GeneratorSet, grid: Grid, a: np.ndarray) -> np.ndarray:
    """F_{mu nu} = d_mu A_nu - d_nu A_mu + [A_mu, A_nu], in coefficients.

    The bracket is evaluated through the structure constants, so closure
    is exact; generator sets that do not close raise here.
    Returns shape (*grid, D, D, r), antisymmetric in (mu, nu).
    """
    a = _contiguous(grid, _check_gauge(gs, grid, a)).reshape(grid.dim, gs.r, -1)
    c = gs.structure_constants()
    mus, nus = np.triu_indices(grid.dim, 1)
    F = np.zeros((grid.site_count, grid.dim, grid.dim, gs.r))
    for block in site_blocks(grid.site_count):
        F[block, mus, nus] = _strength(grid, c, a, block, _neighbours(grid, block)).T
        F[block, nus, mus] = -F[block, mus, nus]
    return F.reshape(grid.shape + (grid.dim, grid.dim, gs.r))


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
    total, term = np.zeros((count,) + grid.shape), np.empty((count,) + grid.shape)
    for j in range(WAVE_TERMS):  # every component's j-th wave, summed in order
        k, phase, amp = (np.array(part) for part in zip(*(w[j] for w in waves)))
        re, im = (amp * (scale / WAVE_TERMS) * f(phase) for f in (np.cos, np.sin))
        for d, angle in enumerate(angles):
            turn = (k[:, d, None] * angle).reshape((count,) + (1,) * d + (-1,))
            c, s, re, im = np.cos(turn), np.sin(turn), re[..., None], im[..., None]
            if d + 1 < grid.dim:
                re, im = re * c - im * s, re * s + im * c
            else:  # only the imaginary part is needed, added in place
                total += np.multiply(re, s, out=term)
                total += np.multiply(im, c, out=term)
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
    n, sites = gs.n, grid.site_count
    flat_sigma, flat_psi = sigma.reshape(n, n, sites), psi.reshape(n, sites)
    flat_a, flat_a_prime = (x.reshape(grid.dim, gs.r, sites) for x in (a, a_prime))
    psi_prime = _transform_matter(flat_sigma, flat_psi)  # whole, since its neighbours are read
    # the squared gaps fill one array in (D, sites, n) order, summed once
    gap = np.empty((grid.dim, sites, n))
    for block, (rhs, *work) in _site_workspace(sites, (n, 1), (n, n), (n, 1), (1,)):
        s = flat_sigma[..., block]
        for mu, step in enumerate(_neighbours(grid, block)):  # nabla psi is freed before nabla' psi' is built
            _site_product(s, _covariant(gs, grid, flat_a[mu], flat_psi, block, step, *work)[:, None], rhs, work[-1])
            lhs = _covariant(gs, grid, flat_a_prime[mu], psi_prime, block, step, *work)
            np.abs(np.subtract(lhs, rhs[:, 0], out=lhs), out=gap[mu, block].T)
    return float(np.sqrt(np.mean(np.square(gap, out=gap))))


def _strength_defect(gs, grid, a, a_prime, sigma) -> float:
    # F is antisymmetric: the planes mu < nu hold half the mean square over (D, D)
    sites, n, count = grid.site_count, gs.n, grid.dim * (grid.dim - 1) // 2
    c = gs.structure_constants()
    flat_a, flat_a_prime = (x.reshape(grid.dim, gs.r, sites) for x in (a, a_prime))
    flat_sigma = sigma.reshape(n, n, sites)
    planes = (n, n, count)
    # F(A) and F(A') are built, loaded and conjugated in site blocks; the
    # squared gaps fill one array in (sites, planes, n, n) order, summed once,
    # so the summation order is the grid's
    gap = np.empty((sites, count, n, n))
    for block, (s_inv, f_mat, prod, term) in _site_workspace(sites, (n, n), planes, planes, planes[1:]):
        steps = _neighbours(grid, block)
        s = flat_sigma[..., block]
        np.conjugate(s.transpose(1, 0, 2), out=s_inv)
        _load_matrices(gs, _strength(grid, c, flat_a, block, steps), f_mat)
        # sigma F sigma^-1 goes back into f_mat, F(A') into prod
        conj = _site_product(_site_product(s[:, :, None], f_mat, prod, term), s_inv[:, :, None], f_mat, term)
        _load_matrices(gs, _strength(grid, c, flat_a_prime, block, steps), prod)
        np.subtract(prod, conj, out=prod)
        block_gap = gap[block].transpose(2, 3, 1, 0)
        np.square(np.abs(prod, out=block_gap), out=block_gap)
    return float(np.sqrt(2.0 * np.sum(gap) / (sites * grid.dim**2 * n**2)))


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
    a = _contiguous(grid, _check_gauge(gs, grid, a))
    # only the transform gathers sigma's neighbours, so only it reads a contiguous copy
    a_prime = _transform_gauge(gs, grid, _contiguous(grid, sigma), a)
    sigma = _site_last(grid, sigma)
    strength = _strength_defect(gs, grid, a, a_prime, sigma)
    return _derivative_defect(gs, grid, a, a_prime, _contiguous(grid, psi), sigma), strength


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
    test fields sample the same continuum data on every grid: site i of the
    m-grid is site 2^k i of the 2^k m-grid, at the same correctly rounded
    angle, and every field builder works site by site.  sigma is
    exponentiated on the finest grid before any other field is made, so its
    workspace is freed first, then A is sampled there; each coarser grid
    takes their strided sub-lattices.  psi is sampled on each grid, after
    the strength defect, so that it is not held beside that.  Each of the
    refinements + 1 grids gets one gauge transform, which both defects
    share, and each defect sequence estimates the discretization order (2
    for central differences).
    """
    if refinements < 1:
        raise LatticeError(f"refinements must be at least 1 to measure an order, got {refinements}")
    fine = grid.refined(2**refinements)
    fine_sigma = _transform(gs, fine, seed + 2)
    fine_a = _smooth_components(fine, fine.dim * gs.r, seed, 1.0).reshape((fine.dim, gs.r) + fine.shape)
    derivative, strength = [], []
    for level in range(refinements + 1):
        g = grid.refined(2**level)
        sites = (...,) + (slice(None, None, 2 ** (refinements - level)),) * g.dim
        sigma, a = np.ascontiguousarray(fine_sigma[sites]), np.ascontiguousarray(fine_a[sites])
        a_prime = _transform_gauge(gs, g, sigma, a)
        strength.append(_strength_defect(gs, g, a, a_prime, sigma))
        derivative.append(_derivative_defect(gs, g, a, a_prime, _multiplet(g, gs.n, seed + 1), sigma))
    return OrderMeasurement(tuple(derivative)), OrderMeasurement(tuple(strength))


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
