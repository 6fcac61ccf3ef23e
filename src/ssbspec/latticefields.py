"""Discretized field theory on a periodic grid.

Conventions:
  - grid axes come first; field components trail (matter (..., n), gauge
    coefficient fields (..., D, r), transforms (..., n, n)).
  - derivatives are central differences with periodic wrap, O(h^2).
  - gauge fields are stored as real generator coefficients; contraction
    of algebra indices is the plain Euclidean coefficient product.
  - the metric is diagonal: all +1, or (+1, -1, ..., -1).

Kernels: site-local work runs on liecore's site-last layer, in blocks of
liecore.SITE_BLOCK sites.  Each kernel call allocates one workspace for the
longest block (_site_workspace) and fills it with out=; per-site matrix
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
from .liecore import TOL_ALG, TOL_RANK, GeneratorSet, realify, unrealify
from .liecore import _coefficient_map, _expm_skew_into, _real, _site_product, _site_workspace

__all__ = [
    "ExpansionCheck",
    "Grid",
    "LatticeError",
    "NonGroupTransformError",
    "NotUnitaryGaugeError",
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


class NotUnitaryGaugeError(LatticeError):
    """A perturbation has components along the orbit directions."""


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
    """(f(x+h e_mu) - f(x-h e_mu)) / 2h with periodic wrap.

    The differences are taken between slices of the field straight into the
    output, the two wrapped edge slabs included, so no shifted copy is made;
    a strided field (one direction of a gauge field) is made contiguous
    first, since contiguous slices subtract faster.
    """
    if not 0 <= mu < grid.dim:
        raise LatticeError(f"direction {mu} out of range for dimension {grid.dim}")
    field = np.ascontiguousarray(field)
    step = 2.0 * grid.spacing
    out = np.empty(field.shape, np.result_type(field, step))

    def along(start, stop):
        return (slice(None),) * mu + (slice(start, stop),)

    np.subtract(field[along(2, None)], field[along(None, -2)], out=out[along(1, -1)])
    np.subtract(field[along(1, 2)], field[along(-1, None)], out=out[along(None, 1)])
    np.subtract(field[along(None, 1)], field[along(-2, -1)], out=out[along(-1, None)])
    out /= step
    return out


def _load_matrices(gs: GeneratorSet, coeffs: np.ndarray, dest: np.ndarray):
    """dest = gs.matrix_of(coeffs) with the sites moved last.

    coeffs is (sites, ..., r) and dest a contiguous (n, n, ..., sites).  The
    matmul is matrix_of's transposed: the same products of each site,
    which BLAS sums in the same order.
    """
    np.matmul(
        gs.matrices.reshape(gs.r, -1).T, coeffs.T.reshape(gs.r, -1), out=dest.reshape(gs.n * gs.n, -1)
    )


def _load_transform(s: np.ndarray, s_inv: np.ndarray, sigma: np.ndarray):
    """s = sigma and s_inv = sigma^dagger, both site-last, from a (sites, n, n) block."""
    np.copyto(s, sigma.transpose(1, 2, 0))
    np.conjugate(s.transpose(1, 0, 2), out=s_inv)


def gauge_transform_matter(sigma: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Pointwise sigma(x) psi(x), in site blocks."""
    sigma = np.asarray(sigma, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    if sigma.shape[:-2] != psi.shape[:-1] or sigma.shape[-1] != psi.shape[-1]:
        raise LatticeError(
            f"transform shape {sigma.shape} does not match matter shape {psi.shape}"
        )
    n = psi.shape[-1]
    flat_sigma, flat_psi = sigma.reshape(-1, n, n), psi.reshape(-1, n)
    out = np.empty(psi.shape, dtype=complex)
    flat_out = out.reshape(-1, n)
    for block, (s, v, moved, term) in _site_workspace(len(flat_psi), (n, n), (n, 1), (n, 1), (1,)):
        np.copyto(s, flat_sigma[block].transpose(1, 2, 0))
        np.copyto(v[:, 0], flat_psi[block].T)
        np.copyto(flat_out[block], _site_product(s, v, moved, term)[:, 0].T)
    return out


def gauge_transform_gauge(
    gs: GeneratorSet,
    grid: Grid,
    sigma: np.ndarray,
    a: np.ndarray,
) -> np.ndarray:
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
    a = np.asarray(a, dtype=float)
    _check_grid_axes(grid, sigma, 2, "transform field")
    _check_grid_axes(grid, a, 2, "gauge field")
    if a.shape[grid.dim] != grid.dim or a.shape[-1] != gs.r:
        raise LatticeError(f"gauge field must end in ({grid.dim}, {gs.r})")
    sites, n = grid.site_count, gs.n
    flat_sigma = sigma.reshape(sites, n, n)
    flat_a = a.reshape(sites, grid.dim, gs.r)
    blocks = _site_workspace(sites, (n, n), (n, n), (n, n), (n, n), (n,))

    unitary_worst = []
    for block, (s, s_inv, free, prod, term) in blocks:
        _load_transform(s, s_inv, flat_sigma[block])
        _site_product(s, s_inv, prod, term)
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
    coeffs = np.empty((sites, grid.dim, gs.r))
    for mu in range(grid.dim):
        d_sigma = central_difference(grid, sigma, mu).reshape(sites, n, n)
        for block, (s, s_inv, m, prod, term) in blocks:
            _load_transform(s, s_inv, flat_sigma[block])
            _load_matrices(gs, flat_a[block, mu], m)
            _site_product(s, m, prod, term)
            prod -= d_sigma[block].transpose(1, 2, 0)
            moved = _site_product(prod, s_inv, m, term)
            # the matmul reads (sites, n, n); prod's memory holds that copy
            stage = prod.reshape(-1, n, n)
            np.copyto(stage, moved.transpose(2, 0, 1))
            np.ldexp(stage.reshape(len(stage), -1).view(float) @ to_basis @ inverse_gram, -e, out=coeffs[block, mu])
        del d_sigma  # so that it is not held beside the next direction's
    return coeffs.reshape(a.shape)


def covariant_derivative(
    gs: GeneratorSet, grid: Grid, a: np.ndarray, psi: np.ndarray, mu: int
) -> np.ndarray:
    """d_mu psi + A_mu psi."""
    psi = np.asarray(psi, dtype=complex)
    _check_grid_axes(grid, psi, 1, "matter field")
    dpsi = central_difference(grid, psi, mu)
    if a is None:
        return dpsi
    a = np.asarray(a, dtype=float)
    _check_grid_axes(grid, a, 2, "gauge field")
    if psi.shape[-1] != gs.n:
        raise LatticeError(f"matter field has {psi.shape[-1]} components, the generators act on {gs.n}")
    # A_mu psi in site blocks, so the (sites, n, n) matrix field stays one block
    n = gs.n
    a_mu = a[..., mu, :].reshape(-1, gs.r)
    flat_psi, flat_out = psi.reshape(-1, n), dpsi.reshape(-1, n)
    for block, (m, v, moved, term) in _site_workspace(len(flat_out), (n, n), (n, 1), (n, 1), (1,)):
        _load_matrices(gs, a_mu[block], m)
        np.copyto(v[:, 0], flat_psi[block].T)
        flat_out[block] += _site_product(m, v, moved, term)[:, 0].T
    return dpsi


def _strength_planes(gs: GeneratorSet, grid: Grid, a: np.ndarray) -> np.ndarray:
    """F_{mu nu} on the planes mu < nu, in np.triu_indices order: (*grid, planes, r)."""
    a = np.asarray(a, dtype=float)
    _check_grid_axes(grid, a, 2, "gauge field")
    c = gs.structure_constants()
    r = gs.r
    mus, nus = np.triu_indices(grid.dim, 1)
    out = np.empty(grid.shape + (len(mus), r))
    for p, (mu, nu) in enumerate(zip(mus, nus)):
        curl = central_difference(grid, a[..., nu, :], mu) - central_difference(grid, a[..., mu, :], nu)
        outer = a[..., mu, :, None] * a[..., nu, None, :]
        bracket = (outer.reshape(-1, r * r) @ c.reshape(r * r, r)).reshape(curl.shape)
        np.add(curl, bracket, out=out[..., p, :])
    return out


def field_strength(gs: GeneratorSet, grid: Grid, a: np.ndarray) -> np.ndarray:
    """F_{mu nu} = d_mu A_nu - d_nu A_mu + [A_mu, A_nu], in coefficients.

    The bracket is evaluated through the structure constants, so closure
    is exact; generator sets that do not close raise here.
    Returns shape (*grid, D, D, r), antisymmetric in (mu, nu).
    """
    planes = _strength_planes(gs, grid, a)
    F = np.zeros(grid.shape + (grid.dim, grid.dim, gs.r))
    for p, (mu, nu) in enumerate(zip(*np.triu_indices(grid.dim, 1))):
        F[..., mu, nu, :] = planes[..., p, :]
        F[..., nu, mu, :] = -planes[..., p, :]
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
    gs: GeneratorSet, grid: Grid, a: np.ndarray | None, psi: np.ndarray, mass: float
) -> np.ndarray:
    """(nabla^mu psi)^dag (nabla_mu psi) - m^2 psi^dag psi."""
    psi = np.asarray(psi, dtype=complex)
    mass_term = -(mass**2) * np.einsum("...i,...i->...", psi.conj(), psi).real
    return _add_kinetic(gs, grid, a, psi, mass_term)


def higgs_density(
    gs: GeneratorSet, grid: Grid, a: np.ndarray | None, phi: np.ndarray, potential
) -> np.ndarray:
    """(nabla^mu phi)^dag (nabla_mu phi) - V(phi)."""
    phi = np.asarray(phi, dtype=complex)
    return _add_kinetic(gs, grid, a, phi, -np.apply_along_axis(potential.value, -1, phi))


# ---------------------------------------------------------------------------
# smooth test fields, resolution independent for fixed seed


# waves per smooth component
WAVE_TERMS = 3


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
    """count periodic band-limited random fields, shape grid.shape + (count,),
    drawn in order from one seeded generator.  A wave amp sin(phase + 2 pi k.x)
    is Im(amp e^(i phase)) turned axis by axis, elementwise, by the cos and sin
    of k_d 2 pi i / m_d, an angle that site 2^j i of a 2^j m axis shares: a
    refined grid resamples the same continuum functions, site for site."""
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
    return np.moveaxis(total, 0, -1)


def smooth_scalar_field(grid: Grid, seed: int, scale: float = 1.0) -> np.ndarray:
    return _smooth_components(grid, 1, seed, scale)[..., 0]


def smooth_multiplet_field(grid: Grid, n: int, seed: int, scale: float = 1.0) -> np.ndarray:
    parts = _smooth_components(grid, 2 * n, seed, scale)
    return parts[..., :n] + 1j * parts[..., n:]


def smooth_gauge_field(grid: Grid, r: int, seed: int, scale: float = 1.0) -> np.ndarray:
    """Coefficient field of shape grid.shape + (dim, r)."""
    return _smooth_components(grid, grid.dim * r, seed, scale).reshape(grid.shape + (grid.dim, r))


def smooth_transform_field(
    gs: GeneratorSet, grid: Grid, seed: int, scale: float = 0.4
) -> np.ndarray:
    """sigma(x) = exp(sum_i c_i(x) g_i) with smooth coefficient fields.

    Each site's exponential is liecore's, from that site alone, so no site's
    result depends on the others.  The work runs in blocks of
    liecore.SITE_BLOCK sites on site-last stacks, in one workspace for the
    call, written into one result.
    """
    coeffs = _smooth_components(grid, gs.r, seed, scale).reshape(-1, gs.r)
    sigma = np.empty((len(coeffs), gs.n, gs.n), dtype=complex)
    _expm_skew_into(sigma, lambda block, x: _load_matrices(gs, coeffs[block], x))
    return sigma.reshape(grid.shape + (gs.n, gs.n))


# ---------------------------------------------------------------------------
# covariance measurements


def _derivative_defect(gs, grid, a, a_prime, psi, sigma) -> float:
    psi_prime = gauge_transform_matter(sigma, psi)
    gaps = []
    for mu in range(grid.dim):
        lhs = covariant_derivative(gs, grid, a_prime, psi_prime, mu)
        rhs = gauge_transform_matter(sigma, covariant_derivative(gs, grid, a, psi, mu))
        gaps.append(np.abs(lhs - rhs) ** 2)
    return float(np.sqrt(np.mean(gaps)))


def _strength_defect(gs, grid, a, a_prime, sigma) -> float:
    # F is antisymmetric: the planes mu < nu hold half the mean square over (D, D)
    sites, n, count = grid.site_count, gs.n, grid.dim * (grid.dim - 1) // 2
    f_prime = _strength_planes(gs, grid, a_prime).reshape(sites, count, gs.r)
    f = _strength_planes(gs, grid, a).reshape(sites, count, gs.r)
    flat_sigma = sigma.reshape(sites, n, n)
    planes = (n, n, count)
    # the matrices are built and conjugated in site blocks; the squared gaps
    # fill one array in (sites, planes, n, n) order, summed once, so the
    # summation order is the grid's
    gap = np.empty((sites, count, n, n))
    for block, (s, s_inv, f_mat, prod, conj, term) in _site_workspace(
        sites, (n, n), (n, n), planes, planes, planes, planes[1:]
    ):
        _load_transform(s, s_inv, flat_sigma[block])
        _load_matrices(gs, f[block], f_mat)
        _site_product(_site_product(s[:, :, None], f_mat, prod, term), s_inv[:, :, None], conj, term)
        _load_matrices(gs, f_prime[block], f_mat)
        np.subtract(f_mat, conj, out=conj)
        block_gap = gap[block].transpose(2, 3, 1, 0)
        np.square(np.abs(conj, out=block_gap), out=block_gap)
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
    a_prime = gauge_transform_gauge(gs, grid, sigma, a)
    return (
        _derivative_defect(gs, grid, a, a_prime, psi, sigma),
        _strength_defect(gs, grid, a, a_prime, sigma),
    )


class OrderMeasurement(NamedTuple):
    defects: tuple[float, ...]  # per grid, coarse to fine

    @property
    def orders(self) -> tuple[float, ...]:
        """log2 ratios between consecutive grids."""
        d = self.defects
        return tuple(float(np.log2(d[k] / d[k + 1])) for k in range(len(d) - 1))


def convergence_orders(
    gs: GeneratorSet, grid: Grid, seed: int = 0, refinements: int = 2
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
        smooth_gauge_field(fine, gs.r, seed),
        smooth_multiplet_field(fine, gs.n, seed + 1),
        smooth_transform_field(gs, fine, seed + 2),
    )
    levels = []
    for level in range(refinements + 1):
        sites = (slice(None, None, 2 ** (refinements - level)),) * grid.dim
        a, psi, sigma = (np.ascontiguousarray(f[sites]) for f in fields)
        levels.append(covariance_defects(gs, grid.refined(2**level), a, psi, sigma))
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


def quadratic_expansion_check(
    model: HiggsModel,
    spec: SpectrumResult,
    eps: float,
    grid: Grid | None = None,
    seed: int = 0,
    delta_phi: np.ndarray | None = None,
    gauge: np.ndarray | None = None,
) -> ExpansionCheck:
    """Compare the full action density against its quadratic truncation.

    The scalar perturbation lives in the transverse (unitary gauge)
    subspace, so the gradient-orbit cross term cancels exactly and the
    remainder is third order in eps: halving eps divides it by ~8.
    A delta_phi with components along the orbit directions is rejected.
    """
    gs = model.generators
    v0 = model.vacuum
    if grid is None:
        grid = Grid(dim=2, shape=(8, 8), spacing=0.125)
    transverse = spec.transverse_basis  # (2n - d, 2n)
    if delta_phi is None:
        rng_base = 1000 * (seed + 1)
        weights = np.stack(
            [
                smooth_scalar_field(grid, rng_base + j, scale=1.0)
                for j in range(transverse.shape[0])
            ],
            axis=-1,
        )
        delta_phi = unrealify(weights @ transverse)
    else:
        delta_phi = np.asarray(delta_phi, dtype=complex)
        _check_grid_axes(grid, delta_phi, 1, "scalar perturbation")
        orbit_components = np.einsum(
            "ok,...k->...o", spec.orbit_basis, realify(delta_phi)
        )
        worst = float(np.max(np.abs(orbit_components))) if orbit_components.size else 0.0
        if worst > TOL_RANK * float(np.max(np.abs(delta_phi))):
            raise NotUnitaryGaugeError(
                f"perturbation has orbit components up to {worst:.3e}"
            )
    if gauge is None:
        gauge = smooth_gauge_field(grid, gs.r, 7777 + seed)
    else:
        gauge = np.asarray(gauge, dtype=float)
        _check_grid_axes(grid, gauge, 2, "gauge perturbation")

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
