"""Skew-Hermitian generator bases for compact symmetry actions on C^n.

Conventions used throughout the package:

* A symmetry algebra acts on each multiplet as a stack of r skew-Hermitian
  n x n matrices, a GeneratorSet: the Higgs multiplet and every fermion
  representation alike.  Coupling constants are folded into the matrices
  themselves, and the stored basis is declared orthonormal: inner products
  between algebra elements are plain Euclidean dot products of coefficient
  vectors.
* Complex vectors realify to interleaved real vectors,
  (v1, v2, ...) -> (Re v1, Im v1, Re v2, Im v2, ...).
"""
from __future__ import annotations

import itertools
import math
import random
from collections import namedtuple
from typing import NamedTuple

import numpy as np

__all__ = [
    "AlgebraElement",
    "GeneratorError",
    "GeneratorSet",
    "ValidationReport",
    "act",
    "expm_skew",
    "exponentiate",
    "random_algebra_element",
    "realify",
    "unrealify",
    "validate_generators",
]

# Real coefficient vector with respect to a GeneratorSet basis.
AlgebraElement = np.ndarray

# Relative tolerance of the algebra checks: skew-Hermiticity against max|X|,
# bracket closure against the brackets' own size, unitarity against 1.
TOL_ALG = 1e-10

# Rank cut: singular values at or below TOL_RANK times the largest count as zero.
TOL_RANK = 1e-8

# Sites per call of a stacked kernel (the unitary-gauge sweep, the lattice
# transforms): the (sites, n, n) temporaries scale with this, not with the grid.
SITE_BLOCK = 4096


def site_blocks(count: int) -> list[slice]:
    """Consecutive slices of SITE_BLOCK sites covering range(count).

    A lone last site joins the block before it: numpy's matmul takes a
    matrix-vector BLAS path for a single row, which rounds differently from
    the matrix-matrix one every other block takes.
    """
    starts = list(range(0, count, SITE_BLOCK))
    if len(starts) > 1 and count - starts[-1] == 1:
        starts.pop()
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [count])]


def _site_product(x: np.ndarray, y: np.ndarray, out: np.ndarray, term: np.ndarray) -> np.ndarray:
    """out = x y on site-last stacks, summed over the inner index in order.

    x is (n, m, ...) and y is (m, k, ...); their trailing axes, the sites
    last and contiguous, broadcast into out, (n, k, ...).  term is a buffer
    of the shape of one row of out.  Each call multiplies whole site
    vectors, so the per-matrix overhead that einsum and @ pay on stacks of
    2x2 and 3x3 matrices is paid once per entry instead, and a site's
    result does not depend on its block.
    """
    for i in range(len(out)):
        np.multiply(x[i, 0], y[0], out=out[i])
        for j in range(1, len(y)):
            np.multiply(x[i, j], y[j], out=term)
            out[i] += term
    return out


def _site_workspace(sites: int, *shapes: tuple[int, ...]) -> list[tuple[slice, list[np.ndarray]]]:
    """The site blocks of range(sites), each with contiguous site-last
    complex buffers of shape + (block length,), one per shape.

    One allocation, sized for the longest block, backs the buffers of every
    block, so a kernel that fills them with out= allocates nothing per block.
    """
    blocks = site_blocks(sites)
    width = max((b.stop - b.start for b in blocks), default=0)
    sizes = [math.prod(shape) for shape in shapes]
    flat = np.empty(sum(sizes) * width, dtype=complex)
    starts = [width * k for k in itertools.accumulate(sizes, initial=0)]
    workspace = []
    for block in blocks:
        length = block.stop - block.start
        buffers = [
            flat[lo : lo + size * length].reshape(shape + (length,))
            for lo, size, shape in zip(starts, sizes, shapes)
        ]
        workspace.append((block, buffers))
    return workspace


def _real(buf: np.ndarray) -> np.ndarray:
    """A float array of buf's shape in the first half of the contiguous buf's memory."""
    return buf.reshape(-1).view(float)[: buf.size].reshape(buf.shape)


class GeneratorError(ValueError):
    """Structural problem with a generator set or an algebra element."""


class GeneratorSet(namedtuple("GeneratorSet", "matrices")):
    """Basis of a compact symmetry algebra acting on C^n.

    Parameters
    ----------
    matrices : (r, n, n) complex ndarray
        One skew-Hermitian matrix per basis element, couplings folded in.
        Stored as a read-only copy.  Construction raises GeneratorError
        unless the skew defect is at most TOL_ALG times a finite `scale`,
        which also refuses NaN and infinite entries and finite entries
        whose moduli overflow.
    """

    __slots__ = ()

    def __new__(cls, matrices: np.ndarray):
        m = np.array(matrices, dtype=complex)
        if m.ndim != 3 or m.shape[1] != m.shape[2]:
            raise GeneratorError(
                f"generators must form an (r, n, n) stack, got shape {m.shape}"
            )
        if m.shape[0] == 0 or m.shape[1] == 0:
            raise GeneratorError("generator stack must be nonempty")
        m.setflags(write=False)
        gs = super().__new__(cls, m)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite defect or scale is refused below
            skew, scale = gs.skew_defect(), gs.scale
        if not skew <= TOL_ALG * scale < np.inf:
            if not scale < np.inf and np.all(np.isfinite(m)):
                raise GeneratorError("generator entries have moduli beyond the float range")
            raise GeneratorError(f"generators not skew-Hermitian (defect {skew:.3e})")
        return gs

    @property
    def r(self) -> int:
        return self.matrices.shape[0]

    @property
    def n(self) -> int:
        return self.matrices.shape[1]

    @property
    def scale(self) -> float:
        """max|X| over the generator entries, the scale of every algebra defect."""
        return float(np.max(np.abs(self.matrices)))

    def matrix_of(self, coeffs: AlgebraElement) -> np.ndarray:
        """The n x n matrices (..., n, n) of the elements with the given real
        coefficients (..., r): one matmul of the coefficient rows with the
        flattened basis."""
        c = np.asarray(coeffs, dtype=float)
        if c.shape[-1:] != (self.r,):
            raise GeneratorError(
                f"coefficient vectors must have shape (..., {self.r}), got {c.shape}"
            )
        flat = c.reshape(-1, self.r) @ self.matrices.reshape(self.r, -1)
        return flat.reshape(c.shape[:-1] + (self.n, self.n))

    def unit_basis(self) -> tuple[np.ndarray, np.ndarray]:
        """Exponents e (r,) and the unit basis g_i / 2^e_i (r, n, n): 2^e_i brings
        the largest real or imaginary part of g_i into [1/2, 1), and a zero
        generator keeps e_i = 0.  ldexp on the float view cannot overflow and is
        exact, so a coupling, which only rescales a generator, changes no
        decision taken on this basis."""
        flat = self.matrices.reshape(self.r, -1).view(float)
        e = np.frexp(np.max(np.abs(flat), axis=1))[1]
        return e, np.ldexp(flat, -e[:, None]).view(complex).reshape(self.matrices.shape)

    def project(self, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Project matrices onto the real span of the basis.

        Parameters
        ----------
        mats : (..., n, n) complex ndarray

        Returns
        -------
        coeffs : (..., r) real ndarray
        defect : (...) real ndarray
            Frobenius distance between each matrix and its projection.
        """
        e, unit = self.unit_basis()
        coeffs, defect = _project(unit, mats)
        return np.ldexp(coeffs, -e), defect

    def _brackets(self):
        """The unit basis's brackets [u_i, u_j], shape (r, r, n, n), and their
        projection (c', defect) onto the unit basis, with the exponents e:
        the basis's own are [g_i, g_j] = sum_k c'[i, j, k] 2^(e_i + e_j - e_k) g_k.
        Every entry stays near 1, whatever the couplings."""
        e, unit = self.unit_basis()
        prod = np.einsum("aij,bjk->abik", unit, unit)
        brackets = prod - np.transpose(prod, (1, 0, 2, 3))
        return (e, *_project(unit, brackets))

    def structure_constants(self) -> np.ndarray:
        """c with [g_i, g_j] = sum_k c[i, j, k] g_k.

        Raises GeneratorError if the closure defect exceeds TOL_ALG (the
        basis does not close under commutators).
        """
        e, c, defect = self._brackets()
        worst = float(np.max(defect))
        if not worst <= TOL_ALG:
            raise GeneratorError(f"brackets leave the generator span (defect {worst:.3e})")
        return np.ldexp(c, e[:, None, None] + e[None, :, None] - e)

    def skew_defect(self) -> float:
        """Largest entry of g_i + g_i^dagger over the basis."""
        m = self.matrices
        return float(np.max(np.abs(m + np.conj(np.transpose(m, (0, 2, 1))))))

    def closure_defect(self) -> float:
        """Largest Frobenius distance of a bracket of the unit basis from its span:
        scale-free, so every closure check reads it against a bare tolerance."""
        return float(np.max(self._brackets()[2]))


def _project(unit: np.ndarray, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients (..., r) of mats (..., n, n) on the unit basis (r, n, n) and
    their Frobenius distances from its span, by _coefficient_map."""
    r, n = unit.shape[:2]
    M = np.ascontiguousarray(mats, dtype=complex)
    if M.shape[-2:] != (n, n):
        raise GeneratorError(f"expected trailing shape ({n}, {n})")
    flat = M.reshape(-1, n * n)
    to_basis, inverse_gram = _coefficient_map(unit)
    coeffs = (flat.view(float) @ to_basis) @ inverse_gram
    resid = coeffs @ unit.reshape(r, -1)
    np.subtract(flat, resid, out=resid)
    lead = M.shape[:-2]
    return coeffs.reshape(lead + (r,)), np.linalg.norm(resid, axis=-1).reshape(lead)


def _coefficient_map(unit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(B, G^-1), the package's one coefficient formula: matrices whose (re, im)
    views are the rows of x have the coefficients (x @ B) @ G^-1 on the unit
    basis (r, n, n), B (2 n^2, r) its real view and G = B^T B, which must pass
    _require_independent.  On a diagonal G this rounds as a Gram solve does."""
    basis = unit.reshape(len(unit), -1).view(float)
    gram = basis @ basis.T
    _require_independent(gram)
    return basis.T, np.linalg.inv(gram)


def _require_independent(gram: np.ndarray) -> None:
    """Raise GeneratorError naming the first generator that is zero or lies in
    the span of those before it.

    Singular means an eigenvalue at or below TOL_RANK times the largest,
    judged on the unit basis's Gram matrix, whose nonzero diagonal entries
    lie in [1/4, 2 n^2]: couplings decades apart do not read as dependence,
    and no generator's square leaves the float range.
    """
    zero = np.flatnonzero(np.diag(gram) == 0.0)
    if zero.size:
        raise GeneratorError(f"generator {zero[0]} is zero")
    w = np.linalg.eigvalsh(gram)
    cut = TOL_RANK * w[-1]
    if w[0] > cut:
        return
    # the leading minors' smallest eigenvalues only fall as generators join
    first = next(i for i in range(1, len(gram)) if np.linalg.eigvalsh(gram[: i + 1, : i + 1])[0] <= cut)
    raise GeneratorError(f"generator {first} lies in the span of the generators before it")


class ValidationReport(NamedTuple):
    skew_defect: float
    closure_defect: float


def validate_generators(gs: GeneratorSet) -> ValidationReport:
    """Skew-Hermiticity and bracket closure defects of the basis."""
    return ValidationReport(gs.skew_defect(), gs.closure_defect())


def act(gs: GeneratorSet, coeffs: AlgebraElement, v: np.ndarray) -> np.ndarray:
    """Apply the algebra element with the given coefficients to v in C^n."""
    vec = np.asarray(v, dtype=complex)
    if vec.shape != (gs.n,):
        raise GeneratorError(f"vector must have shape ({gs.n},), got {vec.shape}")
    return gs.matrix_of(coeffs) @ vec


def safe_norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norms of real vectors over the last axis, scaled so that huge
    entries do not overflow; an infinite entry gives an infinite norm."""
    big = np.max(np.abs(x), axis=-1, initial=0.0)
    ok = np.isfinite(big) & (big > 0)
    unit = x / np.where(ok, big, 1.0)[..., None]
    return np.where(np.isfinite(big), big * np.sqrt(np.sum(unit * unit, axis=-1)), np.inf)


# exp of a skew-Hermitian matrix: Higham's scaling and squaring ("The scaling
# and squaring method for the matrix exponential revisited", SIAM J. Matrix
# Anal. Appl. 26, 2005) on the degree-12 Taylor polynomial, whose remainder at
# 1-norm TAYLOR_THETA, 0.25^13 / 13!, is 2e-18.  Each squaring about doubles
# the rounding error, so beyond MAX_SQUARINGS (a 1-norm above 16) unitarity
# would be lost past about 1e-13; such sites are diagonalised instead.
TAYLOR_THETA = 0.25
MAX_SQUARINGS = 6
_TAYLOR = tuple(1.0 / math.factorial(k) for k in range(13))


def _add_taylor_terms(out, c, x, x2, term):
    """out += c[0] + c[1] x + c[2] x^2 on site-last stacks, a row at a time through term."""
    for i in range(len(out)):
        out[i] += np.multiply(x[i], c[1], out=term)
        out[i] += np.multiply(x2[i], c[2], out=term)
        out[i, i] += c[0]


def _taylor(x, x2, x3, acc, out, term):
    """out = sum_{k <= 12} x^k / k! for a site-last stack x, by Paterson-Stockmeyer
    in powers of x^3 in five products:

        P0 + x^3 (P1 + x^3 (P2 + x^3 (P3 + x^3 / 12!))),  P_j = sum_{i < 3} x^i / (3j + i)!

    x2, x3 and acc are overwritten.
    """
    c = _TAYLOR
    _site_product(x, x, x2, term)
    _site_product(x2, x, x3, term)
    np.multiply(x3, c[12], out=acc)
    _add_taylor_terms(acc, c[9:12], x, x2, term)
    _add_taylor_terms(_site_product(x3, acc, out, term), c[6:9], x, x2, term)
    _add_taylor_terms(_site_product(x3, out, acc, term), c[3:6], x, x2, term)
    _add_taylor_terms(_site_product(x3, acc, out, term), c[0:3], x, x2, term)
    return out


def _expm_eigh(A: np.ndarray) -> np.ndarray:
    """exp(A) for a stack (..., n, n) of skew-Hermitian A: V diag(e^{iw}) V^dagger from
    the eigenpairs of H = -iA, symmetrised in place, (H + H^dagger) / 2."""
    H = -1j * np.asarray(A, dtype=complex)
    H += np.conj(np.swapaxes(H, -1, -2))
    H *= 0.5
    w, V = np.linalg.eigh(H)
    return (V * np.exp(1j * w)[..., None, :]) @ np.conj(np.swapaxes(V, -1, -2))


def _expm_skew_into(dest: np.ndarray, load) -> np.ndarray:
    """dest (sites, n, n) = exp(A) for a stack of skew-Hermitian A, which
    load(block, x) writes site-last into x, (n, n, block length), for each
    block of SITE_BLOCK sites in turn; one workspace serves the call.

    Each site takes the Taylor polynomial of A / 2^s squared s times, with
    s = max(0, ceil(log2(|A|_1 / TAYLOR_THETA))) from that site alone, so no
    site's result depends on the others or on its block; a site with
    s > MAX_SQUARINGS (|A|_1 > 16) is diagonalised instead.
    """
    n = dest.shape[-1]
    for block, (x, x2, x3, acc, power, term) in _site_workspace(len(dest), *[(n, n)] * 5, (n,)):
        load(block, x)
        norm = np.sum(np.abs(x, out=_real(acc)), axis=0).max(axis=0)
        mantissa, exponent = np.frexp(norm / TAYLOR_THETA)
        squarings = np.maximum(exponent - (mantissa == 0.5), 0)  # the ceil of log2, exactly
        far = squarings > MAX_SQUARINGS
        far_exp = _expm_eigh(x[..., far].transpose(2, 0, 1))
        squarings[far] = 0
        # scaling by a power of two is exact; the far sites drop out as zeros
        x *= np.where(far, 0.0, np.ldexp(1.0, -squarings))
        power = _taylor(x, x2, x3, acc, power, term)
        for k in range(1, squarings.max(initial=0) + 1):
            np.copyto(power, _site_product(power, power, acc, term), where=squarings >= k)
        dest[block] = power.transpose(2, 0, 1)
        dest[block][far] = far_exp
    return dest


def expm_skew(A: np.ndarray) -> np.ndarray:
    """exp(A) for a stack (..., n, n) of skew-Hermitian matrices (see _expm_skew_into)."""
    A = np.asarray(A, dtype=complex)
    flat = A.reshape((-1,) + A.shape[-2:])
    out = np.empty(flat.shape, dtype=complex)
    return _expm_skew_into(out, lambda block, x: np.copyto(x, flat[block].transpose(1, 2, 0))).reshape(A.shape)


def exponentiate(gs: GeneratorSet, coeffs: AlgebraElement) -> np.ndarray:
    """Group elements exp(X) of the elements with coefficients (..., r), by `expm_skew`.
    A GeneratorSet is skew-Hermitian to TOL_ALG by construction, so exp(X) is
    unitary to rounding and TOL_ALG |X|."""
    return expm_skew(gs.matrix_of(coeffs))


def realify(v: np.ndarray) -> np.ndarray:
    """Interleaved realification, (1+2j, 3) -> (1, 2, 3, 0).

    Acts on the last axis; an isometry from C^n to R^2n.
    """
    v = np.asarray(v, dtype=complex)
    out = np.empty(v.shape[:-1] + (2 * v.shape[-1],))
    out[..., 0::2] = v.real
    out[..., 1::2] = v.imag
    return out


def unrealify(x: np.ndarray) -> np.ndarray:
    """Inverse of realify; the last axis must have even length."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] % 2:
        raise GeneratorError("realified vectors have even length")
    return x[..., 0::2] + 1j * x[..., 1::2]


def random_algebra_element(gs: GeneratorSet, seed: int | random.Random) -> AlgebraElement:
    """Deterministic pseudo-random coefficient vector, N(0, 1) entries,
    drawn from the standard library's generator (a seed starts a fresh one)."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    return np.array([rng.gauss(0.0, 1.0) for _ in range(gs.r)])
