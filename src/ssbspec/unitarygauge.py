"""Pointwise unitary gauge: rotating field values onto the transverse slice.

A field value phi is in unitary gauge relative to a vacuum v0 when the
orbit-tangent (Goldstone) coordinates of phi - v0 all vanish, which
happens exactly when the fiber derivative s_i = Re <phi, g_i v0> is zero
along the broken directions.  The solver returns a group element U with
U phi on that slice and Re <v0, U phi> >= 0.

Strategy.  The critical points of the overlap f(U) = Re <v0, U phi> on
the group are exactly the unitary gauge configurations, so the solver
climbs f on G itself, from U = I: a Riemannian trust-region ascent
(Absil, Mahony & Sepulchre, Optimization Algorithms on Matrix Manifolds,
2008, ch. 7) with the retraction U -> exp(sum_i d_i a_i) U over the
broken basis a_i.  At psi = U phi the pulled-back overlap has gradient
-s and the symmetric Hessian H_ij = Re <v0, (a_i a_j + a_j a_i) psi> / 2
in closed form, so no derivative of exp is needed.  Each step maximises
that quadratic model within the site's radius, from one eigendecomposition
of H: the Newton step when H is negative definite and the step fits,
else the boundary solution of the secular equation, or in the hard case
(a critical point away from the target, such as the antipode -v0) a step
along the top eigenvector of H.  A trial is accepted on the ratio of the
actual to the predicted gain, and the radius (capped where exp of the
broken span stays well conditioned) follows that ratio; where the
predicted gain is below rounding, a trial is accepted when it lowers the
defect.  Sites are independent, so all sites of a block climb together,
each with its own radius: one stacked eigendecomposition of H and one of
the step per iteration.

Inputs are rescaled to the vacuum norm internally (the transform is
invariant under phi -> c phi because v0 is orthogonal to every orbit
direction), so the climb's scales are those of the vacuum, while reported
defects refer to the actual returned point.
"""
from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from .breaking import orbit_frame
from .liecore import GeneratorSet, expm_skew, realify, safe_norm, site_blocks

__all__ = [
    "DegeneratePointError",
    "GaugeFieldResult",
    "GaugePointResult",
    "GoldstoneCheck",
    "UnitaryGaugeConfig",
    "apply_unitary_gauge_field",
    "fiber_derivative",
    "goldstone_vanish_check",
    "solve_unitary_gauge_point",
]

EPS = np.finfo(float).eps
# a trial is accepted when its gain is at least ACCEPT times the predicted one;
# the radius shrinks below SHRINK and may grow above GROW
ACCEPT, SHRINK, GROW = 0.1, 0.25, 0.75
# the overlap rounds at about EPS * scale, so a predicted gain below
# GAIN_ROUNDING * scale cannot be told from the noise of the measured one
GAIN_ROUNDING = 64 * EPS
# cap on Newton's method for the secular equation, which converges
# monotonically and usually in a few steps
SECULAR_ITER = 60
# a site stops at a defect below MARGIN * tol: the quadratic convergence of
# its last steps then leaves the reported point well inside tol of the slice
MARGIN = 0.25


class DegeneratePointError(RuntimeError):
    """The solver cannot make progress from this field value."""


class UnitaryGaugeConfig(NamedTuple):
    tol: float = 1e-10
    max_iter: int = 50


def fiber_derivative(gs: GeneratorSet, v0: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """All r components s_i = Re <phi, g_i v0>.

    Components along exact stabilizer directions vanish identically.
    """
    acted = gs.matrices @ np.asarray(v0, dtype=complex)
    return np.real(acted @ np.conj(np.asarray(phi, dtype=complex)))


class _Frame(NamedTuple):
    """Broken-direction data at a fixed vacuum."""

    orbit: np.ndarray  # (d, 2n)
    alpha: np.ndarray  # (d, n, n)
    av0: np.ndarray  # (d, n)
    pair: np.ndarray  # (d, d, n): a_i a_j v0
    v0: np.ndarray
    trust: float  # largest step radius, keeping exp of the broken span well conditioned


def _build_frame(gs: GeneratorSet, v0: np.ndarray, _unused: object = None) -> _Frame:
    # the third argument is ignored; perfbench/test_perfbench.py still passes one
    v0 = np.asarray(v0, dtype=complex)
    of = orbit_frame(gs, v0)
    broken, orbit = of.vt[: of.rank], of.u[:, : of.rank].T
    alpha = np.einsum("dr,rij->dij", broken, gs.matrices)
    anorm = max((np.linalg.norm(a, 2) for a in alpha), default=0.0)
    trust = np.pi / (2.0 * anorm) if anorm > 0 else 1.0
    av0 = alpha @ v0
    pair = np.einsum("aij,bj->abi", alpha, av0)
    return _Frame(orbit=orbit, alpha=alpha, av0=av0, pair=pair, v0=v0, trust=trust)


def goldstone_vanish_check(
    gs: GeneratorSet,
    v0: np.ndarray,
    phi: np.ndarray,
    tol: float = 1e-10,
) -> "GoldstoneCheck":
    """Do the orbit-tangent coordinates of phi - v0 vanish?

    Equivalent to the fiber derivative vanishing along broken directions.
    """
    frame = _build_frame(gs, v0)
    xi = np.sqrt(2.0) * frame.orbit @ realify(np.asarray(phi, dtype=complex) - frame.v0)
    defect = float(np.max(np.abs(xi))) if xi.size else 0.0
    return GoldstoneCheck(ok=defect < tol, defect=defect, xi=xi)


class GoldstoneCheck(NamedTuple):
    ok: bool
    defect: float
    xi: np.ndarray


class GaugePointResult(NamedTuple):
    transform: np.ndarray  # (n, n) unitary group element
    point: np.ndarray  # transform @ phi
    goldstone_defect: float
    overlap: complex  # <v0, point>
    iterations: int


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis, summed as np.linalg.norm sums one
    vector, so a stack of one rounds as the scalar code did."""
    real, imag = x.real[..., None, :], x.imag[..., None, :]
    return np.sqrt((real @ np.swapaxes(real, -1, -2) + imag @ np.swapaxes(imag, -1, -2))[..., 0, 0])


def _defect_of(frame: _Frame, psi: np.ndarray) -> np.ndarray:
    """Largest orbit-tangent coordinate of psi - v0, per site."""
    xi = (np.sqrt(2.0) * frame.orbit @ realify(psi - frame.v0)[..., None])[..., 0]
    return np.max(np.abs(xi), axis=-1, initial=0.0)


def _overlap(frame: _Frame, psi: np.ndarray) -> np.ndarray:
    """Re <v0, psi> per site."""
    return np.real(np.einsum("k,...k->...", np.conj(frame.v0), psi))


def _residual(frame: _Frame, psi: np.ndarray) -> np.ndarray:
    """s_i = Re <psi, a_i v0> along the broken directions, per site: the overlap
    Re <v0, exp(sum_i d_i a_i) psi> has gradient -s at d = 0."""
    return np.real(np.einsum("...k,dk->...d", np.conj(psi), frame.av0))


def _overlap_hessian(frame: _Frame, psi: np.ndarray) -> np.ndarray:
    """Hessian Re <v0, (a_i a_j + a_j a_i) psi> / 2 of that overlap at d = 0,
    per site: the symmetric part of B_ij = Re <psi, a_i a_j v0>."""
    B = np.real(np.einsum("...k,abk->...ab", np.conj(psi), frame.pair))
    return 0.5 * (B + np.swapaxes(B, -1, -2))


def _subproblem(H: np.ndarray, s: np.ndarray, radius: np.ndarray, tiny: float) -> tuple[np.ndarray, np.ndarray]:
    """Maximise the model m(d) = -s.d + d.H.d / 2 over |d| <= radius, per site.

    In the eigenbasis H = Q diag(w) Q^T the maximiser is x_k = g_k / (mu - w_k)
    with g = -Q^T s and mu >= max(w_top, 0) the multiplier: the Newton step
    (mu = 0) when H is negative definite and that step fits; otherwise the
    boundary solution |x(mu)| = radius, found by Newton's method on
    1/|x(mu)| - 1/radius from below, where it converges monotonically; or, in
    the hard case (w_top > 0 but g has no component along it, and the rest of
    the step at mu = w_top fits inside), x(w_top) completed to the boundary
    along the top eigenvector.  Gradient components and eigenvalues at most
    tiny are rounding and count as zero.  Returns the steps d = Q x and the
    predicted gains m(d).
    """
    w, Q = np.linalg.eigh(H)
    g = -np.einsum("mji,mj->mi", Q, s)
    g[np.abs(g) <= tiny] = 0.0
    # mu = w_top + t: denominators t + gap, with zero gradient components
    # over a unit denominator so that they never divide by zero
    gap = w[:, -1:] - w + (g == 0)
    t = np.maximum(-w[:, -1], 0.0)
    pole = (t == 0) & np.any((g != 0) & (gap == 0), axis=-1)
    den = t[:, None] + gap
    x = g / np.where(den > 0, den, 1.0)
    norm = safe_norm(x)
    inside = ~pole & (norm <= radius)
    hard = inside & (w[:, -1] > tiny)
    x[hard, -1] = np.sqrt(radius[hard] ** 2 - norm[hard] ** 2)
    # secular equation: t from below, where |x_k| <= radius for every k
    live = np.flatnonzero(~inside)
    t[live] = np.maximum(t[live], np.max(np.abs(g[live]) / radius[live, None] - gap[live], axis=-1))
    for _ in range(SECULAR_ITER):
        if not live.size:
            break
        den = t[live, None] + gap[live]
        xl = g[live] / den
        norm = np.sqrt(np.sum(xl * xl, axis=-1))
        x[live] = xl * (radius[live] / norm)[:, None]
        far = np.abs(norm - radius[live]) > 1e-12 * radius[live]
        live, xl, den, norm = live[far], xl[far], den[far], norm[far]
        slope = np.sum(xl * xl / den, axis=-1) / norm**3
        t[live] -= (1.0 / norm - 1.0 / radius[live]) / slope
    gain = np.sum(g * x, axis=-1) + 0.5 * np.sum(w * x * x, axis=-1)
    return np.einsum("mij,mj->mi", Q, x), gain


class _Climb(NamedTuple):
    """The state of a stack of sites: group elements, points and measures."""

    U: np.ndarray  # (m, n, n)
    psi: np.ndarray  # (m, n): U @ work
    z: np.ndarray  # Re <v0, psi>
    defect: np.ndarray


def _at(frame: _Frame, work: np.ndarray, U: np.ndarray) -> _Climb:
    psi = (U @ work[..., None])[..., 0]
    return _Climb(U, psi, _overlap(frame, psi), _defect_of(frame, psi))


def _trust_step(
    frame: _Frame, work: np.ndarray, cur: _Climb, radius: np.ndarray, fscale: float
) -> tuple[np.ndarray, _Climb, np.ndarray]:
    """One trust-region iteration for a stack of sites.

    Returns the mask of accepted trials, the trial state and the new radii.
    """
    step, gain = _subproblem(
        _overlap_hessian(frame, cur.psi),
        _residual(frame, cur.psi),
        radius,
        EPS * fscale,
    )
    trial = _at(frame, work, expm_skew(np.einsum("md,dij->mij", step, frame.alpha)) @ cur.U)
    rounding = gain < GAIN_ROUNDING * fscale  # too small to measure
    ratio = (trial.z - cur.z) / np.where(rounding, 1.0, gain)
    accept = np.where(rounding, trial.defect < cur.defect, ratio >= ACCEPT)
    at_edge = safe_norm(step) >= (1 - 1e-6) * radius
    grown = np.where((ratio > GROW) & at_edge, np.minimum(2.0 * radius, frame.trust), radius)
    radius = np.where(rounding, np.where(accept, radius, 0.25 * radius), np.where(ratio < SHRINK, 0.25 * radius, grown))
    return accept, trial, radius


def _site_norms(phi: np.ndarray, where: Callable[[int], str]) -> np.ndarray:
    """|phi| per site of a stack (m, n); a zero or non-finite norm raises
    DegeneratePointError, prefixed by where(k) for the first such site k."""
    pnrm = _norms(phi)
    bad = np.flatnonzero(~(np.isfinite(pnrm) & (pnrm > 0)))
    if bad.size:
        k = int(bad[0])
        raise DegeneratePointError(
            f"{where(k)}field value has norm {pnrm[k]}; it must be finite and nonzero"
        )
    return pnrm


def _solve_stack(
    frame: _Frame,
    phi: np.ndarray,
    pnrm: np.ndarray,
    config: UnitaryGaugeConfig,
    where: Callable[[int], str],
) -> tuple[np.ndarray, ...]:
    """Unitary gauge for a stack of values phi (m, n) with norms pnrm, all at once.

    Every site climbs from U = I until its point is transverse (defect below
    tol, on the scale of phi as well as of the vacuum) with a nonnegative
    overlap.  Returns the transforms, points, defects and iterations.  A site
    that uses up max_iter, or whose radius collapses, raises
    DegeneratePointError, prefixed by where(k) for the first such site k.
    """
    m, n = phi.shape
    if not frame.alpha.shape[0]:
        transforms = np.broadcast_to(np.eye(n, dtype=complex), (m, n, n)).copy()
        return transforms, phi, np.zeros(m), np.zeros(m, dtype=int)
    vnrm = float(np.linalg.norm(frame.v0))
    work = phi * (vnrm / pnrm)[:, None]
    tol = MARGIN * config.tol * np.minimum(1.0, vnrm / pnrm)
    fscale = max(1.0, vnrm * vnrm)
    cur = _at(frame, work, np.broadcast_to(np.eye(n, dtype=complex), (m, n, n)).copy())
    radius = np.full(m, frame.trust)
    iterations = np.zeros(m, dtype=int)
    live = np.arange(m)
    failure = None
    for it in range(config.max_iter + 1):
        done = (cur.defect[live] < tol[live]) & (cur.z[live] >= -config.tol * fscale)
        iterations[live[done]] = it
        live = live[~done]
        out = live[radius[live] < EPS * frame.trust] if it < config.max_iter else live
        if out.size:
            k = int(out[0])
            cause = "trust radius collapsed" if it < config.max_iter else f"no convergence in {it} iterations"
            failure = (k, f"{cause} (goldstone defect {cur.defect[k]:.3e}, overlap {cur.z[k]:.3e})")
            # a site after a failed one cannot be the first failure
            live = live[live < k]
        if not live.size:
            break
        accept, trial, radius[live] = _trust_step(frame, work[live], _Climb(*(a[live] for a in cur)), radius[live], fscale)
        for old, new in zip(cur, trial):
            old[live[accept]] = new[accept]
    if failure is not None:
        raise DegeneratePointError(f"{where(failure[0])}{failure[1]}")
    points = (cur.U @ phi[..., None])[..., 0]
    return cur.U, points, _defect_of(frame, points), iterations


def solve_unitary_gauge_point(
    gs: GeneratorSet,
    v0: np.ndarray,
    phi: np.ndarray,
    config: UnitaryGaugeConfig = UnitaryGaugeConfig(),
) -> GaugePointResult:
    """Rotate one field value into unitary gauge.

    Returns a group element U, the rotated value U phi, and its residual
    Goldstone defect.  The point is transverse with Re <v0, point> >= 0 (to
    tol), reached by climbing that overlap from U = I: for the doublet the
    one with Re <v0, point> maximal.  Where the slice meets an orbit at
    several such points (larger representations) the one reached depends
    only on the value.  This is the field solver run on a stack of one site.
    """
    phi = np.asarray(phi, dtype=complex)[None]
    pnrm = _site_norms(phi, lambda k: "")
    frame = _build_frame(gs, v0)
    U, point, defect, iterations = _solve_stack(frame, phi, pnrm, config, lambda k: "")
    return GaugePointResult(
        transform=U[0],
        point=point[0],
        goldstone_defect=float(defect[0]),
        overlap=complex(np.vdot(frame.v0, point[0])),
        iterations=int(iterations[0]),
    )


class GaugeFieldResult(NamedTuple):
    transforms: np.ndarray  # (*shape, n, n)
    transformed: np.ndarray  # (*shape, n)
    defects: np.ndarray  # (*shape,)
    iterations: np.ndarray  # (*shape,)

    @property
    def max_defect(self) -> float:
        return float(self.defects.max())


def apply_unitary_gauge_field(
    gs: GeneratorSet,
    v0: np.ndarray,
    field: np.ndarray,
    config: UnitaryGaugeConfig = UnitaryGaugeConfig(),
) -> GaugeFieldResult:
    """Solve the pointwise problem across a grid field.

    Sites are independent: all are solved together, in blocks of
    liecore.SITE_BLOCK, each starting from U = I, so a site's result does
    not depend on its neighbours or on their order.  A zero or non-finite
    value, or a site that fails, raises DegeneratePointError naming the first
    such site in lexicographic order; values are checked before any is solved.
    """
    field = np.asarray(field, dtype=complex)
    if field.shape[-1] != gs.n:
        raise ValueError(f"field must have {gs.n} components on the last axis")
    shape = field.shape[:-1]
    flat = field.reshape(-1, gs.n)

    def site(k: int) -> str:
        return f"site {tuple(int(i) for i in np.unravel_index(k, shape))}: "

    pnrm = _site_norms(flat, site)
    frame = _build_frame(gs, v0)
    m, n = flat.shape
    transforms = np.empty((m, n, n), dtype=complex)
    transformed = np.empty((m, n), dtype=complex)
    defects = np.empty(m)
    iterations = np.empty(m, dtype=int)
    for block in site_blocks(m):
        (transforms[block], transformed[block], defects[block], iterations[block]) = _solve_stack(
            frame, flat[block], pnrm[block], config, lambda k: site(block.start + k)
        )
    return GaugeFieldResult(
        transforms=transforms.reshape(shape + (n, n)),
        transformed=transformed.reshape(shape + (n,)),
        defects=defects.reshape(shape),
        iterations=iterations.reshape(shape),
    )
