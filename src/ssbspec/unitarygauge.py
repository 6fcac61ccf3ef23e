"""Pointwise unitary gauge: rotating field values onto the transverse slice.

A field value phi is in unitary gauge relative to a vacuum v0 when the
orbit-tangent (Goldstone) coordinates of phi - v0 all vanish, which
happens exactly when the fiber derivative s_i = Re <phi, g_i v0> is zero
along the broken directions.  The solver returns U = exp(sum_i t_i a_i)
over the broken basis with U phi on that slice.

Strategy.  Newton steps on the residual s(t) with exact Jacobians (the
closed-form Daleckii-Krein derivatives of exp over one eigendecomposition
of the skew-Hermitian A(t)), globalized by climbing the overlap
Re <v0, U(t) phi>: its critical points are exactly the unitary gauge
configurations, and the climb ends at one whose component along v0 is
real and nonnegative.  Steps are capped at a trust radius so iterates
stay where the single-exponential chart is well conditioned.  The sites
of a field are independent, so this chart iteration runs on all of them
at once, each from t = 0: one stacked eigendecomposition per trial step,
with a step length per site.  A site can still stall, at rotations close
to the chart's folds or at a critical point away from the target; the
solver then locates its target value by iterating directly on the group
(recentering the expansion at the identity each step, which has no
folds) and lifts the accumulated group element back into the chart:
Gauss-Newton starts from the broken-span part of its matrix logarithm,
and, when the stabilizer of phi is one dimensional, from the twist of
the element by that stabilizer whose logarithm lies closest to the
broken span.  This fallback runs one site at a time.

Inputs are rescaled to the vacuum norm internally (the coefficients t
solving the problem are invariant under phi -> c phi because v0 is
orthogonal to every orbit direction), so convergence tolerances are
relative to the vacuum scale while reported defects refer to the actual
returned point.
"""
from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from .breaking import SpectrumResult, orbit_frame
from .liecore import GeneratorSet, exp_of_eigh, expm_skew, realify, site_blocks, skew_eigh

__all__ = [
    "BrokenHessian",
    "DegeneratePointError",
    "GaugeFieldResult",
    "GaugePointResult",
    "GoldstoneCheck",
    "UnitaryGaugeConfig",
    "apply_unitary_gauge_field",
    "broken_hessian",
    "fiber_derivative",
    "goldstone_vanish_check",
    "solve_unitary_gauge_point",
]

ARMIJO = 1e-4


class DegeneratePointError(RuntimeError):
    """The solver cannot make progress from this field value."""


class UnitaryGaugeConfig(NamedTuple):
    tol: float = 1e-10
    max_iter: int = 50
    endgame: float = 1e-6  # defect level below which steps backtrack on |s| only


def fiber_derivative(gs: GeneratorSet, v0: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """All r components s_i = Re <phi, g_i v0>.

    Components along exact stabilizer directions vanish identically.
    """
    acted = gs.matrices @ np.asarray(v0, dtype=complex)
    return np.real(acted @ np.conj(np.asarray(phi, dtype=complex)))


class _Frame(NamedTuple):
    """Broken-direction data at a fixed vacuum."""

    broken: np.ndarray  # (d, r)
    orbit: np.ndarray  # (d, 2n)
    alpha: np.ndarray  # (d, n, n)
    av0: np.ndarray  # (d, n)
    v0: np.ndarray
    trust: float  # step cap keeping exp(A(t)) well conditioned


def _build_frame(gs: GeneratorSet, v0: np.ndarray, spec: SpectrumResult | None) -> _Frame:
    v0 = np.asarray(v0, dtype=complex)
    if spec is not None:
        broken, orbit = spec.broken, spec.orbit_basis
    else:
        of = orbit_frame(gs, v0)
        broken, orbit = of.vt[: of.rank], of.u[:, : of.rank].T
    alpha = np.einsum("dr,rij->dij", broken, gs.matrices)
    anorm = max((np.linalg.norm(a, 2) for a in alpha), default=0.0)
    trust = np.pi / (2.0 * anorm) if anorm > 0 else 1.0
    return _Frame(broken=broken, orbit=orbit, alpha=alpha, av0=alpha @ v0, v0=v0, trust=trust)


def goldstone_vanish_check(
    gs: GeneratorSet,
    v0: np.ndarray,
    phi: np.ndarray,
    tol: float = 1e-10,
    spec: SpectrumResult | None = None,
) -> "GoldstoneCheck":
    """Do the orbit-tangent coordinates of phi - v0 vanish?

    Equivalent to the fiber derivative vanishing along broken directions.
    """
    frame = _build_frame(gs, v0, spec)
    xi = np.sqrt(2.0) * frame.orbit @ realify(np.asarray(phi, dtype=complex) - frame.v0)
    defect = float(np.max(np.abs(xi))) if xi.size else 0.0
    return GoldstoneCheck(ok=defect < tol, defect=defect, xi=xi)


class GoldstoneCheck(NamedTuple):
    ok: bool
    defect: float
    xi: np.ndarray


class BrokenHessian(NamedTuple):
    """Symmetrized matrix B_ij = Re <phi, a_i a_j v0> on broken directions.

    Exactly symmetric on the unitary gauge slice; the recorded asymmetry
    is a diagnostic for how far off the slice the point sits.
    """

    matrix: np.ndarray
    asymmetry: float


def broken_hessian(
    gs: GeneratorSet,
    v0: np.ndarray,
    phi: np.ndarray,
    spec: SpectrumResult | None = None,
) -> BrokenHessian:
    frame = _build_frame(gs, v0, spec)
    pair = np.einsum("aij,bj->abi", frame.alpha, frame.av0)  # a_a a_b v0
    B = np.real(np.einsum("i,abi->ab", np.conj(np.asarray(phi, dtype=complex)), pair))
    asym = float(np.max(np.abs(B - B.T))) if B.size else 0.0
    return BrokenHessian(matrix=0.5 * (B + B.T), asymmetry=asym)


class GaugePointResult(NamedTuple):
    transform: np.ndarray  # (n, n) unitary, exp over broken directions
    point: np.ndarray  # transform @ phi
    coeffs: np.ndarray  # (d,) exponential coordinates on the broken basis
    goldstone_defect: float
    overlap: complex  # <v0, point>
    iterations: int


def _phi_of(frame: _Frame, phi: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
    """U = exp(A(t)), U phi, and the eigenpairs of A(t) that `_tangents` takes,
    for one site or a stack of them (t of shape (..., d), phi of shape (..., n))."""
    eig = skew_eigh(np.einsum("...d,dij->...ij", t, frame.alpha))
    U = exp_of_eigh(*eig)
    return U, (U @ phi[..., None])[..., 0], eig


def _tangents(frame: _Frame, eig: tuple, phi: np.ndarray) -> np.ndarray:
    """d/dt_j exp(A(t)) phi for each broken direction j, shape (..., d, n).

    Daleckii-Krein, from eig = (w, V) with A(t) = V diag(iw) V^dagger: the
    derivative along a_j is V (G o (V^dagger a_j V)) V^dagger, where
    G_jk = (e^{iw_j} - e^{iw_k}) / (iw_j - iw_k) = e^{i(w_j+w_k)/2} sinc((w_j-w_k)/2)
    needs no special case at equal eigenvalues.
    """
    w, V = eig
    wj, wk = w[..., :, None], w[..., None, :]
    G = np.exp(0.5j * (wj + wk)) * np.sinc((wj - wk) / (2.0 * np.pi))
    Vh = np.conj(np.swapaxes(V, -1, -2))
    V, Vh, G = V[..., None, :, :], Vh[..., None, :, :], G[..., None, :, :]
    return (V @ (G * (Vh @ frame.alpha @ V)) @ (Vh @ phi[..., None, :, None]))[..., 0]


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis, summed as np.linalg.norm sums one
    vector, so a stack of one rounds as the scalar code did."""
    real, imag = x.real[..., None, :], x.imag[..., None, :]
    return np.sqrt((real @ np.swapaxes(real, -1, -2) + imag @ np.swapaxes(imag, -1, -2))[..., 0, 0])


def _defect_of(frame: _Frame, phi_t: np.ndarray) -> np.ndarray:
    """Largest orbit-tangent coordinate of phi_t - v0, per site."""
    xi = (np.sqrt(2.0) * frame.orbit @ realify(phi_t - frame.v0)[..., None])[..., 0]
    return np.max(np.abs(xi), axis=-1, initial=0.0)


def _overlap_hessian(frame: _Frame, phi_t: np.ndarray) -> np.ndarray:
    pair = np.einsum("aij,bjk,k->abi", frame.alpha, frame.alpha, phi_t)
    H = np.real(np.einsum("i,abi->ab", np.conj(frame.v0), pair))
    return 0.5 * (H + H.T)


def _capped(direction: np.ndarray, trust: float) -> np.ndarray:
    """Rows of direction shortened to length trust without overflow; a non-finite
    row (an overflowed solve) becomes a null step, which line searches reject."""
    big = np.max(np.abs(direction), axis=-1, keepdims=True, initial=0.0)
    finite = np.isfinite(big)
    direction = np.where(finite, direction, 0.0)
    big = np.where(finite, big, 0.0)
    unit = direction / np.where(big > 0, big, 1.0)
    dn = _norms(unit)[..., None]
    return np.where(big * dn > trust, unit * (trust / np.where(dn > 0, dn, 1.0)), direction)


def _residual(frame: _Frame, phi_t: np.ndarray) -> np.ndarray:
    """s_i = Re <phi_t, a_i v0> along the broken directions, per site."""
    return np.real(np.conj(phi_t) @ frame.av0.T)


def _jacobian(frame: _Frame, dphi: np.ndarray) -> np.ndarray:
    """J_ij = ds_i/dt_j = Re <dphi_j, a_i v0> from the tangents dphi, per site."""
    return np.real(np.einsum("...jn,in->...ij", np.conj(dphi), frame.av0))


def _newton_directions(J: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows solve(J, -s) for a stack, and the mask of singular J (rows left 0)."""
    singular = np.zeros(len(s), dtype=bool)
    try:
        return np.linalg.solve(J, -s[..., None])[..., 0], singular
    except np.linalg.LinAlgError:
        direction = np.zeros_like(s)
        for k in range(len(s)):
            try:
                direction[k] = np.linalg.solve(J[k], -s[k])
            except np.linalg.LinAlgError:
                singular[k] = True
        return direction, singular


def _endgame_step(frame: _Frame, J: np.ndarray, s: np.ndarray, move):
    """Newton step on s = 0 backtracked on |s|, for overlap gains below rounding:
    (step, *move(step)) with move(step) as `_phi_of` gives it, or None."""
    try:
        direction = np.linalg.solve(J, -s)
    except np.linalg.LinAlgError:
        direction = -J.T @ s
    direction = _capped(direction, frame.trust)
    snorm = float(np.linalg.norm(s))
    lam = 1.0
    for _ in range(40):
        moved = move(lam * direction)
        if float(np.linalg.norm(_residual(frame, moved[1]))) <= (1 - ARMIJO * lam) * snorm:
            return (lam * direction, *moved)
        lam *= 0.5
    return None


def _backtrack(
    frame: _Frame,
    work: np.ndarray,
    t: np.ndarray,
    direction: np.ndarray,
    endgame: np.ndarray,
    snorm: np.ndarray,
    z: np.ndarray,
    slope: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
    """Armijo backtracking from t along direction for a stack of sites at once.

    Each site halves its own step length until the step is accepted: on |s|
    (at most 40 halvings) where endgame is set, else on the overlap, which
    must gain ARMIJO * lam * slope (at most 30).  Returns the mask of
    accepted sites and, in the rows of those, t + lam direction, U phi and
    the eigenpairs of A there.
    """
    m, n = work.shape
    t, phi_t = t.copy(), np.empty((m, n), dtype=complex)
    w, V = np.empty((m, n)), np.empty((m, n, n), dtype=complex)
    halvings = np.where(endgame, 40, 30)
    lam = np.ones(m)
    moved = np.zeros(m, dtype=bool)
    for k in range(40):
        p = np.flatnonzero(~moved & (halvings > k))
        if not p.size:
            break
        t_try = t[p] + lam[p, None] * direction[p]
        _, phi_try, (w_try, V_try) = _phi_of(frame, work[p], t_try)
        ok = np.where(
            endgame[p],
            _norms(_residual(frame, phi_try)) <= (1 - ARMIJO * lam[p]) * snorm[p],
            np.real(phi_try @ np.conj(frame.v0)) >= z[p] + ARMIJO * lam[p] * slope[p],
        )
        q = p[ok]
        t[q], phi_t[q], w[q], V[q] = t_try[ok], phi_try[ok], w_try[ok], V_try[ok]
        moved[q] = True
        lam[p[~ok]] *= 0.5
    return moved, t, phi_t, (w, V)


def _chart_newton(
    frame: _Frame, work: np.ndarray, t: np.ndarray, config: UnitaryGaugeConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Newton ascent in the fixed chart t -> exp(A(t)) for a stack of sites at once.

    Each site climbs the overlap Re <v0, U phi>: a Newton step on s(t) = 0
    when it climbs, else a gradient step, each backtracked with the site's
    own step length.  Once its defect is below the endgame level with the
    overlap positive, a site takes Newton steps backtracked on |s|.  A site
    stalls when no step is accepted (a critical point away from the target
    needs the curvature escape of the orbit climb) or when max_iter steps
    leave it unconverged.  Returns the coefficients, the iterations of each
    site and the mask of stalled sites.
    """
    t = np.array(t, dtype=float)
    fscale = np.maximum(1.0, _norms(frame.v0) * _norms(work))
    _, phi_t, (w, V) = _phi_of(frame, work, t)
    iterations = np.full(len(work), config.max_iter)
    live = np.arange(len(work))
    for it in range(config.max_iter):
        defect = _defect_of(frame, phi_t[live])
        z = np.real(phi_t[live] @ np.conj(frame.v0))
        done = (defect < config.tol) & (z >= -config.tol * fscale[live])
        iterations[live[done]] = it
        live, defect, z = live[~done], defect[~done], z[~done]
        if not live.size:
            break
        dphi = _tangents(frame, (w[live], V[live]), work[live])
        s, J = _residual(frame, phi_t[live]), _jacobian(frame, dphi)
        snorm = _norms(s)
        grad_f = np.real(dphi @ np.conj(frame.v0))
        newton, singular = _newton_directions(J, s)
        # below the endgame level the overlap's gain is below rounding: backtrack on |s|
        endgame = (defect < config.endgame * fscale[live]) & (z > 0)
        fix = endgame & singular
        newton[fix] = -np.einsum("mji,mj->mi", J[fix], s[fix])
        # as in the orbit climb: a gradient below rounding cannot climb off a
        # non-target critical point
        ascent = ~endgame & ((z >= 0) | (_norms(grad_f) > np.finfo(float).eps * fscale[live]))
        moved = np.zeros(len(live), dtype=bool)
        for direction, usable in ((newton, endgame | (ascent & ~singular)), (grad_f, ascent)):
            direction = _capped(direction, frame.trust)
            slope = np.einsum("md,md->m", grad_f, direction)
            p = np.flatnonzero(usable & ~moved & (endgame | (slope > 0)))
            ok, t_new, phi_new, (w_new, V_new) = _backtrack(
                frame, work[live[p]], t[live[p]], direction[p], endgame[p], snorm[p], z[p], slope[p]
            )
            q = live[p[ok]]
            t[q], phi_t[q], w[q], V[q] = t_new[ok], phi_new[ok], w_new[ok], V_new[ok]
            moved[p[ok]] = True
        live = live[moved]
    return t, iterations, iterations == config.max_iter


def _group_normalize(
    frame: _Frame, phi: np.ndarray, config: UnitaryGaugeConfig
) -> tuple[np.ndarray, np.ndarray, int]:
    """Climb the overlap on the orbit itself, recentering at the identity.

    Free of chart folds; returns the target value psi, the accumulated
    group element U_acc with U_acc phi = psi, and the iteration count.
    """
    psi = phi.astype(complex)
    U_acc = np.eye(len(phi), dtype=complex)
    fscale = max(1.0, float(np.linalg.norm(frame.v0) * np.linalg.norm(phi)))
    tol = 0.05 * config.tol
    for it in range(4 * config.max_iter):
        z = float(np.vdot(frame.v0, psi).real)
        if _defect_of(frame, psi) < tol and z >= -tol * fscale:
            return psi, U_acc, it
        s = _residual(frame, psi)
        snorm = float(np.linalg.norm(s))
        J = _jacobian(frame, frame.alpha @ psi)
        if snorm < config.endgame * fscale and z > 0:
            # as in the chart: step rounding outweighs the Armijo gain; backtrack on |s|
            got = _endgame_step(frame, J, s, lambda step: _phi_of(frame, psi, step))
            if got is not None:
                psi, U_acc = got[2], got[1] @ U_acc
                continue
        stepped = False
        candidates = []
        # a gradient below rounding cannot climb off a non-target critical
        # point (z < 0); its line search would accept null steps forever
        if z >= 0 or snorm > np.finfo(float).eps * fscale:
            try:
                candidates.append(np.linalg.solve(J, -s))
            except np.linalg.LinAlgError:
                pass
            # near a critical point gradient steps only creep (off a saddle
            # they shrink with |s|); leave it to Newton or the curvature escape
            if snorm > config.endgame * fscale:
                candidates.append(-s)  # steepest ascent of the overlap at the identity
        for direction in candidates:
            direction = _capped(direction, frame.trust)
            slope = float(-s @ direction)
            if slope <= 0:
                continue
            lam = 1.0
            for _ in range(40):
                E, cand, _ = _phi_of(frame, psi, lam * direction)
                if float(np.vdot(frame.v0, cand).real) >= z + ARMIJO * lam * slope:
                    psi, U_acc, stepped = cand, E @ U_acc, True
                    break
                lam *= 0.5
            if stepped:
                break
        if stepped:
            continue
        w, W = np.linalg.eigh(_overlap_hessian(frame, psi))
        if w[-1] <= 0:
            raise DegeneratePointError("stalled at a non-target critical configuration")
        for direction in (W[:, -1], -W[:, -1]):
            lam = frame.trust
            for _ in range(40):
                E, cand, _ = _phi_of(frame, psi, lam * direction)
                if float(np.vdot(frame.v0, cand).real) > z + 1e-14 * fscale:
                    psi, U_acc, stepped = cand, E @ U_acc, True
                    break
                lam *= 0.5
            if stepped:
                break
        if not stepped:
            raise DegeneratePointError("no ascent direction at a degenerate configuration")
    raise DegeneratePointError("orbit climb did not converge")


def _gauss_newton_to(
    frame: _Frame,
    phi: np.ndarray,
    t: np.ndarray,
    target: np.ndarray,
    tol_h: float,
    budget: int,
) -> tuple[np.ndarray, bool, int]:
    """Damped Gauss-Newton for exp(A(t)) phi = target, from the given t."""
    t = np.array(t, dtype=float)
    _, phi_t, eig = _phi_of(frame, phi, t)
    spent = 0
    for _ in range(budget):
        spent += 1
        h = realify(phi_t - target)
        hn = float(np.linalg.norm(h))
        if hn < tol_h:
            return t, True, spent
        dphi = _tangents(frame, eig, phi)
        direction, *_ = np.linalg.lstsq(realify(dphi).T, -h, rcond=None)
        direction = _capped(direction, frame.trust)
        lam = 1.0
        stepped = False
        for _ in range(40):
            t_try = t + lam * direction
            _, phi_try, eig_try = _phi_of(frame, phi, t_try)
            if float(np.linalg.norm(realify(phi_try - target))) <= (1 - ARMIJO * lam) * hn:
                t, phi_t, eig, stepped = t_try, phi_try, eig_try, True
                break
            lam *= 0.5
        if not stepped:
            return t, False, spent
    return t, float(np.linalg.norm(realify(phi_t - target))) < tol_h, spent


def _log_unitary(U: np.ndarray) -> np.ndarray:
    """Principal logarithm V diag(i angle(w)) V^-1 of a unitary U = V diag(w) V^-1."""
    w, V = np.linalg.eig(U)
    return (V * (1j * np.angle(w))) @ np.linalg.inv(V)


def _lift(
    gs: GeneratorSet,
    frame: _Frame,
    phi: np.ndarray,
    psi_star: np.ndarray,
    U_acc: np.ndarray,
    config: UnitaryGaugeConfig,
) -> tuple[np.ndarray | None, int]:
    """Chart coefficients t with exp(A(t)) phi = psi_star, given U_acc phi = psi_star.

    Gauss-Newton starts from the broken-span part of log U_acc.  If that
    fails and the stabilizer of phi (within the generator span) is one
    dimensional, spanned by Z0, then U_acc exp(tau Z0) sends phi to
    psi_star for every tau; a scan looks for the tau whose logarithm has
    the least component outside the broken span, and Gauss-Newton starts
    again from there.  Returns t (None on failure) and the Gauss-Newton
    iterations spent.
    """
    scale = max(1.0, float(np.linalg.norm(psi_star)))

    def log_coeffs(U: np.ndarray) -> tuple[np.ndarray, float]:
        c = gs.project(_log_unitary(U)[None, :, :])[0][0]
        return c, float(np.linalg.norm(c - frame.broken.T @ (frame.broken @ c)))

    def gauss_newton_from(c: np.ndarray) -> tuple[np.ndarray, bool, int]:
        return _gauss_newton_to(
            frame, phi, frame.broken @ c, psi_star, 0.25 * config.tol * scale, 2 * config.max_iter
        )

    t, ok, spent = gauss_newton_from(log_coeffs(U_acc)[0])
    if ok:
        return t, spent
    at_phi = orbit_frame(gs, phi)
    if gs.r - at_phi.rank != 1:
        return None, spent
    Z0 = np.einsum("r,rij->ij", at_phi.vt[-1], gs.matrices)
    rho = float(np.max(np.abs(np.linalg.eigvals(Z0))))
    period = 4.0 * np.pi / rho if rho > 0 else 2.0 * np.pi

    def twisted(tau: float) -> tuple[np.ndarray, float]:
        return log_coeffs(U_acc @ expm_skew(tau * Z0))

    taus = np.linspace(0.0, period, 257)
    i_min = int(np.argmin([twisted(tau)[1] for tau in taus]))
    lo = taus[max(0, i_min - 1)]
    hi = taus[min(len(taus) - 1, i_min + 1)]
    for _ in range(120):
        m1 = lo + 0.382 * (hi - lo)
        m2 = lo + 0.618 * (hi - lo)
        if twisted(m1)[1] <= twisted(m2)[1]:
            hi = m2
        else:
            lo = m1
    t, ok, used = gauss_newton_from(twisted(0.5 * (lo + hi))[0])
    return (t if ok else None), spent + used


def _polish(
    frame: _Frame, work: np.ndarray, t: np.ndarray, config: UnitaryGaugeConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A few plain Newton steps pushing accepted residuals well below tol, for a
    stack of sites; a site stops at its first step that does not lower its defect."""
    t = np.array(t, dtype=float)
    U, phi_t, (w, V) = _phi_of(frame, work, t)
    live = np.arange(len(work))
    for _ in range(4):
        defect = _defect_of(frame, phi_t[live])
        keep = defect >= 5e-3 * config.tol
        live, defect = live[keep], defect[keep]
        if not live.size:
            break
        dphi = _tangents(frame, (w[live], V[live]), work[live])
        direction, singular = _newton_directions(_jacobian(frame, dphi), _residual(frame, phi_t[live]))
        t_try = t[live] + direction
        U_try, phi_try, (w_try, V_try) = _phi_of(frame, work[live], t_try)
        ok = ~singular & (_defect_of(frame, phi_try) < defect)
        live = live[ok]
        t[live], U[live], phi_t[live] = t_try[ok], U_try[ok], phi_try[ok]
        w[live], V[live] = w_try[ok], V_try[ok]
    return t, U, phi_t


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
    gs: GeneratorSet,
    frame: _Frame,
    phi: np.ndarray,
    pnrm: np.ndarray,
    t0: np.ndarray,
    config: UnitaryGaugeConfig,
    where: Callable[[int], str],
) -> tuple[np.ndarray, ...]:
    """Unitary gauge for a stack of values phi (m, n) with norms pnrm, all at once.

    The chart Newton starts every site from its row of t0 (m, d); a site
    whose chart stalls takes the orbit climb and the lift, one site at a
    time.  Returns the transforms, points, coefficients, defects,
    iterations and the mask of sites that took that fallback.  A failure
    raises DegeneratePointError, prefixed by where(k) for the first failing
    site k.
    """
    m, n = phi.shape
    d = frame.alpha.shape[0]
    if d == 0:
        transforms = np.broadcast_to(np.eye(n, dtype=complex), (m, n, n)).copy()
        return transforms, phi, np.zeros((m, 0)), np.zeros(m), np.zeros(m, dtype=int), np.zeros(m, dtype=bool)
    # the chart coefficients are invariant under rescaling of phi
    vnrm = float(np.linalg.norm(frame.v0))
    work = phi * (vnrm / pnrm)[:, None]
    t, iterations, fallback = _chart_newton(frame, work, t0, config)
    failure = None
    for k in np.flatnonzero(fallback):
        try:
            psi_star, U_acc, it_a = _group_normalize(frame, work[k], config)
            t_k, it_b = _lift(gs, frame, work[k], psi_star, U_acc, config)
        except DegeneratePointError as err:
            failure = (k, str(err))
            break
        if t_k is None:
            failure = (k, "found the transverse value but no broken-chart coefficients for it")
            break
        t[k], iterations[k] = t_k, config.max_iter + it_a + it_b
    # sites after a failed fallback cannot be the first failure
    solved = m if failure is None else failure[0]
    t, U, work_t = _polish(frame, work[:solved], t[:solved], config)
    defect = _defect_of(frame, work_t)
    z = np.real(work_t @ np.conj(frame.v0))
    bad = np.flatnonzero((defect >= config.tol) | (z < -config.tol * max(1.0, vnrm * vnrm)))
    if bad.size:
        k = int(bad[0])
        failure = (k, f"no convergence (goldstone defect {defect[k]:.3e}, overlap {z[k]:.3e})")
    if failure is not None:
        raise DegeneratePointError(f"{where(failure[0])}{failure[1]}")
    points = (U @ phi[..., None])[..., 0]
    return U, points, t, _defect_of(frame, points), iterations, fallback


def solve_unitary_gauge_point(
    gs: GeneratorSet,
    v0: np.ndarray,
    phi: np.ndarray,
    spec: SpectrumResult | None = None,
    config: UnitaryGaugeConfig = UnitaryGaugeConfig(),
    t0: np.ndarray | None = None,
) -> GaugePointResult:
    """Rotate one field value into unitary gauge.

    Returns the group element exp(sum t_i a_i) over the broken basis, the
    rotated value, and the residual Goldstone defect.  The point is a
    transverse representative with Re <v0, point> >= 0 (to tol): for the
    doublet the one with Re <v0, point> maximal.  Where the slice meets an
    orbit at several such points (larger representations) the one reached
    depends on the starting coefficients: with t0=None the chart Newton
    starts from t = 0, so the point depends only on the value.  This is the
    field solver run on a stack of one site.
    """
    phi = np.asarray(phi, dtype=complex)[None]
    pnrm = _site_norms(phi, lambda k: "")
    frame = _build_frame(gs, v0, spec)
    start = np.zeros((1, frame.alpha.shape[0])) if t0 is None else np.array(t0, dtype=float)[None]
    U, point, t, defect, iterations, _ = _solve_stack(gs, frame, phi, pnrm, start, config, lambda k: "")
    return GaugePointResult(
        transform=U[0],
        point=point[0],
        coeffs=t[0],
        goldstone_defect=float(defect[0]),
        overlap=complex(np.vdot(frame.v0, point[0])),
        iterations=int(iterations[0]),
    )


class GaugeFieldResult(NamedTuple):
    transforms: np.ndarray  # (*shape, n, n)
    transformed: np.ndarray  # (*shape, n)
    defects: np.ndarray  # (*shape,)
    iterations: np.ndarray  # (*shape,)
    fallback: np.ndarray  # (*shape,) bool: the chart stalled; orbit climb and lift ran

    @property
    def max_defect(self) -> float:
        return float(self.defects.max())


def apply_unitary_gauge_field(
    gs: GeneratorSet,
    v0: np.ndarray,
    field: np.ndarray,
    spec: SpectrumResult | None = None,
    config: UnitaryGaugeConfig = UnitaryGaugeConfig(),
) -> GaugeFieldResult:
    """Solve the pointwise problem across a grid field.

    Sites are independent: all are solved together, in blocks of
    liecore.SITE_BLOCK, each starting from t = 0, so a site's result does
    not depend on its neighbours or on their order.  A zero or non-finite value, or a site
    that fails, raises DegeneratePointError naming the first such site in
    lexicographic order; values are checked before any is solved.
    """
    field = np.asarray(field, dtype=complex)
    if field.shape[-1] != gs.n:
        raise ValueError(f"field must have {gs.n} components on the last axis")
    shape = field.shape[:-1]
    flat = field.reshape(-1, gs.n)

    def site(k: int) -> str:
        return f"site {tuple(int(i) for i in np.unravel_index(k, shape))}: "

    pnrm = _site_norms(flat, site)
    frame = _build_frame(gs, v0, spec)
    d = frame.alpha.shape[0]
    m, n = flat.shape
    transforms = np.empty((m, n, n), dtype=complex)
    transformed = np.empty((m, n), dtype=complex)
    defects = np.empty(m)
    iterations = np.empty(m, dtype=int)
    fallback = np.empty(m, dtype=bool)
    for block in site_blocks(m):
        rows = flat[block]
        (transforms[block], transformed[block], _, defects[block], iterations[block], fallback[block]) = (
            _solve_stack(
                gs, frame, rows, pnrm[block], np.zeros((len(rows), d)), config, lambda k: site(block.start + k)
            )
        )
    return GaugeFieldResult(
        transforms=transforms.reshape(shape + (n, n)),
        transformed=transformed.reshape(shape + (n,)),
        defects=defects.reshape(shape),
        iterations=iterations.reshape(shape),
        fallback=fallback.reshape(shape),
    )
