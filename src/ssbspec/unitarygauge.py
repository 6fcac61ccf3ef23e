"""Pointwise unitary gauge: rotating field values onto the transverse slice.

A field value phi is in unitary gauge relative to a vacuum v0 when the
orbit-tangent (Goldstone) coordinates of phi - v0 all vanish, which
happens exactly when the fiber derivative s_i = Re <phi, g_i v0> is zero
along the broken directions.  The solver returns U = exp(sum_i t_i a_i)
over the broken basis with U phi on that slice.

Strategy.  Newton steps on the residual s(t) with exact Jacobians
(Frechet derivatives of the matrix exponential), globalized by climbing
the overlap Re <v0, U(t) phi>: its critical points are exactly the
unitary gauge configurations, and climbing selects the representative
whose component along v0 is real and nonnegative.  Steps are capped at a
trust radius so iterates stay where the single-exponential chart is well
conditioned.  Rotations close to the chart's folds can still stall; the
solver then locates the target value by iterating directly on the group
(recentering the expansion at the identity each step, which has no
folds) and recovers chart coefficients for it in up to three stages:
a continuation lift that replays the accepted orbit steps as Gauss-Newton
hops, a twist scan that rotates the matrix logarithm of the accumulated
element into the broken span using the stabilizer freedom of phi, and a
deterministic multistart ladder.

Inputs are rescaled to the vacuum norm internally (the coefficients t
solving the problem are invariant under phi -> c phi because v0 is
orthogonal to every orbit direction), so convergence tolerances are
relative to the vacuum scale while reported defects refer to the actual
returned point.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .breaking import SpectrumResult, orbit_frame
from .liecore import GeneratorSet, realify

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


class _Stall(Exception):
    """Private: primary chart iteration gave up; try the fallback."""


@dataclass(frozen=True)
class UnitaryGaugeConfig:
    tol: float = 1e-10
    max_iter: int = 50
    endgame: float = 1e-6  # defect level below which steps backtrack on |s| only


def fiber_derivative(gs: GeneratorSet, v0: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """All r components s_i = Re <phi, g_i v0>.

    Components along exact stabilizer directions vanish identically.
    """
    acted = gs.matrices @ np.asarray(v0, dtype=complex)
    return np.real(acted @ np.conj(np.asarray(phi, dtype=complex)))


@dataclass(frozen=True)
class _Frame:
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


@dataclass(frozen=True)
class GoldstoneCheck:
    ok: bool
    defect: float
    xi: np.ndarray


@dataclass(frozen=True)
class BrokenHessian:
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


@dataclass(frozen=True)
class GaugePointResult:
    transform: np.ndarray  # (n, n) unitary, exp over broken directions
    point: np.ndarray  # transform @ phi
    coeffs: np.ndarray  # (d,) exponential coordinates on the broken basis
    goldstone_defect: float
    overlap: complex  # <v0, point>
    iterations: int


def _phi_of(frame: _Frame, phi: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    A = np.einsum("d,dij->ij", t, frame.alpha)
    U = scipy.linalg.expm(A)
    return U, U @ phi


def _tangents(frame: _Frame, t: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """d/dt_j exp(A(t)) phi for each broken direction j, shape (d, n)."""
    A = np.einsum("d,dij->ij", t, frame.alpha)
    return np.stack(
        [scipy.linalg.expm_frechet(A, a, compute_expm=False) @ phi for a in frame.alpha]
    )


def _defect_of(frame: _Frame, phi_t: np.ndarray) -> float:
    xi = np.sqrt(2.0) * frame.orbit @ realify(phi_t - frame.v0)
    return float(np.max(np.abs(xi)))


def _overlap_hessian(frame: _Frame, phi_t: np.ndarray) -> np.ndarray:
    pair = np.einsum("aij,bjk,k->abi", frame.alpha, frame.alpha, phi_t)
    H = np.real(np.einsum("i,abi->ab", np.conj(frame.v0), pair))
    return 0.5 * (H + H.T)


def _capped(direction: np.ndarray, trust: float) -> np.ndarray:
    dn = float(np.linalg.norm(direction))
    return direction * (trust / dn) if dn > trust else direction


def _chart_iterate(
    frame: _Frame, phi: np.ndarray, t: np.ndarray, config: UnitaryGaugeConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Newton-ascent in the fixed chart t -> exp(A(t)).  Raises _Stall."""
    fscale = max(1.0, float(np.linalg.norm(frame.v0) * np.linalg.norm(phi)))
    U, phi_t = _phi_of(frame, phi, t)
    for it in range(config.max_iter):
        defect = _defect_of(frame, phi_t)
        z = float(np.vdot(frame.v0, phi_t).real)
        if defect < config.tol and z >= -config.tol * fscale:
            return t, U, phi_t, it
        dphi = _tangents(frame, t, phi)
        s = np.real(frame.av0 @ np.conj(phi_t))
        J = np.real(np.einsum("jn,in->ij", np.conj(dphi), frame.av0))
        grad_f = np.real(dphi @ np.conj(frame.v0))

        stepped = False
        if defect < config.endgame * fscale and z > 0:
            # endgame: overlap gains are below rounding, backtrack on |s|
            try:
                direction = np.linalg.solve(J, -s)
            except np.linalg.LinAlgError:
                direction = -J.T @ s
            direction = _capped(direction, frame.trust)
            snorm = float(np.linalg.norm(s))
            lam = 1.0
            for _ in range(40):
                t_try = t + lam * direction
                U_try, phi_try = _phi_of(frame, phi, t_try)
                s_try = np.real(frame.av0 @ np.conj(phi_try))
                if float(np.linalg.norm(s_try)) <= (1 - ARMIJO * lam) * snorm:
                    t, U, phi_t, stepped = t_try, U_try, phi_try, True
                    break
                lam *= 0.5
            if not stepped:
                raise _Stall
            continue

        # ascent phase: climb Re<v0, U phi>; Newton first when it climbs
        candidates = []
        try:
            candidates.append(np.linalg.solve(J, -s))
        except np.linalg.LinAlgError:
            pass
        candidates.append(grad_f.copy())
        for direction in candidates:
            direction = _capped(direction, frame.trust)
            slope = float(grad_f @ direction)
            if slope <= 0:
                continue
            lam = 1.0
            for _ in range(30):
                t_try = t + lam * direction
                U_try, phi_try = _phi_of(frame, phi, t_try)
                if float(np.vdot(frame.v0, phi_try).real) >= z + ARMIJO * lam * slope:
                    t, U, phi_t, stepped = t_try, U_try, phi_try, True
                    break
                lam *= 0.5
            if stepped:
                break
        if stepped:
            continue

        # flat gradient away from the target: escape along positive curvature
        w, W = np.linalg.eigh(_overlap_hessian(frame, phi_t))
        if w[-1] <= 0:
            raise _Stall
        for direction in (W[:, -1], -W[:, -1]):
            lam = frame.trust
            for _ in range(30):
                t_try = t + lam * direction
                U_try, phi_try = _phi_of(frame, phi, t_try)
                if float(np.vdot(frame.v0, phi_try).real) > z + 1e-14 * fscale:
                    t, U, phi_t, stepped = t_try, U_try, phi_try, True
                    break
                lam *= 0.5
            if stepped:
                break
        if not stepped:
            raise _Stall
    raise _Stall


def _group_normalize(
    frame: _Frame, phi: np.ndarray, config: UnitaryGaugeConfig
) -> tuple[np.ndarray, list[np.ndarray], int]:
    """Climb the overlap on the orbit itself, recentering at the identity.

    Free of chart folds; returns the target value, the accepted step
    coefficients in order, and the iteration count.
    """
    psi = phi.astype(complex)
    steps: list[np.ndarray] = []
    fscale = max(1.0, float(np.linalg.norm(frame.v0) * np.linalg.norm(phi)))
    tol = 0.05 * config.tol
    for it in range(4 * config.max_iter):
        z = float(np.vdot(frame.v0, psi).real)
        if _defect_of(frame, psi) < tol and z >= -tol * fscale:
            return psi, steps, it
        s = np.real(frame.av0 @ np.conj(psi))
        J = np.real(np.einsum("jn,in->ij", np.conj(frame.alpha @ psi), frame.av0))
        stepped = False
        candidates = []
        # a gradient below rounding cannot climb off a non-target critical
        # point (z < 0); its line search would accept null steps forever
        if z >= 0 or float(np.linalg.norm(s)) > np.finfo(float).eps * fscale:
            try:
                candidates.append(np.linalg.solve(J, -s))
            except np.linalg.LinAlgError:
                pass
            candidates.append(-s)  # steepest ascent of the overlap at the identity
        for direction in candidates:
            direction = _capped(direction, frame.trust)
            slope = float(-s @ direction)
            if slope <= 0:
                continue
            lam = 1.0
            for _ in range(40):
                delta = lam * direction
                cand = scipy.linalg.expm(np.einsum("d,dij->ij", delta, frame.alpha)) @ psi
                if float(np.vdot(frame.v0, cand).real) >= z + ARMIJO * lam * slope:
                    psi, stepped = cand, True
                    steps.append(delta)
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
                delta = lam * direction
                cand = scipy.linalg.expm(np.einsum("d,dij->ij", delta, frame.alpha)) @ psi
                if float(np.vdot(frame.v0, cand).real) > z + 1e-14 * fscale:
                    psi, stepped = cand, True
                    steps.append(delta)
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
    spent = 0
    for _ in range(budget):
        spent += 1
        h = realify(_phi_of(frame, phi, t)[1] - target)
        hn = float(np.linalg.norm(h))
        if hn < tol_h:
            return t, True, spent
        dphi = _tangents(frame, t, phi)
        direction, *_ = np.linalg.lstsq(realify(dphi).T, -h, rcond=None)
        direction = _capped(direction, frame.trust)
        lam = 1.0
        stepped = False
        for _ in range(40):
            t_try = t + lam * direction
            h_try = realify(_phi_of(frame, phi, t_try)[1] - target)
            if float(np.linalg.norm(h_try)) <= (1 - ARMIJO * lam) * hn:
                t, stepped = t_try, True
                break
            lam *= 0.5
        if not stepped:
            return t, False, spent
    h = realify(_phi_of(frame, phi, t)[1] - target)
    return t, float(np.linalg.norm(h)) < tol_h, spent


def _lift_by_continuation(
    frame: _Frame,
    phi: np.ndarray,
    psi_star: np.ndarray,
    steps: list[np.ndarray],
    config: UnitaryGaugeConfig,
) -> tuple[np.ndarray, int] | None:
    """Lift the orbit path into the fixed chart, subdividing stalled hops."""
    d = frame.alpha.shape[0]
    scale = max(1.0, float(np.linalg.norm(psi_star)))
    tol_hop = 1e-11 * scale
    t = np.zeros(d)
    psi = phi.astype(complex)
    stack = list(reversed(steps))
    spent = 0
    budget = 40 * config.max_iter
    while stack:
        delta = stack.pop()
        target = scipy.linalg.expm(np.einsum("d,dij->ij", delta, frame.alpha)) @ psi
        t_new, ok, used = _gauss_newton_to(frame, phi, t, target, tol_hop, 2 * config.max_iter)
        spent += used
        if spent > budget:
            return None
        if not ok:
            if float(np.linalg.norm(delta)) < 1e-6:
                return None  # lift blocked by a chart fold
            stack.append(0.5 * delta)
            stack.append(0.5 * delta)
            continue
        t, psi = t_new, target
    t, ok, used = _gauss_newton_to(
        frame, phi, t, psi_star, 0.25 * config.tol * scale, 2 * config.max_iter
    )
    return (t, spent + used) if ok else None


def _lift_by_twist_scan(
    gs: GeneratorSet,
    frame: _Frame,
    phi: np.ndarray,
    psi_star: np.ndarray,
    steps: list[np.ndarray],
    config: UnitaryGaugeConfig,
) -> tuple[np.ndarray, int] | None:
    """Twist the accumulated element by the stabilizer of phi.

    U_acc exp(tau Z0) sends phi to the same target for every tau when
    Z0 phi = 0; the scan looks for tau where the matrix logarithm has no
    component outside the broken span, giving chart coefficients
    directly.  Applies when that stabilizer (within the generator span)
    is one dimensional.
    """
    U_acc = np.eye(gs.n, dtype=complex)
    for delta in steps:
        U_acc = scipy.linalg.expm(np.einsum("d,dij->ij", delta, frame.alpha)) @ U_acc
    at_phi = orbit_frame(gs, phi)
    if gs.r - at_phi.rank != 1:
        return None
    Z_coeff = at_phi.vt[-1]
    Z0 = np.einsum("r,rij->ij", Z_coeff, gs.matrices)
    rho = float(np.max(np.abs(np.linalg.eigvals(Z0))))
    period = 4.0 * np.pi / rho if rho > 0 else 2.0 * np.pi

    def unbroken_norm(tau: float) -> tuple[float, np.ndarray]:
        X, _ = scipy.linalg.logm(U_acc @ scipy.linalg.expm(tau * Z0), disp=False)
        c = gs.project(X[None, :, :])[0][0]
        resid = c - frame.broken.T @ (frame.broken @ c)
        return float(np.linalg.norm(resid)), c

    taus = np.linspace(0.0, period, 257)
    vals = [unbroken_norm(tau)[0] for tau in taus]
    i_min = int(np.argmin(vals))
    lo = taus[max(0, i_min - 1)]
    hi = taus[min(len(taus) - 1, i_min + 1)]
    for _ in range(120):
        m1 = lo + 0.382 * (hi - lo)
        m2 = lo + 0.618 * (hi - lo)
        if unbroken_norm(m1)[0] <= unbroken_norm(m2)[0]:
            hi = m2
        else:
            lo = m1
    _, c = unbroken_norm(0.5 * (lo + hi))
    scale = max(1.0, float(np.linalg.norm(psi_star)))
    t, ok, used = _gauss_newton_to(
        frame, phi, frame.broken @ c, psi_star, 0.25 * config.tol * scale, 2 * config.max_iter
    )
    return (t, used) if ok else None


def _lift_by_multistart(
    frame: _Frame,
    phi: np.ndarray,
    psi_star: np.ndarray,
    config: UnitaryGaugeConfig,
) -> tuple[np.ndarray, int] | None:
    """Deterministic Gauss-Newton starts on spheres in coefficient space."""
    d = frame.alpha.shape[0]
    scale = max(1.0, float(np.linalg.norm(psi_star)))
    tol_h = 0.25 * config.tol * scale
    radius_unit = frame.trust  # ~ quarter turn per unit of radius
    spent = 0
    rng = np.random.default_rng(20160111)  # fixed: starts are part of the algorithm
    for radius in (radius_unit, 2 * radius_unit, 3 * radius_unit):
        for _ in range(12):
            direction = rng.normal(size=d)
            direction /= np.linalg.norm(direction)
            t, ok, used = _gauss_newton_to(
                frame, phi, radius * direction, psi_star, tol_h, config.max_iter
            )
            spent += used
            if ok:
                return t, spent
    return None


def _polish(
    frame: _Frame, phi: np.ndarray, t: np.ndarray, config: UnitaryGaugeConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A few plain Newton steps to push an accepted residual well below tol."""
    U, phi_t = _phi_of(frame, phi, t)
    for _ in range(4):
        defect = _defect_of(frame, phi_t)
        if defect < 5e-3 * config.tol:
            break
        dphi = _tangents(frame, t, phi)
        s = np.real(frame.av0 @ np.conj(phi_t))
        J = np.real(np.einsum("jn,in->ij", np.conj(dphi), frame.av0))
        try:
            t_try = t + np.linalg.solve(J, -s)
        except np.linalg.LinAlgError:
            break
        U_try, phi_try = _phi_of(frame, phi, t_try)
        if _defect_of(frame, phi_try) >= defect:
            break
        t, U, phi_t = t_try, U_try, phi_try
    return t, U, phi_t


def solve_unitary_gauge_point(
    gs: GeneratorSet,
    v0: np.ndarray,
    phi: np.ndarray,
    spec: SpectrumResult | None = None,
    config: UnitaryGaugeConfig = UnitaryGaugeConfig(),
    t0: np.ndarray | None = None,
    _frame: _Frame | None = None,
) -> GaugePointResult:
    """Rotate one field value into unitary gauge.

    Returns the group element exp(sum t_i a_i) over the broken basis, the
    rotated value, and the residual Goldstone defect.  Among the
    gauge-equivalent transverse representatives, the one with
    Re <v0, point> maximal (in particular nonnegative) is selected.
    """
    phi = np.asarray(phi, dtype=complex)
    pnrm = float(np.linalg.norm(phi))
    if not (np.isfinite(pnrm) and pnrm > 0):
        raise DegeneratePointError(f"field value has norm {pnrm}; it must be finite and nonzero")
    frame = _frame if _frame is not None else _build_frame(gs, v0, spec)
    d = frame.alpha.shape[0]
    if d == 0:
        return GaugePointResult(
            transform=np.eye(gs.n, dtype=complex),
            point=phi,
            coeffs=np.zeros(0),
            goldstone_defect=0.0,
            overlap=complex(np.vdot(frame.v0, phi)),
            iterations=0,
        )
    # the chart coefficients are invariant under rescaling of phi
    vnrm = float(np.linalg.norm(frame.v0))
    work = phi * (vnrm / pnrm) if vnrm > 0 else phi
    t_start = np.zeros(d) if t0 is None else np.array(t0, dtype=float)
    try:
        t, U, work_t, its = _chart_iterate(frame, work, t_start, config)
    except _Stall:
        psi_star, steps, it_a = _group_normalize(frame, work, config)
        lifted = _lift_by_continuation(frame, work, psi_star, steps, config)
        if lifted is None:
            lifted = _lift_by_twist_scan(gs, frame, work, psi_star, steps, config)
        if lifted is None:
            lifted = _lift_by_multistart(frame, work, psi_star, config)
        if lifted is None:
            raise DegeneratePointError(
                "found the transverse value but no broken-chart coefficients for it"
            )
        t, it_b = lifted
        its = config.max_iter + it_a + it_b
    t, U, work_t = _polish(frame, work, t, config)
    defect = _defect_of(frame, work_t)
    fscale = max(1.0, vnrm * vnrm)
    z = float(np.vdot(frame.v0, work_t).real)
    if defect >= config.tol or z < -config.tol * fscale:
        raise DegeneratePointError(
            f"no convergence (goldstone defect {defect:.3e}, overlap {z:.3e})"
        )
    point = U @ phi
    return GaugePointResult(
        transform=U,
        point=point,
        coeffs=t,
        goldstone_defect=_defect_of(frame, point),
        overlap=complex(np.vdot(frame.v0, point)),
        iterations=its,
    )


@dataclass(frozen=True)
class GaugeFieldResult:
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
    spec: SpectrumResult | None = None,
    config: UnitaryGaugeConfig = UnitaryGaugeConfig(),
) -> GaugeFieldResult:
    """Solve the pointwise problem across a grid field.

    Sites are swept in lexicographic order, each warm-started from its
    predecessor's exponential coordinates.  A failing site raises
    DegeneratePointError naming the site.
    """
    field = np.asarray(field, dtype=complex)
    if field.shape[-1] != gs.n:
        raise ValueError(f"field must have {gs.n} components on the last axis")
    shape = field.shape[:-1]
    frame = _build_frame(gs, v0, spec)
    d = frame.alpha.shape[0]
    transforms = np.empty(shape + (gs.n, gs.n), dtype=complex)
    transformed = np.empty(shape + (gs.n,), dtype=complex)
    defects = np.empty(shape)
    iterations = np.empty(shape, dtype=int)
    warm = np.zeros(d)
    for idx in np.ndindex(*shape):
        try:
            res = solve_unitary_gauge_point(
                gs, v0, field[idx], config=config, t0=warm, _frame=frame
            )
        except DegeneratePointError as err:
            raise DegeneratePointError(f"site {idx}: {err}") from err
        warm = res.coeffs
        transforms[idx] = res.transform
        transformed[idx] = res.point
        defects[idx] = res.goldstone_defect
        iterations[idx] = res.iterations
    return GaugeFieldResult(
        transforms=transforms, transformed=transformed, defects=defects, iterations=iterations
    )
