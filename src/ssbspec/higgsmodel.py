"""The invariant quartic potential and vacuum finding.

The potential is V(v) = -mu/2 |v|^2 + lambda/2 |v|^4 with
lambda > 0.  For mu > 0 it is minimized on the sphere
|v| = sqrt(mu / (2 lambda)); for mu <= 0 (the symmetric phase) at the origin.
Gradients and Hessians are taken in realified coordinates (interleaved
re/im pairs), where the vacuum sphere and curvature structure are plain
real calculus.
"""
from __future__ import annotations

from collections import namedtuple

import numpy as np

from .liecore import (
    GeneratorSet,
    exponentiate,
    random_algebra_element,
    realify,
    unrealify,
)

__all__ = [
    "HiggsModel",
    "NotAVacuumError",
    "PotentialError",
    "QuarticPotential",
    "VacuumSolveError",
    "check_potential_invariance",
    "find_vacuum",
]

TOL_VAC = 1e-9


class PotentialError(ValueError):
    """Bad potential parameters or a bad solver seed."""


class NotAVacuumError(ValueError):
    """A supplied point fails the stationarity or curvature conditions."""


class VacuumSolveError(RuntimeError):
    """Minimization did not converge; carries the last iterate."""

    def __init__(self, message: str, last_point: np.ndarray, iterations: int):
        super().__init__(message)
        self.last_point = last_point
        self.iterations = iterations


class QuarticPotential(namedtuple("QuarticPotential", "mu lam")):
    """Rotation-invariant quartic potential with analytic derivatives."""

    __slots__ = ()

    def __new__(cls, mu: float, lam: float):
        if not (np.isfinite(mu) and np.isfinite(lam) and lam > 0):
            raise PotentialError(
                f"quartic potential needs finite mu and lambda > 0, got mu={mu}, lambda={lam}"
            )
        return super().__new__(cls, mu, lam)

    @property
    def vacuum_radius(self) -> float:
        """|v| at the minimum; 0 in the symmetric phase mu <= 0."""
        return float(np.sqrt(self.mu / (2.0 * self.lam))) if self.mu > 0 else 0.0

    def value(self, v: np.ndarray) -> float:
        s = float(np.vdot(v, v).real)
        return -0.5 * self.mu * s + 0.5 * self.lam * s * s

    def gradient(self, v: np.ndarray) -> np.ndarray:
        x = realify(v)
        s = float(x @ x)
        return (-self.mu + 2.0 * self.lam * s) * x

    def hessian(self, v: np.ndarray) -> np.ndarray:
        x = realify(v)
        s = float(x @ x)
        return (-self.mu + 2.0 * self.lam * s) * np.eye(x.size) + 4.0 * self.lam * np.outer(x, x)


class HiggsModel(namedtuple("HiggsModel", "generators potential vacuum")):
    """Generator set, invariant potential, and (optionally) a pinned vacuum.

    When a vacuum is supplied it is stored as a read-only copy and verified
    at construction: the gradient must vanish and the Hessian must be
    positive semidefinite, both to tol_vac scaled tolerances.
    """

    __slots__ = ()

    def __new__(cls, generators: GeneratorSet, potential: QuarticPotential, vacuum: np.ndarray | None = None):
        if vacuum is not None:
            vacuum = np.array(vacuum, dtype=complex)
            if vacuum.shape != (generators.n,):
                raise NotAVacuumError(
                    f"vacuum must have shape ({generators.n},), got {vacuum.shape}"
                )
            vacuum.setflags(write=False)
            grad = potential.gradient(vacuum)
            hess = potential.hessian(vacuum)
            scale = 1.0 + float(np.max(np.abs(hess)))
            if float(np.linalg.norm(grad)) > TOL_VAC * scale:
                raise NotAVacuumError(
                    f"gradient norm {np.linalg.norm(grad):.3e} at the supplied vacuum"
                )
            lo = float(np.linalg.eigvalsh(hess).min())
            if lo < -TOL_VAC * scale:
                raise NotAVacuumError(f"Hessian has negative eigenvalue {lo:.3e} at the supplied vacuum")
        return super().__new__(cls, generators, potential, vacuum)


def find_vacuum(
    model: HiggsModel,
    seed_point: np.ndarray,
    *,
    tol_vac: float = TOL_VAC,
    max_iter: int = 200,
) -> np.ndarray:
    """Minimize the potential from a nonzero seed point.

    Damped Newton with backtracking in realified coordinates; indefinite
    Hessians are shifted toward gradient descent.  Returns the vacuum as
    a complex vector; raises VacuumSolveError on non-convergence.
    """
    p = model.potential
    x = realify(np.asarray(seed_point, dtype=complex))
    if not np.any(x):
        raise PotentialError("seed point must be nonzero")

    def val(xr):
        return p.value(unrealify(xr))

    f = val(x)
    for it in range(max_iter):
        v = unrealify(x)
        g = p.gradient(v)
        gn = float(np.linalg.norm(g))
        H = p.hessian(v)
        scale = 1.0 + float(np.max(np.abs(H)))
        if gn < tol_vac:
            lo = float(np.linalg.eigvalsh(H).min())
            if lo >= -tol_vac * scale:
                break
            # stationary but not a minimum: slide off along the most
            # negative curvature direction
            w, W = np.linalg.eigh(H)
            x = x + 0.1 * max(1.0, float(np.linalg.norm(x))) * W[:, 0]
            f = val(x)
            continue
        lo = float(np.linalg.eigvalsh(H).min())
        if lo < 1e-12 * scale:
            H = H + (abs(lo) + 1e-8 * scale) * np.eye(x.size)
        step = -np.linalg.solve(H, g)
        if step @ g >= 0.0:
            step = -g
        t, slope = 1.0, float(step @ g)
        while val(x + t * step) > f + 1e-4 * t * slope:
            t *= 0.5
            if t < 1e-14:
                step, t = -g, 1.0 / scale
                break
        x = x + t * step
        f = val(x)
    else:
        raise VacuumSolveError(
            f"no vacuum within {max_iter} iterations (gradient norm {gn:.3e})",
            unrealify(x),
            max_iter,
        )

    # one least-squares Newton polish; the Hessian is singular along the
    # vacuum orbit, so use a pseudoinverse
    v = unrealify(x)
    g = p.gradient(v)
    H = p.hessian(v)
    x = x - np.linalg.pinv(H, rcond=1e-10, hermitian=True) @ g
    return unrealify(x)


def check_potential_invariance(
    model: HiggsModel,
    samples: int = 100,
    seed: int = 0,
) -> float:
    """Worst |V(exp(X) v) - V(v)| over seeded random X and v.

    Order-of-draw is fixed, so the result is deterministic for a given
    seed and sample count.
    """
    rng = np.random.default_rng(seed)
    gs = model.generators
    worst = 0.0
    for _ in range(samples):
        coeffs = random_algebra_element(gs, rng)
        v = rng.normal(size=gs.n) + 1j * rng.normal(size=gs.n)
        U = exponentiate(gs, coeffs)
        defect = abs(model.potential.value(U @ v) - model.potential.value(v))
        worst = max(worst, defect)
    return worst

