"""The invariant quartic potential and vacuum finding.

The potential is V(v) = -mu/2 |v|^2 + lambda/2 |v|^4 with
lambda > 0.  For mu > 0 it is minimized on the sphere
|v| = sqrt(mu / (2 lambda)); for mu <= 0 (the symmetric phase) at the origin.
Gradients and Hessians are taken in realified coordinates (interleaved
re/im pairs), where the vacuum sphere and curvature structure are plain
real calculus.
"""
from __future__ import annotations

import math
import random
from collections import namedtuple

import numpy as np

from .liecore import (
    GeneratorSet,
    exponentiate,
    random_algebra_element,
    realify,
    safe_norm,
)

__all__ = [
    "HiggsModel",
    "NotAVacuumError",
    "PotentialError",
    "QuarticPotential",
    "check_potential_invariance",
    "find_vacuum",
]

TOL_VAC = 1e-9


class PotentialError(ValueError):
    """Bad potential parameters or a bad solver seed."""


class NotAVacuumError(ValueError):
    """A supplied point fails the stationarity or curvature conditions."""


class QuarticPotential(namedtuple("QuarticPotential", "mu lam")):
    """Rotation-invariant quartic potential with analytic derivatives."""

    __slots__ = ()

    def __new__(cls, mu: float, lam: float):
        if not (np.isfinite(mu) and np.isfinite(lam) and lam > 0):
            raise PotentialError(
                f"quartic potential needs finite mu and lambda > 0, got mu={mu}, lambda={lam}"
            )
        # the squared vacuum radius, the Hessian's scale and HiggsModel's bound
        # TOL_VAC 2 mu (1 + |v|) on the vacuum gradient, which rounds to about
        # eps mu |v|: where that bound overflows no gradient could fail it.
        # Python floats overflow to inf without a warning
        radius2 = float(mu) / (2.0 * float(lam))
        bound = TOL_VAC * (2.0 * abs(float(mu))) * (1.0 + math.sqrt(max(radius2, 0.0)))
        if not (math.isfinite(radius2) and math.isfinite(bound)):
            raise PotentialError(
                "quartic potential overflows: mu/(2 lambda), 2 mu or the vacuum gradient's bound "
                f"TOL_VAC 2 mu (1 + |v|) is not finite at mu={mu}, lambda={lam}"
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
    positive semidefinite, both to TOL_VAC relative to max|H|.
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
            with np.errstate(over="ignore", invalid="ignore"):  # a vector too long to square fails below
                grad = potential.gradient(vacuum)
                hess = potential.hessian(vacuum)
            # the Hessian scales as mu and the gradient as mu |v|, so both
            # checks are relative and hold at any mu and lambda; the bound is
            # finite at the potential's own vacuum, and where it overflows
            # off that sphere the gradient does too
            curvature = float(np.max(np.abs(hess)))
            slope = float(safe_norm(grad))
            if not slope <= TOL_VAC * curvature * (1.0 + float(safe_norm(realify(vacuum)))) < math.inf:
                raise NotAVacuumError(f"gradient norm {slope:.3e} at the supplied vacuum")
            lo = float(np.linalg.eigvalsh(hess).min())
            if lo < -TOL_VAC * curvature:
                raise NotAVacuumError(f"Hessian has negative eigenvalue {lo:.3e} at the supplied vacuum")
        return super().__new__(cls, generators, potential, vacuum)


def find_vacuum(model: HiggsModel, seed_point: np.ndarray) -> np.ndarray:
    """The minimum of the potential on the ray through a nonzero seed point.

    V depends on |v| alone, so its minima are the sphere
    |v| = vacuum_radius (the origin when mu <= 0), which meets every ray
    from the origin once: the vacuum is the seed rescaled to that radius.
    Raises PotentialError for a zero or non-finite seed.
    """
    seed = np.asarray(seed_point, dtype=complex)
    peak = float(np.max(np.abs(seed), initial=0.0))
    if not (np.isfinite(peak) and peak > 0):
        raise PotentialError(f"seed point must be nonzero and finite, got largest entry {peak}")
    unit = seed / peak  # the norm of a tiny or huge seed would under- or overflow
    return unit * (model.potential.vacuum_radius / float(np.linalg.norm(unit)))


def check_potential_invariance(
    model: HiggsModel,
    samples: int = 100,
    seed: int = 0,
) -> tuple[float, float]:
    """Worst |V(exp(X) v) - V(v)| over seeded random X and v, and the
    largest |V| evaluated, the scale that defect rounds against.

    Order-of-draw is fixed, so the result is deterministic for a given
    seed and sample count.
    """
    rng = random.Random(seed)
    gs = model.generators
    coeffs, vs = [], []
    for _ in range(samples):
        coeffs.append(random_algebra_element(gs, rng))
        vs.append(np.array([complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(gs.n)]))
    # one stacked exponential: a call's fixed cost is many times a small matrix's own
    transforms = exponentiate(gs, np.reshape(coeffs, (samples, gs.r)))
    worst = scale = 0.0
    for U, v in zip(transforms, vs):
        moved, still = model.potential.value(U @ v), model.potential.value(v)
        worst = max(worst, abs(moved - still))
        scale = max(scale, abs(moved), abs(still))
    return worst, scale

