"""The SU(2) x U(1) doublet model: presets, closed forms, charges.

Generator conventions, with couplings g (weak) and g' (hypercharge):

    b_1, b_2, b_3 = g * (i/2) * (Pauli matrices),   b_4 = g' * (i/2) * I.

With the vacuum on the second doublet component, the mass-diagonal
combinations are a_1 = b_1, a_2 = b_2 (charged bosons), a_3 = (g b_3 -
g' b_4)/sqrt(g^2+g'^2) (neutral massive) and a_4 = (g' b_3 + g b_4)/
sqrt(g^2+g'^2), which annihilates the vacuum.
"""
from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .higgsmodel import HiggsModel, QuarticPotential
from .liecore import TOL_ALG, GeneratorSet

__all__ = [
    "ChargeError",
    "ChargeOperators",
    "ElectroweakParams",
    "MassPredictions",
    "build_generators",
    "build_model",
    "boson_mass_predictions",
    "charge_operators",
    "elementary_charge",
    "weinberg_angle",
]

PAULI = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)


class ChargeError(ValueError):
    """Representation matrices do not carry a consistent charge structure."""


class ElectroweakParams(namedtuple("ElectroweakParams", "g gp mu lam")):
    """Couplings g, g' and potential parameters mu, lambda; all finite and positive."""

    __slots__ = ()

    def __new__(cls, g: float = 2.0, gp: float = 1.0, mu: float = 2.0, lam: float = 1.0):
        for name, value in (("g", g), ("gp", gp), ("mu", mu), ("lambda", lam)):
            if not math.isfinite(value):
                raise ValueError(f"electroweak parameter {name} must be finite, got {value}")
            if not value > 0:
                raise ValueError(f"electroweak parameter {name} must be positive, got {value}")
            # the generators carry g/2 and g'/2: a coupling whose half underflows leaves a zero generator
            if name in ("g", "gp") and value / 2 == 0:
                raise ValueError(f"electroweak parameter {name} = {value} is too small: its half underflows to 0")
        # the largest mass, which every boson-mass product stays below; a
        # potential that overflows is refused here first
        z = QuarticPotential(mu, lam).vacuum_radius * math.hypot(g, gp) / math.sqrt(2.0)
        if not math.isfinite(z):
            raise ValueError(
                f"electroweak parameters g={g}, gp={gp}, mu={mu}, lambda={lam} give a Z mass "
                "sqrt(mu/(2 lambda)) hypot(g, gp)/sqrt(2) beyond the float range"
            )
        return super().__new__(cls, g, gp, mu, lam)


def build_generators(g: float, gp: float) -> GeneratorSet:
    """Doublet-representation generator stack [g i s_l / 2, g' i I / 2]."""
    mats = np.empty((4, 2, 2), dtype=complex)
    mats[:3] = 0.5j * g * PAULI
    mats[3] = 0.5j * gp * np.eye(2)
    return GeneratorSet(mats)


def build_model(p: ElectroweakParams = ElectroweakParams()) -> HiggsModel:
    """Full doublet model with the vacuum pinned on the second component."""
    pot = QuarticPotential(p.mu, p.lam)
    v0 = np.array([0.0, pot.vacuum_radius], dtype=complex)
    return HiggsModel(build_generators(p.g, p.gp), pot, v0)


def weinberg_angle(p: ElectroweakParams) -> float:
    """Mixing angle with tan(theta) = g'/g."""
    return math.atan2(p.gp, p.g)


class MassPredictions(NamedTuple):
    w: float
    z: float
    photon: float
    higgs: float

    def as_array(self) -> np.ndarray:
        """Boson masses in descending order, matching numerical spectra."""
        return np.array(sorted([self.w, self.w, self.z, self.photon], reverse=True))


def boson_mass_predictions(p: ElectroweakParams) -> MassPredictions:
    """Closed-form masses; the numerical spectrum must reproduce these."""
    radius = QuarticPotential(p.mu, p.lam).vacuum_radius
    return MassPredictions(
        w=radius * p.g / math.sqrt(2.0),
        z=radius * math.hypot(p.g, p.gp) / math.sqrt(2.0),
        photon=0.0,
        higgs=math.sqrt(p.mu),
    )


def elementary_charge(p: ElectroweakParams) -> float:
    """e = g g' / sqrt(g^2 + g'^2) = g sin(theta), as min(g, g') times a factor
    in [1/sqrt 2, 1], so that g g' neither overflows nor underflows."""
    lo, hi = sorted((p.g, p.gp))
    return lo * (hi / math.hypot(p.g, p.gp))


class ChargeOperators(NamedTuple):
    """Hermitian charge operators of one representation."""

    t3: np.ndarray
    hypercharge: np.ndarray
    charge: np.ndarray  # Q = T3 + Y/2


def charge_operators(rep: GeneratorSet, p: ElectroweakParams) -> ChargeOperators:
    """Extract T_l = b_l / (i g) and Y = 2 b_4 / (i g') from a representation.

    The representation must use the same index layout as build_generators:
    three weak generators then one hypercharge generator.  The operators are
    Hermitian because a GeneratorSet is skew-Hermitian; [T3, Y] = 0 is verified.
    """
    if rep.r != 4:
        raise ChargeError(f"need a four-generator representation, got r={rep.r}")
    # divided as reals: numpy divides a complex array by g as a product with
    # 1/g, which overflows for a subnormal g
    ops = (-1j * rep.matrices).view(float) / np.array([p.g, p.g, p.g, p.gp])[:, None, None]
    t, y = ops[:3].view(complex), 2.0 * ops[3].view(complex)
    scale = max(float(np.max(np.abs(m))) for m in (*t, y))
    if float(np.max(np.abs(t[2] @ y - y @ t[2]))) > TOL_ALG * scale:
        raise ChargeError("T3 and hypercharge do not commute")
    return ChargeOperators(t3=t[2], hypercharge=y, charge=t[2] + 0.5 * y)
