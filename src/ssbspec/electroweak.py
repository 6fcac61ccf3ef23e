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
from .liecore import TOL_ALG, FactorLabel, GeneratorSet

__all__ = [
    "ChargeError",
    "ChargeOperators",
    "DecomposedGauge",
    "ElectroweakParams",
    "MassPredictions",
    "build_generators",
    "build_model",
    "boson_mass_predictions",
    "charge_operators",
    "decompose_gauge_field",
    "diagonal_basis",
    "elementary_charge",
    "recompose_gauge_field",
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
        return super().__new__(cls, g, gp, mu, lam)


def build_generators(g: float, gp: float) -> GeneratorSet:
    """Doublet-representation generator stack [g i s_l / 2, g' i I / 2]."""
    mats = np.empty((4, 2, 2), dtype=complex)
    mats[:3] = 0.5j * g * PAULI
    mats[3] = 0.5j * gp * np.eye(2)
    return GeneratorSet(
        mats,
        factors=(FactorLabel("su2", (0, 1, 2), g), FactorLabel("u1", (3,), gp)),
    )


def build_model(p: ElectroweakParams = ElectroweakParams()) -> HiggsModel:
    """Full doublet model with the vacuum pinned on the second component."""
    pot = QuarticPotential(p.mu, p.lam)
    v0 = np.array([0.0, pot.vacuum_radius], dtype=complex)
    return HiggsModel(build_generators(p.g, p.gp), pot, v0)


def weinberg_angle(p: ElectroweakParams) -> float:
    """Mixing angle with tan(theta) = g'/g."""
    return math.atan2(p.gp, p.g)


def diagonal_basis(p: ElectroweakParams) -> np.ndarray:
    """Rows of mass-diagonal coefficient vectors a_1..a_4 in the b basis."""
    norm = math.hypot(p.g, p.gp)
    return np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, p.g / norm, -p.gp / norm],
            [0.0, 0.0, p.gp / norm, p.g / norm],
        ]
    )


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
    """e = g g' / sqrt(g^2 + g'^2) = g sin(theta)."""
    return p.g * p.gp / math.hypot(p.g, p.gp)


class ChargeOperators(NamedTuple):
    """Hermitian charge operators of one representation."""

    t1: np.ndarray
    t2: np.ndarray
    t3: np.ndarray
    hypercharge: np.ndarray
    charge: np.ndarray  # Q = T3 + Y/2
    t_plus: np.ndarray  # T1 - i T2
    t_minus: np.ndarray  # T1 + i T2


def charge_operators(rep: GeneratorSet, p: ElectroweakParams) -> ChargeOperators:
    """Extract T_l = b_l / (i g) and Y = 2 b_4 / (i g') from a representation.

    The representation must use the same index layout as build_generators:
    three weak generators then one hypercharge generator.  The operators are
    Hermitian because a GeneratorSet is skew-Hermitian; [T3, Y] = 0 is verified.
    """
    if rep.r != 4:
        raise ChargeError(f"need a four-generator representation, got r={rep.r}")
    t = [-1j * rep.matrices[l] / p.g for l in range(3)]
    y = -2j * rep.matrices[3] / p.gp
    scale = max(float(np.max(np.abs(m))) for m in (*t, y))
    if float(np.max(np.abs(t[2] @ y - y @ t[2]))) > TOL_ALG * scale:
        raise ChargeError("T3 and hypercharge do not commute")
    return ChargeOperators(
        t1=t[0],
        t2=t[1],
        t3=t[2],
        hypercharge=y,
        charge=t[2] + 0.5 * y,
        t_plus=t[0] - 1j * t[1],
        t_minus=t[0] + 1j * t[1],
    )


class DecomposedGauge(NamedTuple):
    """Physical combinations of a gauge coefficient field.

    w_plus/w_minus are complex; z and photon stay real for real input.
    Arrays keep the leading shape of the coefficient field.
    """

    w_plus: np.ndarray
    w_minus: np.ndarray
    z: np.ndarray
    photon: np.ndarray


def decompose_gauge_field(coeffs: np.ndarray, p: ElectroweakParams) -> DecomposedGauge:
    """Split coefficients on the b basis into W+-, Z and photon fields.

    W+- = (A1 +- i A2)/sqrt 2, Z = cos(theta) A3 - sin(theta) A4,
    photon = sin(theta) A3 + cos(theta) A4, acting on the last axis.
    """
    a = np.asarray(coeffs)
    if a.shape[-1] != 4:
        raise ValueError(f"expected 4 coefficients on the last axis, got {a.shape[-1]}")
    theta = weinberg_angle(p)
    c, s = math.cos(theta), math.sin(theta)
    root2 = math.sqrt(2.0)
    return DecomposedGauge(
        w_plus=(a[..., 0] + 1j * a[..., 1]) / root2,
        w_minus=(a[..., 0] - 1j * a[..., 1]) / root2,
        z=c * a[..., 2] - s * a[..., 3],
        photon=s * a[..., 2] + c * a[..., 3],
    )


def recompose_gauge_field(dec: DecomposedGauge, p: ElectroweakParams) -> np.ndarray:
    """Inverse of decompose_gauge_field (exact up to rounding)."""
    theta = weinberg_angle(p)
    c, s = math.cos(theta), math.sin(theta)
    root2 = math.sqrt(2.0)
    a1 = np.real(dec.w_plus + dec.w_minus) / root2
    a2 = np.real(-1j * (dec.w_plus - dec.w_minus)) / root2
    a3 = c * dec.z + s * dec.photon
    a4 = -s * dec.z + c * dec.photon
    return np.stack([a1, a2, a3, a4], axis=-1)
