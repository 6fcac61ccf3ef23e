"""Symmetry breaking spectra: boson masses, Goldstone counting, Higgs modes.

Given a generator basis acting on C^n and a vacuum v0, the central object
is the orbit map X -> X v0.  Its mass form m(A, B) = Re <A v0, B v0> is the
map's Gram matrix, so one singular value decomposition of the map gives
both the unbroken subalgebra (its kernel) and the boson masses M = sqrt(2) s
(its singular values s, as many as the map's rank at unit couplings).
The realified potential Hessian at v0 splits into the orbit tangent
directions (flat, one per broken generator) and transverse directions
whose eigenvalues 2 m^2 give the scalar masses.
"""
from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .higgsmodel import HiggsModel, NotAVacuumError
from .liecore import TOL_RANK, GeneratorSet, realify, unrealify

__all__ = [
    "MassForm",
    "OrbitFrame",
    "OrbitSplit",
    "QuadraticReport",
    "ShiftDecomposition",
    "SpectrumResult",
    "StabilizerSplit",
    "decompose_shift",
    "mass_form",
    "orbit_frame",
    "orbit_split",
    "quadratic_lagrangian",
    "spectrum",
    "stabilizer_split",
]


def _acted(gs: GeneratorSet, v0: np.ndarray) -> np.ndarray:
    """Rows realify(g_i v0), shape (r, 2n)."""
    v = np.asarray(v0, dtype=complex)
    if v.shape != (gs.n,):
        raise ValueError(f"vacuum must have shape ({gs.n},), got {v.shape}")
    return realify(gs.matrices @ v)


def _canonical_rows(rows: np.ndarray) -> np.ndarray:
    """Fix each row's sign so its first significant entry is positive."""
    rows = np.array(rows)
    for row in rows:
        big = np.flatnonzero(np.abs(row) > TOL_RANK * np.abs(row).max())
        if big.size and row[big[0]] < 0:
            row *= -1.0
    return rows + 0.0  # flush negative zeros


def _sort_clusters(values: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Order rows by descending value; within clusters of values equal to
    TOL_RANK relative to the largest, the rows are sign-fixed and sorted
    lexicographically for determinism."""
    order = np.argsort(-values, kind="stable")
    values, rows = values[order], _canonical_rows(rows[order])
    scale = float(np.abs(values).max()) if values.size else 0.0
    out_vals, out_rows, start = [], [], 0
    for k in range(1, values.size + 1):
        if k == values.size or values[start] - values[k] > TOL_RANK * scale:
            block = rows[start:k]
            vals = values[start:k]
            idx = np.lexsort(block.T[::-1])
            out_rows.append(block[idx])
            out_vals.append(vals[idx])
            start = k
    if not out_rows:
        return values, rows
    return np.concatenate(out_vals), np.concatenate(out_rows)


class MassForm(namedtuple("MassForm", "matrix")):
    """Symmetric PSD matrix m_ij = Re <g_i v0, g_j v0> on coefficient vectors,
    stored as a read-only real copy."""

    __slots__ = ()

    def __new__(cls, matrix: np.ndarray):
        m = np.array(matrix, dtype=float)
        m.setflags(write=False)
        return super().__new__(cls, m)

    def __call__(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(np.asarray(a) @ self.matrix @ np.asarray(b))


def mass_form(gs: GeneratorSet, v0: np.ndarray) -> MassForm:
    """Mass form of the vacuum v0; exactly symmetric by construction."""
    T = _acted(gs, v0)
    return MassForm(T @ T.T)


class OrbitFrame(NamedTuple):
    """Singular value decomposition of the orbit map X -> X v, realified.

    The first rank rows of vt span the broken coefficient directions and
    the rest the stabilizer of v; the first rank columns of u span the
    orbit tangent realify(X v) and the rest its complement.
    """

    u: np.ndarray  # (2n, 2n)
    s: np.ndarray  # (min(2n, r),) descending
    vt: np.ndarray  # (r, r)
    rank: int


def orbit_frame(gs: GeneratorSet, v: np.ndarray) -> OrbitFrame:
    """The one rank decision on X -> X v: singular values above TOL_RANK
    times the largest, v = 0 having rank 0.

    Couplings are folded into the generators, so the coupled map is the
    map of the unit generators g_i / |g_i| (a zero generator keeps its zero
    column) times an invertible diagonal, and has the same rank.  The rank
    is read off that coupling-free map; the masses and the frame come from
    the coupled one.
    """
    acted = _acted(gs, v)
    norms = np.linalg.norm(gs.matrices, axis=(1, 2))
    free = np.linalg.svd(acted / np.where(norms > 0, norms, 1.0)[:, None], compute_uv=False)
    u, s, vt = np.linalg.svd(acted.T)
    return OrbitFrame(u=u, s=s, vt=vt, rank=int(np.sum(free > TOL_RANK * free[0])))


class StabilizerSplit(NamedTuple):
    """Orthonormal split of the coefficient space at a vacuum.

    unbroken rows annihilate v0; broken rows span the complement.
    """

    unbroken: np.ndarray  # (r - d, r)
    broken: np.ndarray  # (d, r)

    @property
    def d(self) -> int:
        return self.broken.shape[0]


def stabilizer_split(gs: GeneratorSet, v0: np.ndarray) -> StabilizerSplit:
    """Kernel / complement split of X -> X v0 on coefficient vectors.

    v0 = 0 gives an all-unbroken split.
    """
    frame = orbit_frame(gs, v0)
    return StabilizerSplit(
        unbroken=_canonical_rows(frame.vt[frame.rank :]),
        broken=_canonical_rows(frame.vt[: frame.rank]),
    )


def _bosons(frame: OrbitFrame) -> tuple[np.ndarray, np.ndarray]:
    """Mass-diagonal broken rows and the r boson masses M = sqrt(2) s.

    The broken rows are the frame's first rank rows of vt, which
    diagonalize the mass form; masses descend and are zero past the rank.
    Within a cluster of masses equal to TOL_RANK relative to the largest,
    the rows are sign-fixed and sorted lexicographically for determinism,
    so a row's own mass matches its entry only to within that gap.
    """
    d = frame.rank
    masses = np.zeros(frame.vt.shape[0])
    masses[:d] = np.sqrt(2.0) * frame.s[:d]
    scale = frame.s[0] if d else 1.0
    _, broken = _sort_clusters(frame.s[:d] / scale, frame.vt[:d])
    return broken, masses


class OrbitSplit(NamedTuple):
    """Orthonormal split of realified field space at a vacuum.

    orbit rows span the gauge-orbit tangent realify(g v0); transverse
    rows are Hessian eigendirections of the complement.
    """

    orbit: np.ndarray  # (d, 2n)
    transverse: np.ndarray  # (2n - d, 2n)
    higgs_masses: np.ndarray  # (2n - d,) descending
    hessian_eigenvalues: np.ndarray  # full realified spectrum, descending then zeros


def orbit_split(gs: GeneratorSet, v0: np.ndarray, hessian: np.ndarray) -> OrbitSplit:
    """Split the Hessian at a vacuum into orbit and transverse blocks.

    The Hessian must vanish on the orbit directions and be PSD on the
    complement; violations raise NotAVacuumError.  Transverse eigenvalues
    are 2 m^2 for scalar masses m.
    """
    return _orbit_split(orbit_frame(gs, v0), hessian)


def _orbit_split(frame: OrbitFrame, hessian: np.ndarray) -> OrbitSplit:
    d = frame.rank
    H = np.asarray(hessian, dtype=float)
    scale = float(np.max(np.abs(H)))
    e = frame.u[:, :d].T
    P = frame.u[:, d:]
    if d and float(np.max(np.abs(e @ H @ e.T))) > TOL_RANK * scale:
        raise NotAVacuumError(
            "Hessian does not vanish along the vacuum orbit; the point is not a group minimum"
        )
    Hp = P.T @ H @ P
    Hp = 0.5 * (Hp + Hp.T)
    lam, W = np.linalg.eigh(Hp)
    if lam.size and lam.min() < -TOL_RANK * scale:
        raise NotAVacuumError(
            f"Hessian eigenvalue {lam.min():.3e} on the transverse space; not a minimum"
        )
    vals, rows = _sort_clusters(lam, (P @ W).T)
    # flat directions are massless, not the square root of rounding noise;
    # relative to the Hessian itself, so a small mu keeps its Higgs mass
    vals[np.abs(vals) <= TOL_RANK * scale] = 0.0
    eigs = np.concatenate([vals, np.zeros(d)])
    return OrbitSplit(
        orbit=_canonical_rows(e),
        transverse=rows,
        higgs_masses=np.sqrt(vals / 2.0),
        hessian_eigenvalues=eigs,
    )


class ShiftDecomposition(NamedTuple):
    """Coordinates of phi - v0 in the orbit/transverse frame.

    The shift is (1/sqrt 2) (sum_i xi_i e_i + sum_j eta_j f_j) in
    realified coordinates.
    """

    xi: np.ndarray
    eta: np.ndarray


def decompose_shift(split: OrbitSplit, v0: np.ndarray, phi: np.ndarray) -> ShiftDecomposition:
    delta = realify(np.asarray(phi, dtype=complex) - np.asarray(v0, dtype=complex))
    root2 = np.sqrt(2.0)
    return ShiftDecomposition(xi=root2 * (split.orbit @ delta), eta=root2 * (split.transverse @ delta))


def reconstruct_shift(split: OrbitSplit, v0: np.ndarray, dec: ShiftDecomposition) -> np.ndarray:
    """Inverse of decompose_shift; exact because the frame is orthonormal."""
    delta = (split.orbit.T @ dec.xi + split.transverse.T @ dec.eta) / np.sqrt(2.0)
    return np.asarray(v0, dtype=complex) + unrealify(delta)


class SpectrumResult(NamedTuple):
    """Full spectrum data of a broken model at its vacuum."""

    vacuum: np.ndarray
    mass_form_matrix: np.ndarray
    unbroken: np.ndarray  # (r - d, r) coefficient rows
    broken: np.ndarray  # (d, r) mass-diagonal coefficient rows, descending mass
    boson_masses: np.ndarray  # (r,) descending, zeros on the unbroken tail
    goldstone_count: int
    orbit_basis: np.ndarray  # (d, 2n)
    transverse_basis: np.ndarray  # (2n - d, 2n)
    higgs_masses: np.ndarray  # (2n - d,) descending
    hessian_eigenvalues: np.ndarray


def spectrum(model: HiggsModel) -> SpectrumResult:
    """Run the whole pipeline: orbit frame, splits, boson and scalar masses."""
    if model.vacuum is None:
        raise NotAVacuumError("model has no vacuum; run find_vacuum first")
    gs, v0 = model.generators, model.vacuum
    frame = orbit_frame(gs, v0)
    broken, masses = _bosons(frame)
    osplit = _orbit_split(frame, model.potential.hessian(v0))
    return SpectrumResult(
        vacuum=v0,
        mass_form_matrix=mass_form(gs, v0).matrix,
        unbroken=_canonical_rows(frame.vt[frame.rank :]),
        broken=broken,
        boson_masses=masses,
        goldstone_count=frame.rank,
        orbit_basis=osplit.orbit,
        transverse_basis=osplit.transverse,
        higgs_masses=osplit.higgs_masses,
        hessian_eigenvalues=osplit.hessian_eigenvalues,
    )


class QuadraticReport(NamedTuple):
    """Coefficients of the second-order expansion around a candidate vacuum.

    For a genuine vacuum: the constant term, scalar masses on transverse
    modes (Hessian eigenvalue / 2 = m^2), broken boson masses
    (2 x mass-form eigenvalue = M^2), and the massless boson count.
    When the point is not a vacuum the report instead carries the raw
    realified Hessian eigenvalues as scalar_mass_squared and flags
    is_vacuum False; the bosons are reported from the orbit frame as usual.
    """

    is_vacuum: bool
    constant: float
    boson_masses: tuple[float, ...]
    massless_boson_count: int
    goldstone_count: int
    higgs_masses: tuple[float, ...]
    scalar_mass_squared: tuple[float, ...] | None = None


def quadratic_lagrangian(
    model: HiggsModel,
    spec: SpectrumResult | None = None,
    *,
    at: np.ndarray | None = None,
) -> QuadraticReport:
    """Quadratic Lagrangian data at the model's vacuum (or a trial point).

    With a precomputed SpectrumResult this is pure bookkeeping.  Passing
    `at` expands around a trial point instead of the model's vacuum;
    points that fail the stationarity or curvature conditions fall into a
    guard branch reporting raw realified Hessian eigenvalues, with the
    (always well-defined) orbit frame still giving the boson masses.
    """
    v0 = np.asarray(at, dtype=complex) if at is not None else model.vacuum
    if v0 is None:
        raise NotAVacuumError("model has no vacuum; run find_vacuum first")
    const = model.potential.value(v0)
    if spec is None or at is not None:
        try:
            spec = spectrum(HiggsModel(model.generators, model.potential, v0))
        except NotAVacuumError:
            frame = orbit_frame(model.generators, v0)
            _, masses = _bosons(frame)
            eigs = np.sort(np.linalg.eigvalsh(model.potential.hessian(v0)))
            return QuadraticReport(
                is_vacuum=False,
                constant=const,
                boson_masses=tuple(masses),
                massless_boson_count=int(np.sum(masses == 0.0)),
                goldstone_count=frame.rank,
                higgs_masses=(),
                scalar_mass_squared=tuple(eigs),
            )
    return QuadraticReport(
        is_vacuum=True,
        constant=const,
        boson_masses=tuple(spec.boson_masses),
        massless_boson_count=int(np.sum(spec.boson_masses == 0.0)),
        goldstone_count=spec.goldstone_count,
        higgs_masses=tuple(spec.higgs_masses),
    )
