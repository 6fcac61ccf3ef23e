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

from typing import NamedTuple

import numpy as np

from .higgsmodel import HiggsModel, NotAVacuumError
from .liecore import TOL_RANK, GeneratorSet, realify

__all__ = [
    "OrbitFrame",
    "SpectrumResult",
    "mass_form",
    "orbit_frame",
    "spectrum",
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


def mass_form(gs: GeneratorSet, v0: np.ndarray) -> np.ndarray:
    """Mass form m_ij = Re <g_i v0, g_j v0> of the vacuum v0 on coefficient
    vectors; symmetric PSD, exactly symmetric by construction."""
    T = _acted(gs, v0)
    return T @ T.T


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
    map of the unit basis (GeneratorSet.unit_basis, each generator divided
    by a power of two; a zero generator keeps its zero column) times an
    invertible diagonal, and has the same rank.  The rank is read off that
    coupling-free map; the masses and the frame come from the coupled one.
    """
    acted = _acted(gs, v)
    free = np.linalg.svd(realify(gs.unit_basis()[1] @ np.asarray(v, dtype=complex)), compute_uv=False)
    u, s, vt = np.linalg.svd(acted.T)
    return OrbitFrame(u=u, s=s, vt=vt, rank=int(np.sum(free > TOL_RANK * free[0])))


def _orbit_split(frame: OrbitFrame, hessian: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split the Hessian at a vacuum into orbit and transverse blocks.

    Returns the orbit rows, spanning the gauge-orbit tangent realify(g v0);
    the transverse rows, Hessian eigendirections of the complement; and the
    scalar masses m, descending, from the transverse eigenvalues 2 m^2.
    The Hessian must vanish on the orbit directions, or NotAVacuumError is
    raised.  It needs no check for a negative transverse eigenvalue: the
    block's smallest is at least the Hessian's, which HiggsModel bounds.
    """
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
    lam, W = np.linalg.eigh(0.5 * (Hp + Hp.T))
    vals, rows = _sort_clusters(lam, (P @ W).T)
    # flat directions are massless, not the square root of rounding noise;
    # relative to the Hessian itself, so a small mu keeps its Higgs mass
    vals[np.abs(vals) <= TOL_RANK * scale] = 0.0
    return _canonical_rows(e), rows, np.sqrt(vals / 2.0)


class SpectrumResult(NamedTuple):
    """Full spectrum data of a broken model at its vacuum."""

    unbroken: np.ndarray  # (r - d, r) coefficient rows
    boson_masses: np.ndarray  # (r,) descending, zeros on the unbroken tail
    goldstone_count: int
    orbit_basis: np.ndarray  # (d, 2n)
    transverse_basis: np.ndarray  # (2n - d, 2n)
    higgs_masses: np.ndarray  # (2n - d,) descending


def spectrum(model: HiggsModel) -> SpectrumResult:
    """Run the whole pipeline: orbit frame, splits, boson and scalar masses.

    The boson masses are M = sqrt(2) s on the frame's first rank singular
    values and zero past them; the broken directions are the frame's first
    rank rows of vt, which diagonalize the mass form.
    """
    if model.vacuum is None:
        raise NotAVacuumError("model has no vacuum; run find_vacuum first")
    gs, v0 = model.generators, model.vacuum
    frame = orbit_frame(gs, v0)
    d = frame.rank
    masses = np.zeros(frame.vt.shape[0])
    masses[:d] = np.sqrt(2.0) * frame.s[:d]
    orbit, transverse, higgs = _orbit_split(frame, model.potential.hessian(v0))
    return SpectrumResult(
        unbroken=_canonical_rows(frame.vt[d:]),
        boson_masses=masses,
        goldstone_count=d,
        orbit_basis=orbit,
        transverse_basis=transverse,
        higgs_masses=higgs,
    )
