"""Equivariant maps between representations and trilinear invariants.

A representation of the symmetry algebra on one multiplet is a
liecore.GeneratorSet, the skew-Hermitian image of the model's one basis:
every representation of a model has the same generator count r, and its
dimension is the set's n.

The obstruction to a fermion bilinear mass term is Schur's lemma in
computational form: the pairing exists iff the space of equivariant maps
between the two representations is nonzero, and that space is the null
space of a stacked commutation system, found here by singular value
thresholding.  Trilinear couplings are handled the same way at the level
of an invariance defect: the summed infinitesimal action on the
coefficient tensor must vanish, with conjugate slots acted on by the
complex conjugate matrices.
"""
from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .electroweak import PAULI
from .liecore import TOL_RANK, GeneratorSet

__all__ = [
    "IntertwinerBasis",
    "RepresentationError",
    "TripleProduct",
    "electroweak_fermion_representations",
    "electroweak_yukawa_tensor",
    "fermion_mass_after_breaking",
    "fermion_mass_matrix",
    "intertwiner_basis",
    "su2_irrep",
    "triple_invariance_defect",
]


class RepresentationError(ValueError):
    """Bad trilinear tensor, mismatched representations or irrep dimension."""


class IntertwinerBasis(NamedTuple):
    """Basis of {K : L_i K = K R_i for every generator i}."""

    matrices: tuple[np.ndarray, ...]  # each (dim_left, dim_right)
    singular_values: np.ndarray  # of the stacked commutation system

    @property
    def dimension(self) -> int:
        return len(self.matrices)


def intertwiner_basis(rep_left: GeneratorSet, rep_right: GeneratorSet) -> IntertwinerBasis:
    """Null space of the stacked system {L_i K - K R_i = 0}.

    Row-major vectorization turns each equation into
    (L_i kron I - I kron R_i^T) vec(K) = 0; the joint null space is read
    off the SVD of the stack.
    """
    if rep_left.r != rep_right.r:
        raise RepresentationError(
            f"generator counts differ: {rep_left.r} vs {rep_right.r}"
        )
    dl, dr = rep_left.n, rep_right.n
    blocks = [
        np.kron(li, np.eye(dr)) - np.kron(np.eye(dl), ri.T)
        for li, ri in zip(rep_left.matrices, rep_right.matrices)
    ]
    system = np.concatenate(blocks, axis=0)
    _, s, vh = np.linalg.svd(system)
    smax = s[0] if s.size else 0.0
    kept = []
    for k in range(dl * dr):
        sv = s[k] if k < s.size else 0.0
        if sv <= TOL_RANK * smax:
            kept.append(np.conj(vh[k]).reshape(dl, dr))
    return IntertwinerBasis(matrices=tuple(kept), singular_values=s)


class TripleProduct(namedtuple("TripleProduct", "tensor conjugated")):
    """Trilinear coefficient tensor with per-slot conjugation flags.

    tensor is a (dim_a, dim_b, dim_c) complex array, stored as a read-only
    copy; conjugated is stored as a tuple of three bools.
    """

    __slots__ = ()

    def __new__(cls, tensor: np.ndarray, conjugated: tuple[bool, bool, bool]):
        t = np.array(tensor, dtype=complex)
        if t.ndim != 3:
            raise RepresentationError(f"tensor must have three slots, got shape {t.shape}")
        if not np.all(np.isfinite(t.view(float))):
            raise RepresentationError("tensor entries must be finite")
        t.setflags(write=False)
        return super().__new__(cls, t, tuple(bool(f) for f in conjugated))

    def contract(self, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> complex:
        """tau(a, b, c); conjugated slots conjugate their argument."""
        args = [np.asarray(v, dtype=complex) for v in (a, b, c)]
        args = [np.conj(v) if f else v for v, f in zip(args, self.conjugated)]
        return complex(np.einsum("abc,a,b,c->", self.tensor, *args))


def _slot_action(rep: GeneratorSet, i: int, conjugated: bool) -> np.ndarray:
    m = rep.matrices[i]
    return np.conj(m) if conjugated else m


def triple_invariance_defect(
    tau: TripleProduct,
    rep_a: GeneratorSet,
    rep_b: GeneratorSet,
    rep_c: GeneratorSet,
) -> float:
    """Largest norm over generators of the summed slot action on the tensor.

    Zero exactly when the trilinear form is invariant; conjugate slots
    use the conjugate matrices.
    """
    reps = (rep_a, rep_b, rep_c)
    if tau.tensor.shape != tuple(rp.n for rp in reps):
        raise RepresentationError(
            f"tensor shape {tau.tensor.shape} does not match representation "
            f"dimensions {tuple(rp.n for rp in reps)}"
        )
    if len({rp.r for rp in reps}) != 1:
        raise RepresentationError("representations must share one generator count")
    worst = 0.0
    for i in range(rep_a.r):
        xa = _slot_action(rep_a, i, tau.conjugated[0])
        xb = _slot_action(rep_b, i, tau.conjugated[1])
        xc = _slot_action(rep_c, i, tau.conjugated[2])
        moved = (
            np.einsum("ax,xbc->abc", xa, tau.tensor)
            + np.einsum("bx,axc->abc", xb, tau.tensor)
            + np.einsum("cx,abx->abc", xc, tau.tensor)
        )
        worst = max(worst, float(np.linalg.norm(moved)))
    return worst


def electroweak_fermion_representations(
    g: float, gp: float
) -> tuple[GeneratorSet, GeneratorSet, GeneratorSet]:
    """Left lepton doublet, scalar doublet, right electron singlet.

    Hypercharge factors: -gp/2 on the left doublet, +gp/2 on the scalar,
    -gp on the right singlet, so the conjugate-linear slot balances the
    abelian phases of the Yukawa coupling.
    """
    su2 = 0.5j * g * PAULI
    eye2 = np.eye(2)
    left = GeneratorSet(np.concatenate([su2, [-0.5j * gp * eye2]]))
    scalar = GeneratorSet(np.concatenate([su2, [0.5j * gp * eye2]]))
    singlet = GeneratorSet(
        np.concatenate([np.zeros((3, 1, 1), dtype=complex), [[[-1j * gp]]]])
    )
    return left, scalar, singlet


def electroweak_yukawa_tensor() -> TripleProduct:
    """The delta pairing of the lepton doublet with the scalar doublet.

    Entries tensor[a, b, 0] = delta_ab; slot one is conjugate linear.
    """
    t = np.zeros((2, 2, 1), dtype=complex)
    t[0, 0, 0] = 1.0
    t[1, 1, 0] = 1.0
    return TripleProduct(tensor=t, conjugated=(True, False, False))


def _frozen_coupling(tau: TripleProduct, v0: np.ndarray, g_y: float) -> np.ndarray:
    """g_y tau(., v0, .), the coupling matrix between the two fermion slots
    with the scalar slot frozen at v0, shape (dim_a, dim_c)."""
    v = np.asarray(v0, dtype=complex)
    if v.shape != (tau.tensor.shape[1],):
        raise RepresentationError(
            f"scalar slot expects a vector of length {tau.tensor.shape[1]}"
        )
    if tau.conjugated[1]:
        v = np.conj(v)
    return g_y * np.einsum("abc,b->ac", tau.tensor, v)


def fermion_mass_matrix(tau: TripleProduct, v0: np.ndarray, g_y: float) -> np.ndarray:
    """|coupling matrix| between the two fermion slots after freezing the
    scalar slot at v0; entry magnitudes, shape (dim_a, dim_c)."""
    return np.abs(_frozen_coupling(tau, v0, g_y))


def fermion_mass_after_breaking(tau: TripleProduct, v0: np.ndarray, g_y: float) -> float:
    """Dirac mass produced by freezing the scalar slot at the vacuum.

    Returns the largest singular value of the frozen coupling matrix;
    rows of fermion_mass_matrix that vanish are the modes left massless.
    """
    return float(np.linalg.norm(_frozen_coupling(tau, v0, g_y), ord=2))


def su2_irrep(dim: int) -> np.ndarray:
    """Skew-Hermitian su(2) irreducible action on C^dim (spin (dim-1)/2).

    Returns the stack (i J_1, i J_2, i J_3) built from the standard
    ladder operators; brackets close with the same structure constants
    for every dim.
    """
    if dim < 1:
        raise RepresentationError("dimension must be at least 1")
    j = 0.5 * (dim - 1)
    m = j - np.arange(dim)  # weights, descending
    up = np.zeros((dim, dim), dtype=complex)
    for k in range(dim - 1):
        up[k, k + 1] = np.sqrt(j * (j + 1) - m[k + 1] * (m[k + 1] + 1))
    j1 = 0.5 * (up + up.conj().T)
    j2 = -0.5j * (up - up.conj().T)
    j3 = np.diag(m).astype(complex)
    return 1j * np.stack([j1, j2, j3])
