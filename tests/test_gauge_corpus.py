"""Seeded corpus for the unitary-gauge solver over several compact groups.

Models are built from literal generators: su(3) on C^3 (the Gell-Mann
matrices as -i lambda_a / 2), u(3) = su(3) + u(1), su(2) spin 3/2 at two
vacua, su(2) spin 1 and the electroweak doublet.  Each is swept on 16 x 16
fields v0 + a (x + i y) / sqrt(2) with Gaussian x, y, from near the vacuum
(a = 0.35) to far from it (a = 3).
"""
import numpy as np
import pytest

from ssbspec.breaking import orbit_frame
from ssbspec.chiral import su2_irrep
from ssbspec.electroweak import build_model
from ssbspec.liecore import GeneratorSet, expm_skew
from ssbspec.unitarygauge import UnitaryGaugeConfig, apply_unitary_gauge_field


def _gell_mann() -> np.ndarray:
    lam = np.zeros((8, 3, 3), dtype=complex)
    for a, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
        lam[2 * a][i, j] = lam[2 * a][j, i] = 1.0
        lam[2 * a + 1][i, j], lam[2 * a + 1][j, i] = -1j, 1j
    lam[6] = np.diag([1.0, -1.0, 0.0])
    lam[7] = np.diag([1.0, 1.0, -2.0]) / np.sqrt(3.0)
    return lam


SU3 = -0.5j * _gell_mann()
U3 = np.concatenate([SU3, [-1j * np.eye(3) / np.sqrt(6.0)]])
E0 = {n: np.eye(n, dtype=complex)[0] for n in (3, 4)}
DOUBLET = build_model()
MODELS = {
    "su3": (SU3, E0[3]),
    "u3": (U3, E0[3]),
    "spin3/2-e0": (su2_irrep(4), E0[4]),
    "spin3/2-half": (su2_irrep(4), np.full(4, 0.5, dtype=complex)),
    "spin1": (su2_irrep(3), np.ones(3, dtype=complex) / np.sqrt(3.0)),
    "doublet": (DOUBLET.generators.matrices, DOUBLET.vacuum),
}
AMPLITUDES = (0.35, 1.0, 2.0, 3.0)
# models where one climb from the identity is checked against climbs from
# exp(pi a_j) and exp(pi a_j / 2) along every broken direction a_j
MULTI_START = ("spin1", "doublet")
TOL = UnitaryGaugeConfig().tol


def _overlap(v0: np.ndarray, points: np.ndarray) -> np.ndarray:
    return np.real(np.einsum("k,...k->...", np.conj(v0), points))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_corpus_sweeps_cleanly(name):
    mats, v0 = MODELS[name]
    gs = GeneratorSet(mats)
    n = gs.n
    rng = np.random.default_rng(sorted(MODELS).index(name))
    if name in MULTI_START:
        frame = orbit_frame(gs, v0)
        broken = np.einsum("dr,rij->dij", frame.vt[: frame.rank], gs.matrices)
        starts = [expm_skew(c * a) for a in broken for c in (np.pi, np.pi / 2)]
    else:
        starts = []
    for amp in AMPLITUDES:
        field = v0 + amp * (rng.normal(size=(16, 16, n)) + 1j * rng.normal(size=(16, 16, n))) / np.sqrt(2.0)
        out = apply_unitary_gauge_field(gs, v0, field)
        assert out.max_defect < TOL
        assert out.iterations.max() <= 20
        overlap = _overlap(v0, out.transformed)
        assert overlap.min() >= 0
        norms = np.linalg.norm(field, axis=-1)
        np.testing.assert_allclose(np.linalg.norm(out.transformed, axis=-1), norms, rtol=1e-12)
        U = out.transforms
        assert np.max(np.abs(U @ np.conj(np.swapaxes(U, -1, -2)) - np.eye(n))) < 1e-12
        np.testing.assert_allclose((U @ field[..., None])[..., 0], out.transformed, rtol=0, atol=1e-12 * norms.max())
        for start in starts:
            other = apply_unitary_gauge_field(gs, v0, (start @ field[..., None])[..., 0])
            assert np.max(_overlap(v0, other.transformed) - overlap) <= TOL
