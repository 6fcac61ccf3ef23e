import io
import math
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssbspec.chiral import su2_irrep
from ssbspec.cli import main
from ssbspec.electroweak import build_generators, build_model
from ssbspec.higgsmodel import (
    HiggsModel,
    NotAVacuumError,
    PotentialError,
    QuarticPotential,
    check_potential_invariance,
    find_vacuum,
)
from ssbspec.liecore import GeneratorSet, realify, unrealify
from ssbspec.modelfile import emit_document, parse_document, parse_model_file

QUARTIC = QuarticPotential(mu=2.0, lam=1.0)
SPIN1 = pathlib.Path(__file__).resolve().parent / "goldens" / "spin1.model"


def fd_gradient(p, v, h=1e-6):
    x = realify(v)
    out = np.empty(x.size)
    for k in range(x.size):
        e = np.zeros(x.size)
        e[k] = h
        out[k] = (p.value(unrealify(x + e)) - p.value(unrealify(x - e))) / (2 * h)
    return out


def fd_hessian(p, v, h=1e-5):
    x = realify(v)
    out = np.empty((x.size, x.size))
    for k in range(x.size):
        e = np.zeros(x.size)
        e[k] = h
        out[:, k] = (
            p.gradient(unrealify(x + e)) - p.gradient(unrealify(x - e))
        ) / (2 * h)
    return 0.5 * (out + out.T)


def test_parameter_validation():
    assert QuarticPotential(mu=-1.0, lam=1.0).vacuum_radius == 0.0
    with pytest.raises(PotentialError):
        QuarticPotential(mu=1.0, lam=0.0)


@pytest.mark.parametrize(
    "mu, lam", [(1e308, 1e-308), (1e200, 1e-200), (1.7e308, 1.0), (-1e308, 1e-308), (1e250, 1.0)]
)
def test_overflowing_potential_is_refused(mu, lam):
    # mu / (2 lambda) or 2 mu overflowed into an inf radius or Hessian, and
    # the spectrum ended in "Eigenvalues did not converge"
    with pytest.raises(PotentialError, match="overflows"):
        QuarticPotential(mu, lam)


def test_vacuum_radius_and_curvature():
    assert QUARTIC.vacuum_radius == pytest.approx(1.0)
    v0 = np.array([0.0, 1.0], dtype=complex)
    np.testing.assert_array_equal(QUARTIC.gradient(v0), np.zeros(4))
    H = QUARTIC.hessian(v0)
    # the radial realified direction carries curvature 2 mu, the rest is flat
    assert H[2, 2] == pytest.approx(2 * QUARTIC.mu)
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(H)), [0, 0, 0, 2 * QUARTIC.mu], atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_analytic_derivatives_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    g, H = QUARTIC.gradient(v), QUARTIC.hessian(v)
    scale_g = max(1.0, np.linalg.norm(g))
    scale_h = max(1.0, np.abs(H).max())
    assert np.linalg.norm(g - fd_gradient(QUARTIC, v)) / scale_g < 1e-6
    assert np.abs(H - fd_hessian(QUARTIC, v)).max() / scale_h < 1e-6


@pytest.mark.parametrize("seed", range(8))
def test_find_vacuum_hits_sphere(seed):
    model = HiggsModel(build_generators(2.0, 1.0), QUARTIC)
    rng = np.random.default_rng(seed)
    start = rng.normal(size=2) * 3 + 1j * rng.normal(size=2) * 3
    v0 = find_vacuum(model, start)
    assert abs(np.linalg.norm(v0) - QUARTIC.vacuum_radius) < 1e-10


def test_find_vacuum_general_parameters():
    for mu, lam in [(0.5, 0.25), (7.0, 3.0), (1e-2, 4.0)]:
        pot = QuarticPotential(mu, lam)
        model = HiggsModel(build_generators(1.3, 0.6), pot)
        v0 = find_vacuum(model, np.array([0.1 + 0.2j, -0.05j]))
        assert abs(np.linalg.norm(v0) - pot.vacuum_radius) < 1e-9 * max(1.0, pot.vacuum_radius)


def test_find_vacuum_rejects_zero_seed():
    model = HiggsModel(build_generators(2.0, 1.0), QUARTIC)
    with pytest.raises(PotentialError):
        find_vacuum(model, np.zeros(2, dtype=complex))
    for bad in (np.nan, np.inf):
        with pytest.raises(PotentialError):
            find_vacuum(model, np.array([1.0, bad]))


@pytest.mark.parametrize("size", [1e-200, 1e200])
def test_find_vacuum_takes_seeds_of_any_size(size):
    # |seed|^2 would under- or overflow; only the direction may matter
    model = HiggsModel(build_generators(2.0, 1.0), QUARTIC)
    v0 = find_vacuum(model, size * np.array([3.0, 4.0j]))
    np.testing.assert_allclose(v0, [0.6, 0.8j], rtol=1e-15)


def test_model_verifies_supplied_vacuum():
    gens = build_generators(2.0, 1.0)
    HiggsModel(gens, QUARTIC, np.array([0.0, 1.0]))  # on the sphere: fine
    with pytest.raises(NotAVacuumError):
        HiggsModel(gens, QUARTIC, np.array([0.0, 1.7]))
    with pytest.raises(NotAVacuumError):
        HiggsModel(gens, QUARTIC, np.array([0.0, 1.0, 0.0]))


def _model_text(generators: np.ndarray, mu: float, lam: float, vacuum=None) -> str:
    doc = {
        "algebra": {
            "n": generators.shape[1],
            "r": generators.shape[0],
            "generators": np.stack([generators.real, generators.imag], -1),
        },
        "potential": {"mu": mu, "lambda": lam},
    }
    if vacuum is not None:
        doc["vacuum"] = {"vector": np.stack([vacuum.real, vacuum.imag], -1)}
    return emit_document(doc)


def _spectrum(tmp_path, text: str) -> tuple[int, str]:
    path = tmp_path / "probe.model"
    path.write_text(text)
    out = io.StringIO()
    return main(["spectrum", "--model", str(path), "--format", "machine"], stdout=out), out.getvalue()


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
def test_vacuum_off_the_sphere_is_rejected_at_any_scale(scale, tmp_path):
    # |v| is 1e-6 too long; the bound must shrink with mu and lambda, or a
    # shallow potential lets any point through
    vacuum = np.array([0.0, math.sqrt(0.5) * (1 + 1e-6)], dtype=complex)  # radius sqrt(mu / 2 lambda)
    code, text = _spectrum(tmp_path, _model_text(build_generators(2.0, 1.0).matrices, scale, scale, vacuum))
    assert code == 2
    assert "gradient norm" in text


@pytest.mark.parametrize("extra", [[], ["--g", "1e8"]])
def test_electroweak_at_large_mu_is_a_vacuum(extra):
    # the rounding of the gradient grows as mu |v|, so its bound must too
    out = io.StringIO()
    assert main(["electroweak", "--mu", "1e16", *extra], stdout=out) == 0, out.getvalue()


def test_origin_is_no_vacuum_at_tiny_positive_mu():
    # the Hessian there is -mu I, a maximum at any mu > 0
    with pytest.raises(NotAVacuumError):
        HiggsModel(build_generators(2.0, 1.0), QuarticPotential(mu=1e-10, lam=1.0), np.zeros(2))


def _spin1_spectrum(tmp_path, mu: float, lam: float) -> tuple[int, str]:
    text = SPIN1.read_text().replace("mu = 2.0", f"mu = {mu!r}").replace("lambda = 1.0", f"lambda = {lam!r}")
    return _spectrum(tmp_path, text)


def test_spin1_vacuum_sits_on_the_sphere(tmp_path):
    # a vacuum 5e-3 from the origin: a point a little off the sphere still
    # passed the report's absolute checks, with two false Higgs masses
    mu, lam = 1.395298591907157e-06, 0.02817135803262835
    code, text = _spin1_spectrum(tmp_path, mu, lam)
    assert code == 0, text
    doc = parse_document(text)
    radius = math.sqrt(mu / (2 * lam))
    assert abs(doc["model"]["vacuum_norm"] - radius) <= 4 * math.ulp(radius)
    higgs = doc["spectrum"]["higgs_masses"]
    assert higgs[0] == pytest.approx(math.sqrt(mu), rel=1e-13)
    assert higgs[1:] == [0.0, 0.0]


@pytest.mark.parametrize("mu", [1e110, 1e115, 1e120, 1e150, 1e200])
def test_spin1_gradient_norm_does_not_overflow(tmp_path, mu):
    # a gradient of about 1e156 squared to inf in np.linalg.norm, so the
    # closed-form vacuum read as "gradient norm inf" at mu = 1e115
    path = tmp_path / "spin1.model"
    path.write_text(SPIN1.read_text().replace("mu = 2.0", f"mu = {mu!r}"))
    for command in ("spectrum", "validate"):
        out = io.StringIO()
        assert main([command, "--model", str(path), "--format", "machine"], stdout=out) == 0, out.getvalue()
        doc = parse_document(out.getvalue())
        checks = doc["validation" if command == "spectrum" else "checks"]
        assert math.isfinite(checks["vacuum_gradient"]) and checks["pass"] is True


def test_spin1_gradient_beyond_the_float_range_is_refused_at_mu(tmp_path):
    # at mu = 1e250 the rounded vacuum gradient, about eps mu |v|, overflowed
    # with a warning, and the check's bound with it, so both reports read
    # vacuum_gradient = inf beside pass = true; at mu = 1e210 it is finite
    path = tmp_path / "spin1.model"
    for mu, code in (("1e250", 2), ("1e210", 0)):
        path.write_text(SPIN1.read_text().replace("mu = 2.0", f"mu = {mu}"))
        for command in ("spectrum", "validate"):
            out = io.StringIO()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main([command, "--model", str(path), "--format", "machine"], stdout=out) == code
            if code:
                assert out.getvalue().startswith("error: line 9 [potential]: quartic potential overflows")
                assert out.getvalue().count("\n") == 1
            else:
                checks = parse_document(out.getvalue())["validation" if command == "spectrum" else "checks"]
                assert math.isfinite(checks["vacuum_gradient"])


def test_vacuum_too_long_to_square_is_not_a_vacuum():
    # |v|^2 overflowed: the gradient and the check's bound both read inf, so
    # the check passed and the spectrum ended in an unlocated error
    pot = QuarticPotential(2.0, 1.0)
    gs = GeneratorSet(su2_irrep(3))
    for size in (1e140, 1e150, 1e160):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotAVacuumError, match="gradient norm inf"):
                HiggsModel(gs, pot, [size, 0.0, 0.0])


def test_spin1_vacuum_at_a_large_radius(tmp_path):
    # a vacuum 1e4 from the origin, with a flat potential (lambda = 3e-8)
    code, text = _spin1_spectrum(tmp_path, 6.215828204666023, 2.7602334328549775e-08)
    assert code == 0, text


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(1, 5),
    st.floats(-8.0, 8.0),
    st.floats(-8.0, 8.0),
)
def test_parsed_vacuum_is_the_closed_form(n, log_mu, log_lam):
    mu, lam = 10.0**log_mu, 10.0**log_lam
    # su(2) acts as zero on a singlet, and a model file refuses a zero
    # generator, so the singlet takes u(1)'s
    generators = su2_irrep(n) if n > 1 else np.array([[[1j]]])
    vacuum = parse_model_file(_model_text(generators, mu, lam)).model.vacuum
    # parallel to (1, ..., 1): every entry the same positive real
    assert np.all(vacuum == vacuum[0]) and vacuum[0].imag == 0 and vacuum[0].real > 0
    radius = math.sqrt(mu / (2 * lam))
    assert abs(float(np.linalg.norm(vacuum)) - radius) <= 4 * math.ulp(radius)


class Lopsided:
    """V(v) = <v, D v> for D = diag(1, 2); only its value is used."""

    def value(self, v):
        return float(np.vdot(v, np.diag([1.0, 2.0]) @ v).real)


def test_invariance_check_quartic_and_broken():
    model = build_model()
    defect, scale = check_potential_invariance(model, samples=100, seed=3)
    assert defect < 1e-9 and scale > 0
    # a non-scalar diagonal quadratic form is not invariant under the action
    skewed = HiggsModel(model.generators, Lopsided())
    assert check_potential_invariance(skewed, samples=100, seed=3)[0] > 0.01
