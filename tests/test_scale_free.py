"""Scale-free decisions: every check is judged on its own scale.

Couplings are folded into the generators, so the orbit map at any
couplings is the unit-coupling map times an invertible diagonal, and the
Goldstone count cannot depend on them.  These tests run the CLI through
main() over couplings and potential parameters spanning many decades,
and on the zero scales (an abelian algebra, a zero generator, a zero
Yukawa matrix) where a relative check meets a scale of 0.
"""
import io
import math
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssbspec.breaking import orbit_frame, spectrum
from ssbspec.chiral import su2_irrep
from ssbspec.cli import main
from ssbspec.electroweak import build_generators
from ssbspec.higgsmodel import HiggsModel
from ssbspec.liecore import GeneratorSet
from ssbspec.modelfile import emit_document, parse_document, parse_model_file

ROOT = pathlib.Path(__file__).resolve().parent.parent
EW = ROOT / "models" / "electroweak.model"
SPIN1 = ROOT / "tests" / "goldens" / "spin1.model"
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def log_uniform(decades):
    return st.floats(-decades, decades).map(lambda k: 10.0**k)


def run(*argv):
    """Exit code and parsed machine report; any numpy warning is an error."""
    out = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(list(argv) + ["--format", "machine"], stdout=out)
    assert "nan" not in out.getvalue()
    return code, parse_document(out.getvalue())


@PROPERTY
@given(g=log_uniform(150), gp=log_uniform(150), mu=log_uniform(150), lam=log_uniform(150))
def test_electroweak_spectrum_at_any_scale(g, gp, mu, lam):
    code, doc = run("electroweak", "--g", repr(g), "--gp", repr(gp), "--mu", repr(mu), "--lambda", repr(lam))
    assert code == 0, doc["validation"]
    tol, m = doc["report"]["tolerance"], doc["masses"]
    assert m["goldstone_count"] == 3
    for got, want in zip(m["numerical_bosons"], [m["z"], m["w"], m["w"]]):
        assert abs(got - want) <= tol * want
    assert m["numerical_bosons"][3] == 0.0
    (higgs,) = m["numerical_higgs"]
    assert abs(higgs - m["higgs"]) <= tol * m["higgs"]


BASES = {
    "doublet": (build_generators(2.0, 1.0).matrices, np.array([0.0, 1.0])),
    "spin1": (su2_irrep(3), np.ones(3) / math.sqrt(3.0)),
}


@PROPERTY
@given(name=st.sampled_from(sorted(BASES)), data=st.data())
def test_power_of_two_couplings_change_no_decision(name, data):
    # each generator rescaled by its own power of two has the same unit
    # basis, so closure and rank read the same bit for bit, and the structure
    # constants and coefficients move by exact powers of two
    matrices, v0 = BASES[name]
    k = np.array(data.draw(st.lists(st.integers(-900, 900), min_size=len(matrices), max_size=len(matrices))))
    base = GeneratorSet(matrices)
    scaled = GeneratorSet(np.ldexp(matrices.view(float), k[:, None, None]).view(complex))
    mats = np.random.default_rng(len(v0)).normal(size=(5, len(v0), len(v0), 2)).view(complex)[..., 0]
    assert scaled.closure_defect() == base.closure_defect()
    assert orbit_frame(scaled, v0).rank == orbit_frame(base, v0).rank
    (c, defect), (c_scaled, defect_scaled) = base.project(mats), scaled.project(mats)
    assert np.array_equal(c_scaled, np.ldexp(c, -k)) and np.array_equal(defect_scaled, defect)
    # an exponent k_i + k_j - k_k past the float range overflows or underflows
    # the same way in both
    with np.errstate(over="ignore", under="ignore"):
        want = np.ldexp(base.structure_constants(), k[:, None, None] + k[None, :, None] - k)
        assert np.array_equal(scaled.structure_constants(), want)


@PROPERTY
@given(mu=log_uniform(8), lam=log_uniform(8))
def test_spin1_spectrum_and_validate_at_any_scale(tmp_path_factory, mu, lam):
    text = SPIN1.read_text().replace("mu = 2.0", f"mu = {mu!r}").replace("lambda = 1.0", f"lambda = {lam!r}")
    path = tmp_path_factory.mktemp("spin1") / "scaled.model"
    path.write_text(text)
    code, doc = run("spectrum", "--model", str(path))
    assert code == 0, doc["validation"]
    tol, spec = doc["report"]["tolerance"], doc["spectrum"]
    assert spec["goldstone_count"] == 3
    higgs, *flat = spec["higgs_masses"]
    assert abs(higgs - math.sqrt(mu)) <= tol * math.sqrt(mu)
    assert flat == [0.0, 0.0]
    code, doc = run("validate", "--model", str(path))
    assert code == 0 and doc["checks"]["pass"] is True, doc["checks"]


@pytest.mark.parametrize("su2, u1", [(1e-9, 1e9), (1e9, 1e-9)])
def test_rescaled_electroweak_model(tmp_path, su2, u1):
    doc = parse_document(EW.read_text())
    algebra = doc["algebra"]
    algebra["generators"] = (
        (np.array(algebra["generators"]) * np.array([su2, su2, su2, u1])[:, None, None, None]).tolist()
    )
    path = tmp_path / "rescaled.model"
    path.write_text(emit_document(doc))
    code, report = run("spectrum", "--model", str(path))
    assert code == 0, report["validation"]
    spec = report["spectrum"]
    assert spec["goldstone_count"] == 3
    # vacuum (0, 1): W = g / sqrt 2, Z = sqrt(g^2 + g'^2) / sqrt 2, g = 2 su2, g' = u1
    w, z = 2.0 * su2 / math.sqrt(2.0), math.hypot(2.0 * su2, u1) / math.sqrt(2.0)
    assert spec["boson_masses"] == pytest.approx([z, w, w, 0.0], rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "argv",
    [
        ["--g", "3e102"],
        ["--g", "1e103"],
        ["--g", "1e154"],
        ["--g", "1e-100", "--gp", "1e100"],
        ["--g", "1e100", "--gp", "1e-60"],
        ["--g", "1e-160", "--gp", "1e-160"],
        ["--g", "1e-170"],
        ["--g", "1e300"],
        ["--g", "1e200", "--gp", "1e-100"],
        ["--g", "1e200"],
        ["--g", "1e60", "--mu", "1e200"],
        ["--g", "1e155"],
        ["--g", "1e200", "--gp", "1e200"],
        ["--g", "1e300", "--gp", "1e300"],
        ["--g", "1e250", "--gp", "1e300"],
    ],
    ids=[
        "3e102", "1e103", "1e154", "split-1e200", "split-1e160", "1e-160-both", "1e-170", "1e300",
        "split-1e300", "1e200", "1e60-mu-1e200", "1e155", "1e200-both", "1e300-both", "1e250-1e300",
    ],
)
def test_electroweak_huge_coupling(argv):
    # the closure brackets overflowed: 3e102 warned and failed, 1e103 ended
    # in "cannot emit NaN"; couplings 200 decades apart must keep passing.
    # Each later input failed once a generator's or the mass form's squares
    # left the float range: 1e-160 ended in "cannot emit NaN", 1e-170, 1e300
    # and split-1e300 read a generator as zero, 1e200 failed a closure bound
    # of tol max|X|^2 = inf beside closure_defect = 0.0, 1e60-mu-1e200 and
    # 1e155 warned in the mass form, and the last three in the unbroken
    # action's norm
    code, doc = run("electroweak", *argv)
    assert code == 0, doc["validation"]


@pytest.mark.parametrize(
    "argv",
    [["--g", "1e-310"], ["--gp", "1e-310"], ["--g", "1e-310", "--gp", "1e-310"]],
    ids=["g", "gp", "both"],
)
def test_electroweak_subnormal_coupling_keeps_the_charges(argv):
    # numpy divides a complex array by g as a product with 1/g, which
    # overflowed: --g 1e-310 printed isospin [inf, -inf] at exit 0, and
    # --gp 1e-310 a NaN charge that the machine format could not emit
    code, doc = run("electroweak", *argv)
    assert code == 0, doc["validation"]
    derived = doc["derived"]
    np.testing.assert_allclose(derived["isospin_diagonal"], [0.5, -0.5], rtol=0.0, atol=5e-14)
    np.testing.assert_allclose(derived["hypercharge_diagonal"], [1.0, 1.0], rtol=0.0, atol=5e-14)
    np.testing.assert_allclose(derived["charge_diagonal"], [1.0, 0.0], rtol=0.0, atol=5e-14)


@pytest.mark.parametrize("argv", [["--gp", "1.5e-323"], ["--g", "1.5e-323"]], ids=["gp", "g"])
def test_electroweak_wrong_charges_fail_the_report(argv):
    # three ulps: the generators carry the half rounded up to two ulps, and
    # charge_operators divides by the exact coupling; the report printed the
    # wrong charges with pass = true at exit 0
    code, doc = run("electroweak", *argv)
    assert code == 1 and doc["validation"]["pass"] is False
    exact = [[0.5, -0.5], [1.0, 1.0], [1.0, 0.0]]
    derived = doc["derived"]
    got = [derived[key] for key in ("isospin_diagonal", "hypercharge_diagonal", "charge_diagonal")]
    assert got != exact and max(abs(x - y) for g, e in zip(got, exact) for x, y in zip(g, e)) > 0.1


@pytest.mark.parametrize("name", ["g", "gp"])
def test_electroweak_coupling_whose_half_underflows_is_refused(name):
    # the generators carry half of each coupling: at 5e-324 that is 0, and
    # the report ended in "generator 0 is zero"
    out = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["electroweak", f"--{name}", "5e-324", "--format", "machine"], stdout=out)
    assert code == 2
    assert out.getvalue() == f"error: electroweak parameter {name} = 5e-324 is too small: its half underflows to 0\n"


@pytest.mark.parametrize("factor", [1e100, 1e104, 1e140, 1e154])
def test_spin1_model_with_huge_generators(tmp_path, factor):
    # validate warned and failed at x1e100 and ended in "cannot emit NaN" at
    # x1e140; at x1e154 the generator norms' squares overflowed and spectrum
    # read every boson as massless
    doc = parse_document(SPIN1.read_text())
    doc["algebra"]["generators"] = (np.array(doc["algebra"]["generators"]) * factor).tolist()
    path = tmp_path / "huge.model"
    path.write_text(emit_document(doc))
    code, report = run("spectrum", "--model", str(path))
    assert code == 0, report["validation"]
    assert report["spectrum"]["goldstone_count"] == 3
    assert report["spectrum"]["boson_masses"][-1] == pytest.approx(factor * math.sqrt(2.0 / 3.0), rel=1e-12)
    code, report = run("validate", "--model", str(path))
    assert code == 0, report["checks"]


ABELIAN = """\
[algebra]
n = 2
r = 2
generators = [[[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]], [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]]

[potential]
mu = 2.0
lambda = 1.0
"""


def test_abelian_model_has_zero_brackets_and_passes(tmp_path):
    path = tmp_path / "abelian.model"
    path.write_text(ABELIAN)
    code, doc = run("spectrum", "--model", str(path), "--seed", "7")
    assert code == 0
    assert doc["spectrum"]["boson_masses"] == [1.0, 1.0]
    assert doc["spectrum"]["goldstone_count"] == 2
    assert doc["spectrum"]["higgs_masses"] == [1.4142135623730949, 0.0]
    assert doc["validation"]["closure_defect"] == 0.0
    assert doc["validation"]["pass"] is True
    code, doc = run("validate", "--model", str(path), "--seed", "7")
    assert code == 0 and doc["checks"]["pass"] is True


def test_zero_generator_keeps_its_zero_column():
    # built in the library: a model file refuses a zero generator at its line
    shipped = parse_model_file(EW.read_text()).model
    zeroed = np.array(shipped.generators.matrices)
    zeroed[3] = 0.0
    model = HiggsModel(GeneratorSet(zeroed), shipped.potential, shipped.vacuum)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert orbit_frame(model.generators, model.vacuum).rank == 3
        masses = spectrum(model).boson_masses
    assert masses == pytest.approx([math.sqrt(2.0)] * 3 + [0.0], rel=1e-15, abs=0.0)
    assert masses[3] == 0.0


def test_zero_yukawa_matrix_leaves_every_row_massless(tmp_path):
    path = tmp_path / "zero_yukawa.model"
    path.write_text(EW.read_text().replace("g_y = 0.5", "g_y = 0.0"))
    code, doc = run("yukawa", "--model", str(path))
    assert code == 0
    assert doc["yukawa"]["massless_rows"] == [0, 1]
    assert doc["yukawa"]["pass"] is True


UNIT_TENSOR = "tensor = [[[[1.0, 0.0]], [[0.0, 0.0]]], [[[0.0, 0.0]], [[1.0, 0.0]]]]"
SINGLET = "right_singlet = [[[[0.0, 0.0]]], [[[0.0, 0.0]]], [[[0.0, 0.0]]], [[[0.0, -1.0]]]]"


def _yukawa_model(tmp_path, entry, hypercharge="-1.0", g_y="0.5"):
    """The shipped model with its tensor's two entries, the singlet's hypercharge and g_y replaced."""
    text = EW.read_text()
    assert UNIT_TENSOR in text and SINGLET in text
    text = text.replace(UNIT_TENSOR, UNIT_TENSOR.replace("1.0, 0.0]]", f"{entry}, 0.0]]"))
    text = text.replace(SINGLET, SINGLET.replace("-1.0", hypercharge)).replace("g_y = 0.5", f"g_y = {g_y}")
    path = tmp_path / "yukawa.model"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("entry", ["1.0", "1e200"])
def test_yukawa_huge_tensor_is_judged_without_overflow(tmp_path, entry):
    # the defect and its scale were np.linalg.norm's: at 1e200 the flipped
    # singlet read invariance_defect = inf and passed, and the invariant
    # tensor warned
    code, doc = run("yukawa", "--model", _yukawa_model(tmp_path, entry))
    assert code == 0 and doc["yukawa"]["invariance_defect"] == 0.0
    assert doc["yukawa"]["dirac_mass"] == 0.5 * float(entry)
    code, doc = run("yukawa", "--model", _yukawa_model(tmp_path, entry, hypercharge="1.0"))
    assert code == 1 and doc["yukawa"]["pass"] is False
    assert doc["yukawa"]["invariance_defect"] == pytest.approx(2.0 * math.sqrt(2.0) * float(entry), rel=1e-15)


@pytest.mark.parametrize("fmt", ["machine", "table"])
@pytest.mark.parametrize("command", ["yukawa", "validate"])
def test_overflowing_yukawa_coupling_is_refused_at_its_line(tmp_path, command, fmt):
    # |g_y| |tensor| |v0| = 1e308 sqrt(200): the table once printed dirac_mass
    # nan and massless_rows [0, 1] at exit 0, the machine format "cannot emit NaN"
    out = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--model", _yukawa_model(tmp_path, "10.0", g_y="1e308"), "--format", fmt], stdout=out)
    assert code == 2
    assert out.getvalue() == (
        "error: line 28 [yukawa]: g_y = 1e+308 makes the fermion masses overflow at this tensor and vacuum\n"
    )
