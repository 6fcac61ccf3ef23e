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
from ssbspec.cli import main
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
@given(g=log_uniform(12), gp=log_uniform(12), mu=log_uniform(12), lam=log_uniform(12))
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
    algebra["factors"] = [["su2", [0, 1, 2], 2.0 * su2], ["u1", [3], u1]]
    path = tmp_path / "rescaled.model"
    path.write_text(emit_document(doc))
    code, report = run("spectrum", "--model", str(path))
    assert code == 0, report["validation"]
    spec = report["spectrum"]
    assert spec["goldstone_count"] == 3
    # vacuum (0, 1): W = g / sqrt 2, Z = sqrt(g^2 + g'^2) / sqrt 2, g = 2 su2, g' = u1
    w, z = 2.0 * su2 / math.sqrt(2.0), math.hypot(2.0 * su2, u1) / math.sqrt(2.0)
    assert spec["boson_masses"] == pytest.approx([z, w, w, 0.0], rel=1e-12, abs=0.0)


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
    doc = parse_document(EW.read_text())
    doc["algebra"]["generators"][3] = np.zeros((2, 2, 2)).tolist()
    del doc["algebra"]["factors"], doc["representations"], doc["yukawa"]
    model = parse_model_file(emit_document(doc)).model
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
