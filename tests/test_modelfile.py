"""Document dialect and model assembly tests."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ssbspec.breaking import spectrum
from ssbspec.electroweak import ElectroweakParams, build_model
from ssbspec.modelfile import (
    ModelFileError,
    emit_document,
    parse_document,
    parse_model_file,
)

SHIPPED = "models/electroweak.model"

_names = st.from_regex(r"[a-z][a-z0-9_]{0,11}", fullmatch=True)
_scalars = st.one_of(
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"), max_size=20),
)
_values = st.recursive(_scalars, lambda leaf: st.lists(leaf, max_size=4), max_leaves=10)
_documents = st.dictionaries(
    _names, st.dictionaries(_names, _values, min_size=1, max_size=5), min_size=1, max_size=4
)


@given(_documents)
def test_document_round_trip_property(doc):
    text = emit_document(doc)
    assert parse_document(text) == doc
    # emitted form is a fixed point
    assert emit_document(parse_document(text)) == text

MINIMAL = """
[algebra]
n = 1
r = 1
generators = [[[[0.0, 1.0]]]]

[potential]
mu = 2.0
lambda = 1.0
"""


def read_shipped():
    with open(SHIPPED) as fh:
        return fh.read()


def test_shipped_model_matches_builtin_preset():
    bundle = parse_model_file(read_shipped())
    builtin = build_model(ElectroweakParams(g=2.0, gp=1.0, mu=2.0, lam=1.0))
    assert np.array_equal(bundle.model.generators.matrices, builtin.generators.matrices)
    assert np.array_equal(bundle.model.vacuum, builtin.vacuum)
    assert bundle.model.potential.mu == builtin.potential.mu
    assert bundle.model.potential.lam == builtin.potential.lam
    assert set(bundle.representations) == {"left_doublet", "right_singlet"}
    assert bundle.yukawa is not None
    assert bundle.yukawa.g_y == 0.5
    assert bundle.yukawa.slots == ("left_doublet", "higgs", "right_singlet")
    assert bundle.grid is not None
    assert bundle.grid.shape == (16, 16)
    assert bundle.grid.spacing == 0.0625


def test_document_round_trip_is_exact():
    doc = {
        "alpha": {
            "x": 0.1,
            "y": -0.0,
            "z": 1.2345678901234567e-17,
            "big": 9.87654321e200,
            "n": 42,
            "name": "w\"eird",
            "flag": True,
            "nested": [[1.5, [2.25, -3.0]], []],
        },
        "beta": {"empty_note": None},
    }
    text = emit_document(doc)
    back = parse_document(text)
    assert back == doc
    assert emit_document(back) == text


def test_floats_keep_a_decimal_point():
    text = emit_document({"s": {"x": 2.0}})
    assert "x = 2.0" in text
    assert isinstance(parse_document(text)["s"]["x"], float)


def test_empty_file_reports_missing_sections():
    with pytest.raises(ModelFileError) as err:
        parse_model_file("")
    msg = str(err.value)
    assert "missing [algebra]" in msg
    assert "missing [potential]" in msg


def test_located_syntax_errors():
    bad = "x = 1\n[algebra]\nn = 2\nn = 3\nq == junk\n"
    with pytest.raises(ModelFileError) as err:
        parse_document(bad)
    issues = err.value.issues
    assert any(i.line == 1 and "before any section" in i.message for i in issues)
    assert any(i.line == 4 and "duplicate key" in i.message for i in issues)
    assert any(i.line == 5 for i in issues)


def test_bad_json_value_is_located():
    for value in ("{oops", "NaN", "-Infinity", "[1.0, 1e999]"):
        with pytest.raises(ModelFileError) as err:
            parse_document(f"[algebra]\nn = {value}\n")
        (issue,) = err.value.issues
        assert issue.line == 2
        assert issue.section == "algebra"


def test_non_integer_dimensions_rejected():
    # JSON true is a bool, which Python counts as the integer 1
    for value in ("1.0", "true"):
        for bad in (MINIMAL.replace("n = 1", f"n = {value}"), MINIMAL.replace("r = 1", f"r = {value}")):
            with pytest.raises(ModelFileError, match="n and r must be integers") as err:
                parse_model_file(bad)
            assert [i.section for i in err.value.issues] == ["algebra"]


def test_boolean_couplings_rejected():
    yukawa = (
        "\n[representations]\nsinglet = [[[[0.0, 1.0]]]]\n"
        + '\n[yukawa]\nslots = ["singlet", "higgs", "singlet"]\n'
        + "conjugated = [true, false, false]\n"
        + "tensor = [[[[1.0, 0.0]]]]\n"
        + "g_y = true\n"
    )
    cases = [
        (MINIMAL.replace("mu = 2.0", "mu = true"), "potential", "mu and lambda must be numbers"),
        (MINIMAL.replace("lambda = 1.0", "lambda = true"), "potential", "mu and lambda must be numbers"),
        (
            MINIMAL.replace("[potential]", 'factors = [["u1", [0], true]]\n\n[potential]'),
            "algebra",
            "non-positive coupling for factor",
        ),
        (MINIMAL + yukawa, "yukawa", "g_y must be a number"),
    ]
    for bad, section, message in cases:
        with pytest.raises(ModelFileError, match=message) as err:
            parse_model_file(bad)
        assert [i.section for i in err.value.issues] == [section]


def test_mismatched_generator_shape():
    bad = MINIMAL.replace("r = 1", "r = 2")
    with pytest.raises(ModelFileError, match="expected \\(2, 1, 1\\)"):
        parse_model_file(bad)


def test_ragged_generator_rows():
    bad = MINIMAL.replace(
        "generators = [[[[0.0, 1.0]]]]",
        "generators = [[[[0.0, 1.0], [0.0, 0.0]]]]",
    )
    with pytest.raises(ModelFileError):
        parse_model_file(bad)


def test_non_skew_generator_rejected():
    bad = MINIMAL.replace("[[[[0.0, 1.0]]]]", "[[[[1.0, 0.0]]]]")
    with pytest.raises(ModelFileError, match="skew-Hermitian"):
        parse_model_file(bad)


def test_non_positive_lambda_rejected():
    bad = MINIMAL.replace("lambda = 1.0", "lambda = 0.0")
    with pytest.raises(ModelFileError, match="non-positive coupling"):
        parse_model_file(bad)


def test_non_positive_factor_coupling_rejected():
    bad = MINIMAL.replace(
        "[potential]", 'factors = [["u1", [0], -1.0]]\n\n[potential]'
    )
    with pytest.raises(ModelFileError, match="non-positive coupling"):
        parse_model_file(bad)


def test_unknown_section_and_key_rejected():
    bad = MINIMAL + "\n[mystery]\nk = 1\n"
    with pytest.raises(ModelFileError, match="unknown section"):
        parse_model_file(bad)
    bad = MINIMAL.replace("[potential]", "[potential]\ncolor = 3")
    with pytest.raises(ModelFileError, match="unknown key"):
        parse_model_file(bad)


def test_symmetric_phase_gets_zero_vacuum():
    text = MINIMAL.replace("mu = 2.0", "mu = -1.0")
    bundle = parse_model_file(text)
    assert np.array_equal(bundle.model.vacuum, np.zeros(1))
    spec = spectrum(bundle.model)
    assert spec.goldstone_count == 0
    assert np.all(spec.boson_masses == 0.0)


def test_missing_vacuum_is_found_for_broken_phase():
    bundle = parse_model_file(MINIMAL)
    assert np.linalg.norm(bundle.model.vacuum) == pytest.approx(1.0, abs=1e-9)


def test_supplied_non_vacuum_is_located():
    bad = MINIMAL + "\n[vacuum]\nvector = [[0.5, 0.0]]\n"
    with pytest.raises(ModelFileError) as err:
        parse_model_file(bad)
    assert any(i.section == "vacuum" for i in err.value.issues)


def test_reserved_representation_name():
    bad = MINIMAL + "\n[representations]\nhiggs = [[[[0.0, 1.0]]]]\n"
    with pytest.raises(ModelFileError, match="reserved"):
        parse_model_file(bad)


def test_yukawa_dimension_mismatch():
    bad = (
        MINIMAL
        + "\n[representations]\nsinglet = [[[[0.0, 1.0]]]]\n"
        + '\n[yukawa]\nslots = ["singlet", "higgs", "singlet"]\n'
        + "conjugated = [true, false, false]\n"
        + "tensor = [[[[1.0, 0.0]], [[0.0, 0.0]]]]\n"
        + "g_y = 1.0\n"
    )
    with pytest.raises(ModelFileError, match="does not match slot dimensions"):
        parse_model_file(bad)
