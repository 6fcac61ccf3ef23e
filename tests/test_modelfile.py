"""Document dialect and model assembly tests."""
import io
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ssbspec.breaking import spectrum
from ssbspec.cli import main
from ssbspec.electroweak import ElectroweakParams, build_model
from ssbspec.modelfile import (
    _KEYS,
    ModelFileError,
    _emit_value,
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
    # the dialect has no objects: {"x": 1} parsed to a dict that emit_document refused
    for value in ("{oops", "NaN", "-Infinity", "[1.0, 1e999]", '{"x": 1}'):
        with pytest.raises(ModelFileError) as err:
            parse_document(f"[algebra]\nn = {value}\n")
        (issue,) = err.value.issues
        assert issue.line == 2
        assert issue.section == "algebra"


YUKAWA_TAIL = (
    "\n[representations]\nhiggs = [[[[0.0, 1.0]]]]\n"
    + '\n[yukawa]\nslots = ["higgs", "higgs", "higgs"]\n'
    + "conjugated = [true, false, false]\n"
    + "tensor = [[[[1.0, 0.0]]]]\n"
    + "g_y = true\n"
)

SINGLET_TAIL = (
    "\n[representations]\nsinglet = [[[[0.0, 1.0]]]]\n"
    + '\n[yukawa]\nslots = ["singlet", "higgs", "singlet"]\n'
    + "conjugated = [true, false, false]\n"
    + "tensor = [[[[1.0, 0.0]]]]\n"
    + "g_y = 1.0\n"
)


GRID_TAIL = '\n[grid]\ndim = 2\nshape = [4, 4]\nh = 0.5\nmetric = "euclidean"\n'

# a JSON integer beyond the float range: float() of it raised OverflowError
HUGE = "1" + "0" * 400


@pytest.mark.parametrize(
    "bad, line, section, message",
    [
        (MINIMAL.replace("r = 1", "r = 2"), 5, "algebra", "expected (2, 1, 1)"),
        (MINIMAL.replace("n = 1", "n = 1.0"), 3, "algebra", "n must be an integer"),
        (MINIMAL.replace("r = 1", "r = true"), 4, "algebra", "r must be an integer"),
        (MINIMAL.replace("[[[[0.0, 1.0]]]]", "[[[[1.0, 0.0]]]]"), 5, "algebra", "not skew-Hermitian"),
        (MINIMAL.replace("[[[[0.0, 1.0]]]]", "[[[[0.0, 1.0], [0.0]]]]"), 5, "algebra", "generators: ragged"),
        (MINIMAL.replace("lambda = 1.0\n", ""), 7, "potential", "missing key 'lambda'"),
        (MINIMAL.replace("lambda = 1.0", "lambda = 0.0"), 9, "potential", "non-positive coupling"),
        (MINIMAL.replace("mu = 2.0", "mu = 2.0\ncolor = 3"), 9, "potential", "unknown key 'color'"),
        (MINIMAL + "\n[vacuum]\nvector = [[0.5, 0.0]]\n", 12, "vacuum", ""),
        (MINIMAL + "\n[mystery]\nk = 1\n", 11, "mystery", "unknown section"),
        (MINIMAL + YUKAWA_TAIL, 12, "representations", "'higgs' is reserved"),
        (MINIMAL + YUKAWA_TAIL, 18, "yukawa", "g_y must be a number"),
        (MINIMAL.split("[potential]")[0], 0, "potential", "missing [potential] section"),
        (MINIMAL + GRID_TAIL.replace("h = 0.5", "h = true"), 14, "grid", "h must be a number"),
        (MINIMAL + GRID_TAIL.replace("dim = 2", "dim = 2.7"), 12, "grid", "dim must be an integer"),
        (MINIMAL + GRID_TAIL.replace("dim = 2", 'dim = "2"'), 12, "grid", "dim must be an integer"),
        (MINIMAL + GRID_TAIL.replace("[4, 4]", "[4.5, 4]"), 13, "grid", "shape must be a list of integers"),
        (MINIMAL + GRID_TAIL.replace("[4, 4]", "[true, 4]"), 13, "grid", "shape must be a list of integers"),
        (MINIMAL + GRID_TAIL.replace("[4, 4]", '["4", 4]'), 13, "grid", "shape must be a list of integers"),
        (MINIMAL + GRID_TAIL.replace('"euclidean"', "3"), 15, "grid", "metric must be a string"),
        (MINIMAL + GRID_TAIL.replace('"euclidean"', "null"), 15, "grid", "metric must be a string"),
        (MINIMAL + GRID_TAIL.replace("dim = 2", "dim = 0"), 12, "grid", "dimension must be at least 1"),
        (MINIMAL + GRID_TAIL.replace("dim = 2", "dim = 3"), 13, "grid", "expected 3 extents"),
        (MINIMAL + GRID_TAIL.replace("[4, 4]", "[4, 3]"), 13, "grid", "at least 4"),
        (MINIMAL + GRID_TAIL.replace("h = 0.5", "h = 0.0"), 14, "grid", "spacing must be"),
        (MINIMAL + GRID_TAIL.replace('"euclidean"', '"minkowski"'), 15, "grid", "unknown metric"),
        (MINIMAL.replace("mu = 2.0", f"mu = {HUGE}"), 8, "potential", "beyond the float range"),
        (MINIMAL.replace("mu = 2.0", "mu = 1e308").replace("lambda = 1.0", "lambda = 1e-308"), 8, "potential", "overflows"),
        (MINIMAL.replace("mu = 2.0", "mu = 1.7e308"), 8, "potential", "overflows"),
        (
            MINIMAL + YUKAWA_TAIL.replace("higgs = [[[[0.0, 1.0]]]]", "lepton = [[[[1.0, 0.0]]]]"),
            12,
            "representations",
            "lepton: generators not skew-Hermitian (defect 2.000e+00)",
        ),
        (MINIMAL.replace("lambda = 1.0", f"lambda = -{HUGE}"), 9, "potential", "beyond the float range"),
        (MINIMAL + YUKAWA_TAIL.replace("g_y = true", f"g_y = {HUGE}"), 18, "yukawa", "beyond the float range"),
        (MINIMAL + GRID_TAIL.replace("h = 0.5", f"h = {HUGE}"), 14, "grid", "beyond the float range"),
        (
            MINIMAL.replace("[potential]", f'factors = [["u1", [0], {HUGE}]]\n\n[potential]'),
            7,
            "algebra",
            "beyond the float range",
        ),
        # JSON true is a bool, which Python counts as the integer 1
        (MINIMAL.replace("n = 1", "n = true"), 3, "algebra", "n must be an integer"),
        (MINIMAL.replace("r = 1", "r = 1.0"), 4, "algebra", "r must be an integer"),
        (MINIMAL.replace("mu = 2.0", "mu = true"), 8, "potential", "mu must be a number"),
        (MINIMAL.replace("lambda = 1.0", "lambda = true"), 9, "potential", "lambda must be a number"),
        (MINIMAL + SINGLET_TAIL.replace("g_y = 1.0", "g_y = true"), 18, "yukawa", "g_y must be a number"),
        # null is a value of the wrong type, not a missing key
        (MINIMAL.replace("n = 1", "n = null"), 3, "algebra", "n must be an integer"),
        (MINIMAL.replace("r = 1", "r = null"), 4, "algebra", "r must be an integer"),
        (MINIMAL.replace("[[[[0.0, 1.0]]]]", "null"), 5, "algebra", "generators must be an array"),
        # the removed factors key is refused at its line whatever its value
        (MINIMAL.replace("[potential]", "factors = null\n\n[potential]"), 7, "algebra", "unknown key 'factors'"),
        (MINIMAL.replace("[potential]", "factors = 3\n\n[potential]"), 7, "algebra", "unknown key 'factors'"),
        (MINIMAL.replace("mu = 2.0", "mu = null"), 8, "potential", "mu must be a number"),
        (MINIMAL + "\n[vacuum]\nvector = null\n", 12, "vacuum", "vector must be an array"),
        (MINIMAL + SINGLET_TAIL.replace("[[[[1.0, 0.0]]]]", "null"), 17, "yukawa", "tensor must be an array"),
        # three slot actions of size 1 on an entry of 1e308 can sum to 3e308
        (
            MINIMAL + SINGLET_TAIL.replace("[[[[1.0, 0.0]]]]", "[[[[1e308, 0.0]]]]"),
            17,
            "yukawa",
            "tensor entries make the summed slot action overflow",
        ),
        # a mistyped key hides no issue of another key in its section
        (
            MINIMAL.replace("n = 1", "n = 1.0").replace("[[[[0.0, 1.0]]]]", "[[[[0.0, 1.0], [0.0]]]]"),
            5,
            "algebra",
            "generators: ragged",
        ),
        (
            MINIMAL.replace("n = 1", "n = 1.0").replace("[[[[0.0, 1.0]]]]", "[[[[1.0, 0.0]]]]"),
            5,
            "algebra",
            "not skew",
        ),
        (
            MINIMAL.replace("r = 1", "r = true").replace("[potential]", 'factors = [["u1", [0], -1.0]]\n\n[potential]'),
            7,
            "algebra",
            "unknown key 'factors'",
        ),
        (
            MINIMAL + SINGLET_TAIL.replace("g_y = 1.0", "g_y = true").replace("[[[[1.0, 0.0]]]]", "[[1.0]]"),
            17,
            "yukawa",
            "pairs",
        ),
        (
            MINIMAL + SINGLET_TAIL.replace('"singlet", "higgs"', '"singlet", 1').replace("[[[[1.0, 0.0]]]]", "[[[1.0]]]"),
            17,
            "yukawa",
            "pairs",
        ),
        (
            MINIMAL + SINGLET_TAIL.replace("g_y = 1.0\n", "").replace("[[[[1.0, 0.0]]]]", "[[[[1.0, 0.0], [1.0]]]]"),
            17,
            "yukawa",
            "ragged",
        ),
        (
            MINIMAL + SINGLET_TAIL.replace("singlet = [[[[0.0, 1.0]]]]", "singlet = [[[[0.0, 1.0, 0.0]]]]"),
            12,
            "representations",
            "singlet: innermost entries must be [re, im] pairs",
        ),
        (MINIMAL.replace("[[[[0.0, 1.0]]]]", "[[[[0.0, 0.0]]]]"), 5, "algebra", "generator 0 is zero"),
        (
            MINIMAL.replace("r = 1", "r = 2").replace("[[[[0.0, 1.0]]]]", "[[[[0.0, 1.0]]], [[[0.0, -3.0]]]]"),
            5,
            "algebra",
            "generator 1 lies in the span of the generators before it",
        ),
    ],
    ids=[
        "generator-shape", "n-not-integer", "r-boolean", "not-skew", "ragged",
        "missing-key", "lambda", "unknown-key", "vacuum", "unknown-section", "reserved-name",
        "g_y", "missing-section",
        "grid-h-boolean", "grid-dim-float", "grid-dim-string", "grid-extent-float", "grid-extent-boolean",
        "grid-extent-string", "grid-metric-number", "grid-metric-null",
        "grid-dim-zero", "grid-extent-count", "grid-extent-small", "grid-h-zero", "grid-metric-unknown",
        "mu-huge-integer", "mu-overflow", "mu-twice-overflows", "representation-not-skew", "lambda-huge-integer", "g_y-huge-integer", "grid-h-huge-integer",
        "factor-coupling-huge-integer", "n-boolean", "r-not-integer", "mu-boolean", "lambda-boolean",
        "g_y-boolean", "n-null", "r-null", "generators-null", "factors-null",
        "factors-number", "mu-null", "vector-null", "tensor-null", "tensor-action-overflows", "n-float-and-ragged", "n-float-and-not-skew",
        "r-boolean-and-bad-factor", "g_y-boolean-and-tensor-pairs", "slots-mistyped-and-tensor-pairs",
        "g_y-missing-and-tensor-ragged", "representation-not-pairs", "zero-generator", "dependent-generator",
    ],
)
def test_assembly_issue_carries_the_entry_line(bad, line, section, message):
    # a present key is located at its own line, a missing one at its
    # section header, and a missing section at the document (line 0)
    with pytest.raises(ModelFileError) as err:
        parse_model_file(bad)
    (issue,) = [i for i in err.value.issues if i.section == section and message in i.message]
    assert issue.line == line
    assert str(issue).startswith(f"line {line} [{section}]: " if line else f"document [{section}]: ")


@pytest.mark.parametrize(
    "bad, section",
    [
        (MINIMAL.replace("n = 1", "n = 1.0"), "algebra"),
        (MINIMAL.replace("n = 1", "n = true"), "algebra"),
        (MINIMAL.replace("r = 1", "r = 1.0"), "algebra"),
        (MINIMAL.replace("r = 1", "r = true"), "algebra"),
        (MINIMAL.replace("mu = 2.0", "mu = true"), "potential"),
        (MINIMAL.replace("lambda = 1.0", "lambda = true"), "potential"),
        (MINIMAL + SINGLET_TAIL.replace("g_y = 1.0", "g_y = true"), "yukawa"),
    ],
    ids=[
        "n-float", "n-boolean", "r-float", "r-boolean", "mu-boolean", "lambda-boolean", "g_y-boolean",
    ],
)
def test_mistyped_value_stays_in_its_section(bad, section):
    # a bad number or boolean is reported in its own section only
    with pytest.raises(ModelFileError) as err:
        parse_model_file(bad)
    assert {i.section for i in err.value.issues} == {section}


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


@pytest.mark.parametrize(
    "tail, command, line",
    [
        (
            "\n[representations]\nsinglet = [[[0.0, 1.0]]]\n",
            "validate",
            "line 12 [representations]: singlet: expected (1, dim, dim) generator stack, got (1, 1)",
        ),
        (
            "\n[representations]\nsinglet = [[[[0.0, 1.0]]], [[[0.0, 1.0]]]]\n",
            "validate",
            "line 12 [representations]: singlet: expected (1, dim, dim) generator stack, got (2, 1, 1)",
        ),
        (
            SINGLET_TAIL.replace('["singlet", "higgs"', '["lepton", "higgs"'),
            "yukawa",
            "line 15 [yukawa]: unknown representation 'lepton'",
        ),
    ],
    ids=["representation-not-a-stack", "representation-count", "yukawa-unknown-slot"],
)
def test_section_issue_exits_2_at_its_key_line(tmp_path, tail, command, line):
    path = tmp_path / "bad.model"
    path.write_text(MINIMAL + tail)
    out = io.StringIO()
    assert main([command, "--model", str(path)], stdout=out) == 2
    assert out.getvalue() == f"error: {line}\n"


def test_readme_tables_list_every_key():
    # README "Model files" gives each fixed section a table of key, type and
    # "required" or default, and it must be the table the parser reads
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    body = readme.split("\n## Model files\n")[1].split("\n## ")[0]
    tables = {}
    for row in body.splitlines():
        if m := re.match(r"`\[([a-z_]+)\]`", row):
            section = tables.setdefault(m.group(1), {})
        elif m := re.match(r"\| `([a-z_]+)` \| ([^|]+) \| ([^|]+) \|", row):
            section[m.group(1)] = (m.group(2), m.group(3))
    assert tables == {
        name: {
            key: (what, f"default `{_emit_value(default[0])}`" if default else "required")
            for key, (_, what, *default) in keys.items()
        }
        for name, keys in _KEYS.items()
    }
