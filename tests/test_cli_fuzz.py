"""Seeded fuzzing of the CLI through main().

Mutated model text (spectrum, validate), mutated fermion sections (yukawa,
validate) and mutated flag values (gauge-check, unitary-gauge, electroweak)
must end in exit 0, 1 or 2 with no traceback: bad input is reported on an
`error:` line, or by argparse's usage error for a bad flag value.  Flag
values are drawn from small ranges, so no example asks for a large grid.
"""
import contextlib
import copy
import io
import json
import pathlib
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ssbspec.cli import main
from ssbspec.gridfile import MAGIC, write_field
from ssbspec.latticefields import Grid, smooth_multiplet_field
from ssbspec.modelfile import emit_document, parse_document

MODELS = [pathlib.Path("models/electroweak.model"), pathlib.Path("tests/goldens/spin1.model")]
FUZZ = settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def run(argv) -> tuple[int, str]:
    """Exit code and everything printed, stdout and stderr together."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        try:
            code = main(argv, stdout=out)
        except SystemExit as exit_:  # argparse rejects a flag value
            code = exit_.code
    return code, out.getvalue() + err.getvalue()


def assert_clean_exit(argv, code, text):
    assert code in (0, 1, 2), (argv, code, text)
    assert "Traceback" not in text, (argv, text)
    if code == 2:
        assert "error:" in text, (argv, text)


# ---------------------------------------------------------------------------
# model text

TOKENS = [
    "", "0", "-0", "1", "-1", "2", "1e308", "-1e308", "1e-320", "nan", "inf", "-inf",
    "true", "false", '"x"', "[]", "[[]]", "[1, 2]", "[[1, 0]]", "{", "]", "=", "[algebra]",
    "[grid]", "n", "r", "#", "\t", "\x00", "é", "99999999999999999999",
]


@st.composite
def mutated_model_text(draw) -> str:
    text = MODELS[draw(st.integers(0, len(MODELS) - 1))].read_text()
    for _ in range(draw(st.integers(1, 3))):
        lines = text.split("\n")
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["token", "line", "drop", "dup", "cut"]))
        if kind == "token":
            # swap one number, word or bracket of the line for another token
            parts = lines[i].replace("[", " [ ").replace("]", " ] ").replace(",", " , ").split()
            if parts:
                parts[draw(st.integers(0, len(parts) - 1))] = draw(st.sampled_from(TOKENS))
                lines[i] = " ".join(parts).replace(" , ", ", ").replace("[ ", "[").replace(" ]", "]")
        elif kind == "line":
            lines[i] = draw(st.text(max_size=30))
        elif kind == "drop":
            del lines[i]
        elif kind == "dup":
            lines.insert(i, lines[i])
        else:
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
        text = "\n".join(lines)
    return text


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(text=mutated_model_text(), command=st.sampled_from(["spectrum", "validate"]))
def test_mutated_model_text_exits_cleanly(scratch, text, command):
    path = scratch / "mutated.model"
    path.write_text(text, encoding="utf-8", errors="surrogateescape")
    argv = [command, "--model", str(path), "--format", "machine"]
    assert_clean_exit(argv, *run(argv))


# ---------------------------------------------------------------------------
# [representations] and [yukawa]

FERMION_SECTIONS = ("representations", "yukawa")
SLOT_NAMES = ["left_doublet", "right_singlet", "higgs", "nowhere"]
BAD_VALUES = ["nan", "1e309", "null", '"x"', '{"a": 1}']


class Raw(str):
    """Value text written as it is, which JSON could not write: nan, 1e309, an object."""


def _dump(value) -> str:
    if isinstance(value, Raw):
        return value
    if isinstance(value, list):
        return "[" + ", ".join(map(_dump, value)) + "]"
    return json.dumps(value)


def _sublist(draw, value):
    """A list nested in value, at a drawn depth; None if value is not a list."""
    while isinstance(value, list) and value and isinstance(value[0], list) and draw(st.booleans()):
        value = value[draw(st.integers(0, len(value) - 1))]
    return value if isinstance(value, list) else None


@st.composite
def fermion_model(draw) -> tuple[str, bool]:
    """The shipped model with g_y log-uniform in 1e+-300 and the tensor's two
    entries log-uniform in 1e+-150, then zero to two mutations of its
    [representations] and [yukawa] keys; and whether it was mutated."""
    doc = parse_document(MODELS[0].read_text())
    yukawa, left_doublet = doc["yukawa"], doc["representations"]["left_doublet"]
    entry = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.floats(-150.0, 150.0))
    yukawa["tensor"][0][0][0][0] = yukawa["tensor"][1][1][0][0] = entry
    yukawa["g_y"] = 10.0 ** draw(st.floats(-300.0, 300.0))
    # [section, key, value] in file order; a key written twice is a duplicate key
    rows = [[section, key, value] for section in FERMION_SECTIONS for key, value in doc.pop(section).items()]
    kinds = ["drop", "dup", "slots", "reserved", "shape", "flip", "bad"]
    mutations = draw(st.lists(st.sampled_from(kinds), max_size=2))
    for kind in mutations:
        i = draw(st.integers(0, len(rows) - 1)) if rows else None
        named = {row[1]: row for row in rows}
        sub = _sublist(draw, rows[i][2]) if rows else None
        if kind == "drop" and rows:
            del rows[i]
        elif kind == "dup" and rows:
            rows.insert(i, copy.deepcopy(rows[i]))
        elif kind == "slots" and "slots" in named:
            named["slots"][2] = [draw(st.sampled_from(SLOT_NAMES)) for _ in range(3)]
        elif kind == "reserved":
            rows.insert(0, ["representations", "higgs", copy.deepcopy(left_doublet)])
        elif kind == "flip" and "conjugated" in named:
            named["conjugated"][2] = [draw(st.booleans()) for _ in range(3)]
        elif kind == "shape" and sub:
            op = draw(st.sampled_from(["cut", "extra", "wrap"]))
            sub[:] = sub[:-1] if op == "cut" else sub + sub[-1:] if op == "extra" else [list(sub)]
        elif kind == "bad" and sub:
            sub[draw(st.integers(0, len(sub) - 1))] = Raw(draw(st.sampled_from(BAD_VALUES)))
        elif kind == "bad" and rows:
            rows[i][2] = Raw(draw(st.sampled_from(BAD_VALUES)))
    text = emit_document(doc)
    for section in FERMION_SECTIONS:
        text += f"\n[{section}]\n" + "".join(f"{key} = {_dump(value)}\n" for s, key, value in rows if s == section)
    return text, bool(mutations)


@pytest.mark.filterwarnings("error")
@settings(FUZZ, max_examples=100)
@given(model=fermion_model(), command=st.sampled_from(["yukawa", "validate"]))
def test_mutated_fermion_sections_exit_cleanly(scratch, model, command):
    # every error is located at a line of the section at fault; an unmutated
    # model exits 0, or 2 where its g_y makes the masses overflow
    text, mutated = model
    path = scratch / "fermions.model"
    path.write_text(text)
    argv = [command, "--model", str(path), "--format", "machine"]
    code, out = run(argv)
    assert_clean_exit(argv, code, out)
    errors = [line for line in out.splitlines() if line.startswith("error:")]
    assert all(re.match(r"error: line \d+ \[(representations|yukawa)\]: ", line) for line in errors), (text, out)
    if code in (0, 1):
        assert not re.search(r"\b(nan|inf)\b", out), (text, out)
    if not mutated:
        assert code == 0 or (code == 2 and len(errors) == 1 and "g_y = " in errors[0]), (text, out)


# ---------------------------------------------------------------------------
# flag values

NUMBERS = ["", "abc", "0", "-1", "1.5", "1e3", "nan", "inf", "-0", "+3", " 4", "0x10", "٣"]


def small_ints(lo, hi):
    return st.one_of(st.integers(lo, hi).map(str), st.sampled_from(NUMBERS))


@st.composite
def flags(draw, *names_and_values):
    """An argv tail: each flag left out or given one drawn value."""
    argv = []
    for name, values in names_and_values:
        if draw(st.booleans()):
            argv += [name, draw(values)]
    return argv


SEEDS = st.one_of(st.integers(0, 2**33).map(str), st.sampled_from(NUMBERS))
TOLS = st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr), st.sampled_from(NUMBERS))
COMMON = (
    ("--seed", SEEDS),
    ("--tol", TOLS),
    ("--format", st.sampled_from(["table", "machine", "json", ""])),
)


@FUZZ
@given(
    tail=flags(
        ("--grid", small_ints(-3, 10)),
        ("--refine", small_ints(-2, 2)),
        ("--metric", st.sampled_from(["euclidean", "lorentzian", "minkowski", ""])),
        ("--model", st.sampled_from([str(m) for m in MODELS] + ["missing.model", "models"])),
        *(flag for flag in COMMON if flag[0] != "--tol"),  # gauge-check has no --tol
    )
)
def test_gauge_check_flag_values_exit_cleanly(tail):
    argv = ["gauge-check"] + tail
    assert_clean_exit(argv, *run(argv))


EW_FLAGS = {"--g": "g", "--gp": "gp", "--mu": "mu", "--lambda": "lambda"}
BAD_PARAMETERS = ["nan", "inf", "-1", "0", "1e309", "abc"]


@pytest.mark.filterwarnings("error")
@settings(FUZZ, max_examples=100)
@given(
    exponents=st.lists(st.floats(-150.0, 150.0), min_size=4, max_size=4),
    bad=st.dictionaries(st.sampled_from(list(EW_FLAGS)), st.sampled_from(BAD_PARAMETERS), max_size=2),
)
def test_electroweak_flag_values_exit_cleanly(exponents, bad):
    # any coupling and potential parameter log-uniform in 1e+-150 passes; a
    # bad one exits 2 naming itself, in argparse's words or the model's
    argv = ["electroweak", "--format", "machine"]
    for flag, k in zip(EW_FLAGS, exponents):
        argv += [flag, bad.get(flag, repr(10.0**k))]
    code, text = run(argv)
    assert_clean_exit(argv, code, text)
    assert code == (2 if bad else 0), (argv, text)
    if bad:
        named = [f"argument {flag}: invalid float value" for flag in bad]
        named += [f"electroweak parameter {EW_FLAGS[flag]} must be" for flag in bad]
        assert any(words in text for words in named), (argv, text)


@pytest.fixture(scope="module")
def field_files(scratch):
    """Paths to a good 4x4 doublet field, damaged copies and non-field files."""
    grid = Grid(dim=2, shape=(4, 4), spacing=0.25)
    good = scratch / "good.field"
    write_field(good, grid, "multiplet", np.array([0.0, 1.0]) + 0.3 * smooth_multiplet_field(grid, 2, seed=1))
    blob = good.read_bytes()
    paths = [str(good), str(scratch / "missing.field"), str(scratch), str(MODELS[0])]
    rng = np.random.default_rng(0)
    for k, damaged in enumerate(
        [blob[:20], blob[:-16], blob + b"\x00" * 16]
        + [bytes(b ^ (1 << int(rng.integers(8))) if i == j else b for i, b in enumerate(blob)) for j in (9, 12, 16, 24, 30)]
    ):
        path = scratch / f"damaged{k}.field"
        path.write_bytes(damaged)
        paths.append(str(path))
    spin1 = scratch / "spin1.field"
    write_field(spin1, grid, "multiplet", smooth_multiplet_field(grid, 3, seed=2))
    return paths + [str(spin1)]


@FUZZ
@given(data=st.data())
def test_unitary_gauge_flag_values_exit_cleanly(field_files, scratch, data):
    outs = [str(scratch / "out.field"), str(scratch), str(scratch / "no" / "such" / "dir.field")]
    tail = data.draw(
        flags(
            ("--field", st.sampled_from(field_files)),
            ("--out", st.sampled_from(outs)),
            ("--model", st.sampled_from([str(MODELS[0]), "missing.model"])),
            *COMMON,
        )
    )
    argv = ["unitary-gauge"] + tail
    assert_clean_exit(argv, *run(argv))


# ---------------------------------------------------------------------------
# grid-file bytes

GRID = Grid(dim=2, shape=(4, 4), spacing=0.25)
# (offset, format) of each header field of a 2-dim file: kind, dim, the two
# extents, h, metric, n and r; the payload follows at byte 44
HEADER_FIELDS = [(8, "<I"), (12, "<I"), (16, "<I"), (20, "<I"), (24, "<d"), (32, "<I"), (36, "<I"), (40, "<I")]
PAYLOAD = 44
WORDS = [0, 1, 2, 3, 4, 5, 16, 17, 2**31, 2**32 - 1]
FLOATS = [0.0, -0.0, -0.25, 5e-324, 1e-308, 1e154, 1e308, float("inf"), float("-inf"), float("nan")]


@pytest.fixture(scope="module")
def good_fields(scratch):
    """The bytes of a valid 4x4 field file for each model's multiplet."""
    blobs = []
    for n, vacuum in ((2, [0.0, 1.0]), (3, np.ones(3) / np.sqrt(3.0))):
        path = scratch / f"good{n}.field"
        write_field(path, GRID, "multiplet", np.asarray(vacuum) + 0.3 * smooth_multiplet_field(GRID, n, seed=n))
        blobs.append(path.read_bytes())
    return blobs


@st.composite
def mutated_field_bytes(draw, blob: bytes) -> bytes:
    """blob with one to three byte mutations, about half of them in the header
    after its magic: a flipped bit, a random byte, a header field or payload
    number set to an edge value, or bytes cut off, inserted or deleted."""
    out = bytearray(blob)
    for _ in range(draw(st.integers(1, 3))):
        end = max(len(out) - 1, len(MAGIC))
        at = draw(st.one_of(st.integers(len(MAGIC), PAYLOAD - 1), st.integers(len(MAGIC), end)))
        kind = draw(st.sampled_from(["bit", "byte", "field", "number", "cut", "insert", "delete"]))
        if kind == "bit" and at < len(out):
            out[at] ^= 1 << draw(st.integers(0, 7))
        elif kind == "byte" and at < len(out):
            out[at] = draw(st.integers(0, 255))
        elif kind == "field":
            offset, fmt = draw(st.sampled_from(HEADER_FIELDS))
            value = draw(st.sampled_from(FLOATS if fmt == "<d" else WORDS))
            out[offset : offset + struct.calcsize(fmt)] = struct.pack(fmt, value)
        elif kind == "number" and len(out) >= PAYLOAD + 8:
            k = draw(st.integers(0, (len(out) - PAYLOAD) // 8 - 1))
            out[PAYLOAD + 8 * k : PAYLOAD + 8 * k + 8] = struct.pack("<d", draw(st.sampled_from(FLOATS)))
        elif kind == "cut":
            del out[at:]
        elif kind == "insert":
            out[at:at] = draw(st.binary(min_size=1, max_size=16))
        elif kind == "delete":
            del out[at : at + draw(st.integers(1, 16))]
    return bytes(out)


@pytest.mark.filterwarnings("error")
@settings(FUZZ, max_examples=100)
@given(data=st.data())
def test_mutated_field_bytes_exit_cleanly(good_fields, scratch, data):
    k = data.draw(st.integers(0, len(MODELS) - 1))
    path = scratch / "mutated.field"
    path.write_bytes(data.draw(mutated_field_bytes(good_fields[k])))
    argv = ["unitary-gauge", "--model", str(MODELS[k]), "--field", str(path), "--format", "machine"]
    assert_clean_exit(argv, *run(argv))
