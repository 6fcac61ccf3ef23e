"""Seeded fuzzing of the CLI through main().

Mutated model text (spectrum, validate) and mutated flag values
(gauge-check, unitary-gauge) must end in exit 0, 1 or 2 with no
traceback: bad input is reported on an `error:` line, or by argparse's
usage error for a bad flag value.  Flag values are drawn from small
ranges, so no example asks for a large grid.
"""
import contextlib
import io
import pathlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ssbspec.cli import main
from ssbspec.gridfile import write_field
from ssbspec.latticefields import Grid, smooth_multiplet_field

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
