"""Byte-exact reports, in both formats, for every subcommand.

Each case runs main() in process and compares its output with the files
tests/goldens/<name>.machine and tests/goldens/<name>.table byte for
byte, so a refactor that must keep behaviour cannot move a single digit.
Each case also names its exit code; spectrum_errors pins the located
error lines of tests/goldens/errors.model at exit 2.  After a deliberate
change of output, rewrite the goldens with

    PYTHONPATH=src python tests/test_goldens.py

and review the diff.  A case that exits with another code than its own
is not written, and the script exits 1.
"""
import io
import pathlib
import sys

import numpy as np
import pytest

from ssbspec.cli import main
from ssbspec.gridfile import write_field
from ssbspec.latticefields import Grid, smooth_multiplet_field

HERE = pathlib.Path(__file__).resolve().parent
GOLDENS = HERE / "goldens"
EW = str(HERE.parent / "models" / "electroweak.model")
SPIN1 = str(GOLDENS / "spin1.model")
SYMMETRIC = str(GOLDENS / "symmetric.model")
ERRORS = str(GOLDENS / "errors.model")

# a doublet value close to the ray of -v0, so that the climb starts near a
# critical point of the overlap away from its target
TWIST_PHI = np.array(
    [0.9623332796875556 + 1.087589351073743j, -2.8423182230285127 + 0.1524980492210118j]
)


def _twist_field(tmp: pathlib.Path) -> str:
    """4x4 doublet field near the vacuum with TWIST_PHI at site (0, 0)."""
    grid = Grid(dim=2, shape=(4, 4), spacing=0.25)
    field = np.array([0.0, 1.0], dtype=complex) + 0.35 * smooth_multiplet_field(grid, 2, 3)
    field[0, 0] = TWIST_PHI
    path = tmp / "twist.field"
    write_field(str(path), grid, "multiplet", field)
    return str(path)


# name -> (expected exit code, argv); an assembly error report exits 2
CASES = {
    "electroweak_default": (0, lambda tmp: ["electroweak"]),
    "electroweak_params": (
        0, lambda tmp: ["electroweak", "--g", "1.5", "--gp", "0.5", "--mu", "3", "--lambda", "0.7"]
    ),
    "spectrum_electroweak": (0, lambda tmp: ["spectrum", "--model", EW, "--seed", "7"]),
    "validate_electroweak": (0, lambda tmp: ["validate", "--model", EW, "--seed", "7"]),
    "yukawa_electroweak": (0, lambda tmp: ["yukawa", "--model", EW, "--seed", "7"]),
    "spectrum_spin1": (0, lambda tmp: ["spectrum", "--model", SPIN1, "--seed", "7"]),
    "validate_spin1": (0, lambda tmp: ["validate", "--model", SPIN1, "--seed", "7"]),
    "spectrum_symmetric": (0, lambda tmp: ["spectrum", "--model", SYMMETRIC, "--seed", "7"]),
    "unitary_gauge_grid": (0, lambda tmp: ["unitary-gauge", "--model", EW, "--seed", "7"]),
    "unitary_gauge_twist": (
        0, lambda tmp: ["unitary-gauge", "--model", EW, "--seed", "7", "--field", _twist_field(tmp)]
    ),
    "gauge_check_euclidean": (
        0, lambda tmp: ["gauge-check", "--grid", "16", "--refine", "1", "--seed", "0", "--metric", "euclidean"]
    ),
    "gauge_check_lorentzian": (
        0, lambda tmp: ["gauge-check", "--grid", "16", "--refine", "1", "--seed", "0", "--metric", "lorentzian"]
    ),
    "spectrum_errors": (2, lambda tmp: ["spectrum", "--model", ERRORS]),
}


FORMATS = ("machine", "table")


def _report(name: str, fmt: str, tmp: pathlib.Path) -> tuple[int, str]:
    out = io.StringIO()
    code = main(CASES[name][1](tmp) + ["--format", fmt], stdout=out)
    return code, out.getvalue()


def _assert_matches_golden(name: str, fmt: str, tmp: pathlib.Path) -> None:
    code, text = _report(name, fmt, tmp)
    assert code == CASES[name][0]
    assert text == (GOLDENS / f"{name}.{fmt}").read_text()


@pytest.mark.parametrize("name", sorted(CASES))
def test_machine_report_matches_golden(name, tmp_path):
    _assert_matches_golden(name, "machine", tmp_path)


@pytest.mark.parametrize("name", sorted(CASES))
def test_table_report_matches_golden(name, tmp_path):
    _assert_matches_golden(name, "table", tmp_path)


if __name__ == "__main__":
    import tempfile

    refused = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            for fmt in FORMATS:
                code, text = _report(name, fmt, pathlib.Path(tmp))
                if code == CASES[name][0]:
                    (GOLDENS / f"{name}.{fmt}").write_text(text)
                    print(f"{name}.{fmt}: exit {code}", file=sys.stderr)
                else:
                    refused += 1
                    print(f"{name}.{fmt}: exit {code}, expected {CASES[name][0]}; not written", file=sys.stderr)
    sys.exit(1 if refused else 0)
