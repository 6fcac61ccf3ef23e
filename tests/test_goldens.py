"""Byte-exact `--format machine` reports for every subcommand.

Each case runs main() in process and compares its output with the file
tests/goldens/<name>.machine byte for byte, so a refactor that must keep
behaviour cannot move a single digit.  After a deliberate change of
output, rewrite the goldens with

    PYTHONPATH=src python tests/test_goldens.py

and review the diff.
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

# a doublet value where the chart Newton stalls from t = 0, Gauss-Newton
# from the logarithm of the orbit climb's group element fails, and the
# scan over the stabilizer twist of that element finds the chart coefficients
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


CASES = {
    "electroweak_default": lambda tmp: ["electroweak"],
    "electroweak_params": lambda tmp: [
        "electroweak", "--g", "1.5", "--gp", "0.5", "--mu", "3", "--lambda", "0.7"
    ],
    "spectrum_electroweak": lambda tmp: ["spectrum", "--model", EW, "--seed", "7"],
    "validate_electroweak": lambda tmp: ["validate", "--model", EW, "--seed", "7"],
    "yukawa_electroweak": lambda tmp: ["yukawa", "--model", EW, "--seed", "7"],
    "spectrum_spin1": lambda tmp: ["spectrum", "--model", SPIN1, "--seed", "7"],
    "validate_spin1": lambda tmp: ["validate", "--model", SPIN1, "--seed", "7"],
    "spectrum_symmetric": lambda tmp: ["spectrum", "--model", SYMMETRIC, "--seed", "7"],
    "unitary_gauge_grid": lambda tmp: ["unitary-gauge", "--model", EW, "--seed", "7"],
    "unitary_gauge_twist": lambda tmp: [
        "unitary-gauge", "--model", EW, "--seed", "7", "--field", _twist_field(tmp)
    ],
    "gauge_check_euclidean": lambda tmp: [
        "gauge-check", "--grid", "16", "--refine", "1", "--seed", "0", "--metric", "euclidean"
    ],
    "gauge_check_lorentzian": lambda tmp: [
        "gauge-check", "--grid", "16", "--refine", "1", "--seed", "0", "--metric", "lorentzian"
    ],
}


def _report(name: str, tmp: pathlib.Path) -> tuple[int, str]:
    out = io.StringIO()
    code = main(CASES[name](tmp) + ["--format", "machine"], stdout=out)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_machine_report_matches_golden(name, tmp_path):
    code, text = _report(name, tmp_path)
    assert code == 0
    assert text == (GOLDENS / f"{name}.machine").read_text()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            code, text = _report(name, pathlib.Path(tmp))
            (GOLDENS / f"{name}.machine").write_text(text)
            print(f"{name}: exit {code}", file=sys.stderr)
