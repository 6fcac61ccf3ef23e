"""Smoke tests: each script in scripts/ runs to completion on a small input."""
import os
import pathlib
import subprocess
import sys

import pytest

import ssbspec

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["electroweak_demo.py"],
        ["gauge_covariance_study.py", "--grid", "8", "--refine", "1", "--seeds", "1"],
        pytest.param(
            ["gauge_covariance_study.py", "--grid", "8", "--refine", "1", "--seeds", "1",
             "--model", str(ROOT / "tests" / "goldens" / "spin1.model")],
            id="gauge_covariance_study.py-spin1",
        ),
        ["unitary_gauge_sweep.py", "--grid", "4", "--seeds", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_script_exits_cleanly(argv):
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(ssbspec.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip()
