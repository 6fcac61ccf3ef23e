"""The command-line entry point, each case in a fresh interpreter.

``ssbspec.__main__.run`` asks OpenBLAS for one thread before numpy loads,
unless the caller chose a count; ``import ssbspec`` must load no numpy so
that ``python -m ssbspec`` reaches it first.
"""
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import ssbspec

SRC = str(pathlib.Path(ssbspec.__file__).parents[1])
ROOT = pathlib.Path(SRC).parent
GOLDEN = pathlib.Path(__file__).parent / "goldens" / "electroweak_default.machine"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
ARGV = ["electroweak", "--format", "machine"]
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()

# prints the process's thread count to stderr as it exits
COUNT_TASKS = (
    "import atexit, os, sys\n"
    "atexit.register(lambda: print(len(os.listdir('/proc/self/task')), file=sys.stderr))\n"
)
ENTRY_POINTS = {
    # what the [project.scripts] wrapper runs
    "script": f"from ssbspec.__main__ import run\nsys.exit(run({ARGV!r}))\n",
    # what python -m ssbspec runs
    "module": f"import runpy\nsys.argv = ['ssbspec', *{ARGV!r}]\nrunpy.run_module('ssbspec', run_name='__main__', alter_sys=True)\n",
}


def _openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy before 1.25 has no dict mode
        return False
    return "openblas" in blas


needs_openblas = pytest.mark.skipif(
    not (os.path.isdir("/proc/self/task") and _openblas()), reason="counts OpenBLAS threads in /proc"
)


def _child(argv: list, **blas: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(blas, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *argv], env=env, cwd=ROOT, capture_output=True)


def _tasks(entry: str, **blas: str) -> int:
    run = _child(["-c", COUNT_TASKS + ENTRY_POINTS[entry]], **blas)
    assert run.returncode == 0, run.stderr
    assert run.stdout == GOLDEN.read_bytes()
    return int(run.stderr.decode().split()[-1])


def test_import_loads_no_numpy():
    run = _child(["-c", "import sys, ssbspec\nprint('numpy' in sys.modules)"])
    assert run.returncode == 0, run.stderr
    assert run.stdout.decode().split() == ["False"]


@needs_openblas
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_runs_one_blas_thread(entry):
    assert _tasks(entry) == 1


@needs_openblas
@pytest.mark.skipif(CPUS < 2, reason="OpenBLAS caps its threads at the CPU count")
@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_caller_thread_count_wins(entry, var):
    assert _tasks(entry, **{var: "2"}) == 2


def test_python_m_prints_golden():
    run = _child(["-m", "ssbspec", *ARGV])
    assert run.returncode == 0, run.stderr
    assert run.stdout == GOLDEN.read_bytes()


def test_pyproject_script_is_run():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"ssbspec": "ssbspec.__main__:run"}
