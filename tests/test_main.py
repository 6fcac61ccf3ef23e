"""The command-line entry point, each case in a fresh interpreter.

``ssbspec.__main__.run`` asks OpenBLAS for one thread before numpy loads,
unless the caller chose a count; ``import ssbspec`` must load no numpy so
that ``python -m ssbspec`` reaches it first.  It also keeps the cyclic
garbage collector off for the whole command, freezes the heap and hands
the caller back its collector state.  No command loads scipy, and only
those that draw random samples load ``numpy.random``.
"""
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import ssbspec
from ssbspec.gridfile import write_field
from ssbspec.latticefields import Grid

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
# prints the collector state and the frozen object count as the process exits
REPORT_GC = (
    "import atexit, gc, sys\n"
    "atexit.register(lambda: print(gc.isenabled(), gc.get_freeze_count() > 0, file=sys.stderr))\n"
)
# prints the loaded modules to stderr as the process exits
REPORT_MODULES = (
    "import atexit, sys\n"
    "atexit.register(lambda: print(*sorted(sys.modules), file=sys.stderr))\n"
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


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_freezes_the_heap_and_restores_the_collector(entry):
    run = _child(["-c", REPORT_GC + ENTRY_POINTS[entry]])
    assert run.returncode == 0, run.stderr
    assert run.stdout == GOLDEN.read_bytes()
    assert run.stderr.decode().split()[-2:] == ["True", "True"]


def test_run_keeps_a_disabled_collector_disabled():
    code = (
        "import gc\n"
        "from ssbspec.__main__ import run\n"
        "states = []\n"
        f"for enabled, argv in [(False, {ARGV!r}), (False, ['--no-such-flag']), (True, ['--no-such-flag'])]:\n"
        "    gc.enable() if enabled else gc.disable()\n"
        "    try:\n"
        "        run(argv)\n"
        "    except SystemExit:\n"
        "        pass\n"
        "    states.append(gc.isenabled())\n"
        "print(states)\n"
    )
    run = _child(["-c", code])
    assert run.returncode == 0, run.stderr
    golden = GOLDEN.read_bytes()
    assert run.stdout[: len(golden)] == golden
    assert run.stdout[len(golden) :].decode().split("\n")[0] == "[False, False, True]"


def test_garbage_does_not_grow_with_the_grid(tmp_path):
    # with the collector off for a whole command, its cyclic garbage must be
    # a fixed amount (the argparse parser), not a per-site one
    text = (ROOT / "models" / "electroweak.model").read_text()
    models = []
    for extent in (8, 96):
        path = tmp_path / f"grid{extent}.model"
        path.write_text(text.replace("shape = [16, 16]", f"shape = [{extent}, {extent}]"))
        models.append(str(path))
    code = (
        "import gc, io\n"
        "from ssbspec.cli import main\n"
        "gc.disable()\n"
        "def garbage(model):\n"
        "    argv = ['unitary-gauge', '--model', model, '--format', 'machine']\n"
        "    assert main(argv, stdout=io.StringIO()) == 0\n"
        "    return gc.collect()\n"
        f"small, large = {models!r}\n"
        "garbage(small)  # the first command's lazy imports leave their own garbage\n"
        "print(garbage(small), garbage(large))\n"
    )
    run = _child(["-c", code])
    assert run.returncode == 0, run.stderr
    small, large = map(int, run.stdout.split())
    assert small == large > 0


MODEL = "models/electroweak.model"
# each subcommand, and whether it draws random samples (a seeded potential
# check, a synthesized field), the one reason to load numpy.random
COMMANDS = {
    "spectrum": (["spectrum", "--model", MODEL], True),
    "validate": (["validate", "--model", MODEL], True),
    "gauge-check": (["gauge-check", "--model", MODEL], True),
    "unitary-gauge": (["unitary-gauge", "--model", MODEL], True),
    "unitary-gauge-field": (["unitary-gauge", "--model", MODEL, "--field"], False),
    "yukawa": (["yukawa", "--model", MODEL], False),
    "electroweak": (["electroweak"], False),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_loads_no_scipy_and_numpy_random_only_to_draw(command, tmp_path):
    # numpy alone serves the program, scipy being a test reference only, and
    # numpy.random costs about 16-20 ms of a process's start
    argv, draws = COMMANDS[command]
    if argv[-1] == "--field":
        write_field(tmp_path / "in.field", Grid(dim=2, shape=(4, 4), spacing=0.25), "multiplet", np.ones((4, 4, 2)))
        argv = argv + [str(tmp_path / "in.field")]
    run = _child(["-c", REPORT_MODULES + f"from ssbspec.__main__ import run\nsys.exit(run({argv!r}))\n"])
    assert run.returncode == 0, run.stderr
    modules = set(run.stderr.decode().split("\n")[-2].split())
    assert "ssbspec.cli" in modules
    assert not {m for m in modules if m.split(".")[0] == "scipy"}
    assert ("numpy.random" in modules) == draws
