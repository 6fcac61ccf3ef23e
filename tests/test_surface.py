"""Every public function is run by a command, or is listed here with its reason.

The golden cases of tests/test_goldens.py run in process, in machine
format, under sys.setprofile, together with `unitary-gauge --out`, which
no golden writes.  Each function named in a module's __all__ must be
entered by one of those commands or appear in KEPT, and each name in KEPT
must be public and never entered, so the list cannot go stale.
"""
import importlib
import inspect
import io
import pkgutil
import sys

import pytest

import ssbspec
from ssbspec.cli import main
from test_goldens import CASES, EW

# public functions no command runs, each with the reason it stays
KEPT = {
    "__main__.run": "the console entry point around cli.main; tests/test_main.py runs it in a subprocess",
    "breaking.mass_form": "waits for validate's quadratic-Lagrangian check (ROADMAP item 13)",
    "latticefields.higgs_density": "waits for validate's quadratic-Lagrangian check (ROADMAP item 13)",
    "latticefields.quadratic_expansion_check": "waits for validate's quadratic-Lagrangian check (ROADMAP item 13)",
    "latticefields.smooth_scalar_field": "waits for validate's quadratic-Lagrangian check (ROADMAP item 13)",
    "chiral.su2_irrep": "test reference: tests and perfbench build spin-j models from it",
    "liecore.act": "test reference: the group action tests compare against",
    "liecore.unrealify": "test reference: inverts realify in the tests",
    "modelfile.parse_document": "test reference: reads machine reports back in the tests",
    "unitarygauge.fiber_derivative": "test reference: the orbit coordinates of the acceptance test",
    "unitarygauge.goldstone_vanish_check": "perfbench imports it by name until it reads traces (ROADMAP item 2)",
    "unitarygauge.solve_unitary_gauge_point": "perfbench patches it by name until it reads traces (ROADMAP item 2)",
}


def _public_functions():
    """'module.name' -> code object of each function in a module's __all__."""
    found = {}
    for info in pkgutil.iter_modules(ssbspec.__path__):
        module = importlib.import_module(f"ssbspec.{info.name}")
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                found[f"{info.name}.{name}"] = obj.__code__
    return found


@pytest.fixture(scope="module")
def entered(tmp_path_factory):
    """The code objects entered while the commands run."""
    tmp = tmp_path_factory.mktemp("surface")
    runs = [(code, argv(tmp)) for code, argv in CASES.values()]
    runs.append((0, ["unitary-gauge", "--model", EW, "--seed", "7", "--out", str(tmp / "out.field")]))
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    for code, argv in runs:
        sys.setprofile(profile)
        try:
            assert main(argv + ["--format", "machine"], stdout=io.StringIO()) == code, argv
        finally:
            sys.setprofile(None)
    return seen


def test_every_public_function_is_run_or_kept(entered):
    unreached = {name for name, code in _public_functions().items() if code not in entered}
    assert sorted(unreached - KEPT.keys()) == [], "run by no command: cut it, or keep it with a reason"
    assert sorted(KEPT.keys() - unreached) == [], "run by a command, or not public: drop it from KEPT"
