"""Every public function, method, record field and parameter default is
used by a command, or is listed here with its reason.

The golden cases of tests/test_goldens.py run in process, in machine
format, under sys.setprofile, together with `unitary-gauge --out`, which
no golden writes.  While they run, each field of a public record reads
through a recording property put in place of its tuple getter, and each
call of a public callable records the defaulted parameters that it sets
to another value than their default.  Each function named in a module's
__all__ and each method and property getter defined in a public class must
be entered by one of those commands, each field of a public record read,
and each default overridden, unless KEPT covers it.  A default that no
command overrides is dead weight: drop the parameter, or drop the default
where every command passes the value.  A KEPT name is a function, a
method, a field, a parameter ('module.function.parameter') or a whole
record; each must be public and never used (a record: none of its members
used), so the list cannot go stale.
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

# public functions, methods, fields and records no command uses, each with the reason it stays
KEPT = {
    "__main__.run": "the console entry point around cli.main; tests/test_main.py runs it in a subprocess",
    "breaking.mass_form": "waits for validate's quadratic-Lagrangian check (ROADMAP item 13)",
    "breaking.SpectrumResult.orbit_basis": "test reference: the orbit rows the acceptance and breaking tests perturb along",
    "breaking.SpectrumResult.transverse_basis": "waits for validate's quadratic-Lagrangian check (ROADMAP item 13)",
    "latticefields.central_difference": "the grid-first difference quadratic_expansion_check takes (ROADMAP item 13); the lattice tests check it against closed forms",
    "latticefields.covariance_defects": "test reference: the grid-first boundary of the per-level defects convergence_orders measures site-last",
    "latticefields.smooth_transform_field": "perfbench traces it by name (latticefields.transform_field); the lattice tests sample transforms with it",
    "latticefields.ExpansionCheck": "waits for validate's quadratic-Lagrangian check (ROADMAP item 13)",
    "latticefields.higgs_density": "waits for validate's quadratic-Lagrangian check (ROADMAP item 13)",
    "latticefields.quadratic_expansion_check": "waits for validate's quadratic-Lagrangian check (ROADMAP item 13)",
    "latticefields.smooth_scalar_field": "waits for validate's quadratic-Lagrangian check (ROADMAP item 13)",
    "chiral.su2_irrep": "test reference: tests and perfbench build spin-j models from it",
    "chiral.TripleProduct.contract": "test reference: the direct contraction _frozen_coupling is checked against",
    "liecore.act": "test reference: the group action tests compare against",
    "liecore.GeneratorSet.project": "test reference: the lattice tests measure how far a matrix lies from the span with it",
    "liecore.unrealify": "test reference: inverts realify in the tests",
    "modelfile.parse_document": "test reference: reads machine reports back in the tests",
    "unitarygauge.fiber_derivative": "test reference: the orbit coordinates of the acceptance test",
    "unitarygauge.GaugeFieldResult.transforms": "test reference: the solver's U, which certifies that U phi stays on phi's orbit",
    "unitarygauge.GaugePointResult": "perfbench imports it by name until it reads traces (ROADMAP item 2)",
    "unitarygauge.GoldstoneCheck": "perfbench imports it by name until it reads traces (ROADMAP item 2)",
    "unitarygauge.goldstone_vanish_check": "perfbench imports it by name until it reads traces (ROADMAP item 2)",
    "unitarygauge.solve_unitary_gauge_point": "perfbench patches it by name until it reads traces (ROADMAP item 2)",
}


def _public():
    """('module.name', object) for each function or class in a module's __all__."""
    for info in pkgutil.iter_modules(ssbspec.__path__):
        module = importlib.import_module(f"ssbspec.{info.name}")
        for name in module.__all__:
            obj = getattr(module, name)
            if (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ == module.__name__:
                yield f"{info.name}.{name}", obj


def _callables():
    """'module.name' -> each public function, and 'module.Class.name' -> each
    method and property getter defined in a public class."""
    found = {}
    for name, obj in _public():
        if inspect.isfunction(obj):
            found[name] = obj
            continue
        for attr, value in vars(obj).items():
            value = value.fget if isinstance(value, property) else getattr(value, "__func__", value)
            # a private helper is not surface; a dunder such as a validating __new__ is
            if attr.startswith("_") and not attr.endswith("__"):
                continue
            if inspect.isfunction(value) and value.__module__ == obj.__module__:
                found[f"{name}.{attr}"] = value
    return found


def _defaults():
    """'module.name.parameter' -> (code object, parameter, default) for each
    parameter with a default of a public callable."""
    return {
        f"{name}.{param.name}": (function.__code__, param.name, param.default)
        for name, function in _callables().items()
        for param in inspect.signature(function).parameters.values()
        if param.default is not param.empty
    }


def _same(value, default) -> bool:
    try:
        return value is default or bool(value == default)
    except (TypeError, ValueError):  # an array against a scalar default
        return False


def _fields():
    """('module.Record.field', the MRO class that holds its getter, field)
    for each field of a public record."""
    for name, obj in _public():
        for field in getattr(obj, "_fields", ()):
            owner = next(k for k in obj.__mro__ if field in vars(k))
            yield f"{name}.{field}", owner, field


def _recording(getter, name, read):
    def get(record):
        read.add(name)
        return getter.__get__(record, type(record))

    return property(get)


@pytest.fixture(scope="module")
def used(tmp_path_factory):
    """The names of the public callables entered, the record fields read and
    the defaulted parameters set to another value while the commands run."""
    tmp = tmp_path_factory.mktemp("surface")
    runs = [(code, argv(tmp)) for code, argv in CASES.values()]
    runs.append((0, ["unitary-gauge", "--model", EW, "--seed", "7", "--out", str(tmp / "out.field")]))
    entered, read, overridden = set(), set(), set()
    defaults = {}
    for name, (code, param, default) in _defaults().items():
        defaults.setdefault(code, []).append((name, param, default))

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)
            for name, param, default in defaults.get(frame.f_code, ()):
                if not _same(frame.f_locals[param], default):
                    overridden.add(name)

    with pytest.MonkeyPatch.context() as patch:
        for name, owner, field in _fields():
            patch.setattr(owner, field, _recording(vars(owner)[field], name, read))
        for code, argv in runs:
            sys.setprofile(profile)
            try:
                assert main(argv + ["--format", "machine"], stdout=io.StringIO()) == code, argv
            finally:
                sys.setprofile(None)
    return {name for name, function in _callables().items() if function.__code__ in entered} | read | overridden


def _kept(name):
    return any(name == kept or name.startswith(kept + ".") for kept in KEPT)


def test_every_public_function_is_run_or_kept(used):
    unreached = _callables().keys() - used
    assert sorted(name for name in unreached if not _kept(name)) == [], "run by no command: cut it, or keep it with a reason"
    # a kept name is unused, and a kept record has no used member
    unused = {*_callables(), *(name for name, _, _ in _fields()), *_defaults()} - used
    members = lambda kept: {name for name in unused | used if name.startswith(kept + ".")} or {kept}
    assert sorted(kept for kept in KEPT if not members(kept) <= unused) == [], "used by a command, or not public: drop it from KEPT"


def test_every_record_field_is_read_or_kept(used):
    unread = {name for name, _, _ in _fields() if name not in used}
    assert sorted(name for name in unread if not _kept(name)) == [], "read by no command: cut it, or keep it with a reason"


def test_every_default_is_overridden_or_kept(used):
    unset = _defaults().keys() - used
    assert sorted(name for name in unset if not _kept(name)) == [], (
        "no command sets another value: drop the parameter, or its default where every command passes it"
    )
