"""The names the benchmark's tracer looks up in ssbspec must still exist.

perfbench/tracing.py wraps ssbspec functions by (module, name) when a run
is traced, and perfbench/run.py reads the solver's iteration budget; a
rename in ssbspec would only show up as a failing ``--trace 1`` run.
"""
import importlib
import importlib.util
import pathlib

import pytest

from ssbspec.unitarygauge import GaugePointResult, UnitaryGaugeConfig

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_names() -> list:
    tracing = _tracing()
    pairs = [(module, attr) for module, attrs, _ in tracing.PATCHES for attr in attrs]
    pairs += [(module, attr) for modules, attr, _ in tracing.SHARED for module in modules]
    # install() also wraps the CLI's convergence_orders by name
    pairs.append(("ssbspec.cli", "convergence_orders"))
    return [(module, attr) for module, attr in pairs if module.split(".")[0] == "ssbspec"]


@pytest.mark.parametrize("module, attr", _traced_names(), ids=lambda x: x)
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_solver_fields_the_benchmark_reads():
    assert UnitaryGaugeConfig().max_iter > 0
    # the tracer records the iterations of each point solve
    assert "iterations" in GaugePointResult._fields
