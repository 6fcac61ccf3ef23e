"""Spans around the public calls of each ssbspec module, from outside.

A traced invocation (``traced_cli.py``) imports ``ssbspec.cli``, replaces
the names the CLI imported, and the module globals the layers look up
at call time, with timing wrappers, then calls ``ssbspec.cli.main``.
Every wrapper records one span: name, start, end, parent span, and an
optional value (sites swept, iterations of a site, matrices
exponentiated, bytes of a field file).  Spans stay in memory and are
written to one ``.npz`` file when the invocation ends; ``aggregate``
turns the files of a pass into the per-layer metrics.

Importing this module imports nothing heavy, so the ``cli.import`` span
covers all of numpy, scipy and ssbspec.
"""
from __future__ import annotations

import time

NAN = float("nan")

# (module, attribute names, span name).  Module "cli" is ssbspec.cli: the
# names it imported; the others are globals looked up inside the package.
PATCHES = [
    ("ssbspec.cli", ["parse_model_file"], "modelfile.parse"),
    ("ssbspec.cli", ["emit_document"], "modelfile.emit"),
    ("ssbspec.modelfile", ["find_vacuum"], "higgsmodel.find_vacuum"),
    ("ssbspec.cli", ["check_potential_invariance"], "higgsmodel.invariance"),
    ("ssbspec.cli", ["validate_generators"], "liecore.validate"),
    ("ssbspec.cli", ["spectrum"], "breaking.spectrum"),
    ("ssbspec.cli", ["triple_invariance_defect"], "chiral.invariance_defect"),
    ("ssbspec.chiral", ["fermion_mass_matrix", "fermion_mass_after_breaking"], "chiral.mass"),
    (
        "ssbspec.cli",
        ["build_model", "boson_mass_predictions", "charge_operators", "weinberg_angle", "elementary_charge"],
        "electroweak.report",
    ),
    ("ssbspec.cli", ["read_field"], "gridfile.read"),
    ("ssbspec.cli", ["write_field"], "gridfile.write"),
    ("ssbspec.cli", ["apply_unitary_gauge_field"], "unitarygauge.sweep"),
    ("ssbspec.unitarygauge", ["solve_unitary_gauge_point"], "unitarygauge.site"),
    ("ssbspec.latticefields", ["smooth_transform_field"], "latticefields.transform_field"),
    # gauge-check's constant-transform invariance block calls these directly
    (
        "ssbspec.cli",
        [
            "smooth_gauge_field", "smooth_multiplet_field", "gauge_transform_gauge", "gauge_transform_matter",
            "yang_mills_density", "field_strength", "klein_gordon_density",
        ],
        "latticefields.invariance",
    ),
    ("scipy.linalg", ["expm"], "kernel.expm"),
    ("scipy.linalg", ["expm_frechet"], "kernel.expm_frechet"),
    ("scipy.linalg", ["logm"], "kernel.logm"),
]
# one wrapper shared by both modules, so counts see every call
SHARED = [(("ssbspec.cli", "ssbspec.higgsmodel"), "exponentiate", "liecore.exponentiate")]
LAYERS = [
    "cli", "modelfile", "gridfile", "higgsmodel", "liecore", "breaking", "chiral",
    "electroweak", "unitarygauge", "latticefields", "kernel",
]


class Tracer:
    """Stack of open spans plus flat lists of every span recorded."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = []
        self.parent = []
        self.start = []
        self.end = []
        self.value = []
        self._stack = [-1]

    def open(self, name: str) -> int:
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.value.append(NAN)
        self.end.append(NAN)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, value_of=None):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if value_of is not None:
                self.value[idx] = value_of(args, kwargs, result)
            return result

        return traced

    def save(self, path: str) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
            value=np.array(self.value),
        )


def _field_bytes(grid, arr) -> float:
    # header of gridfile: magic 8, kind and dim 8, extents 4 each, h 8, metric n r 12
    return float(36 + 4 * grid.dim + 16 * arr.size)


def _orders_levels(args, kwargs, result) -> float:
    """Grid sites summed over the refinement levels of convergence_orders(gs, grid, ...)."""
    sites = 1
    for m in args[1].shape:
        sites *= m
    return float(sum(sites * 4**k for k in range(kwargs.get("refinements", 2) + 1)))


VALUES = {
    "gridfile.read": lambda a, k, res: _field_bytes(res[0], res[2]),
    "gridfile.write": lambda a, k, res: _field_bytes(a[1], a[3]),
    "unitarygauge.site": lambda a, k, res: float(res.iterations),
    "kernel.expm": lambda a, k, res: float(res.size // (res.shape[-1] * res.shape[-2])),
}


def install(tracer: Tracer) -> None:
    """Replace every name in PATCHES and SHARED with a timing wrapper."""
    import importlib

    for module_name, attrs, span in PATCHES:
        module = importlib.import_module(module_name)
        for attr in attrs:
            setattr(module, attr, tracer.wrap(span, getattr(module, attr), VALUES.get(span)))
    for module_names, attr, span in SHARED:
        modules = [importlib.import_module(m) for m in module_names]
        wrapper = tracer.wrap(span, getattr(modules[0], attr))
        for module in modules:
            setattr(module, attr, wrapper)

    cli = importlib.import_module("ssbspec.cli")
    orders = cli.convergence_orders
    derivative = tracer.wrap("latticefields.orders", orders, _orders_levels)
    strength = tracer.wrap("latticefields.strength_orders", orders, _orders_levels)
    cli.convergence_orders = lambda *a, **k: (strength if "measure" in k else derivative)(*a, **k)


# ---------------------------------------------------------------------------
# aggregation, in the benchmark process


def load(path: str) -> dict:
    import numpy as np

    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def aggregate(traces: list, max_iter: int) -> dict:
    """Per-layer metrics over a pass of traced invocations.

    ``traces`` holds (spans, wall_s) per invocation, ``wall_s`` measured by
    the parent from process start to exit.  Span metrics named after a
    call (``modelfile.parse_s``, ``unitarygauge.sweep_s``) are inclusive:
    the time the caller waited.  ``<layer>.self_s`` is exclusive (a span's
    duration minus the time its child spans cover), so the self times,
    ``cli.import_s`` and ``cli.other_s`` add up to the traced wall time.
    """
    import numpy as np

    incl: dict[str, float] = {}
    count: dict[str, int] = {}
    value: dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS[1:], 0.0)
    wall_total = other = 0.0
    site_its, site_durs = [], []
    for spans, wall in traces:
        names = [str(n) for n in spans["names"]]
        name_of = np.array(names, dtype=object)[spans["name"]]
        dur = spans["end"] - spans["start"]
        covered = np.zeros(len(dur))
        nested = spans["parent"] >= 0
        np.add.at(covered, spans["parent"][nested], dur[nested])
        self_t = dur - covered
        for name in names:
            mask = name_of == name
            incl[name] = incl.get(name, 0.0) + float(dur[mask].sum())
            count[name] = count.get(name, 0) + int(mask.sum())
            value[name] = value.get(name, 0.0) + float(np.nansum(spans["value"][mask]))
            layer = name.split(".")[0]
            if layer != "cli":
                layer_self[layer] += float(self_t[mask].sum())
        root = name_of == "cli"
        # root self time (argparse, report building) plus interpreter
        # start and exit, which lie outside every span
        other += float(self_t[root].sum()) + wall - float(dur[root].sum())
        wall_total += wall
        sites = name_of == "unitarygauge.site"
        site_its.append(spans["value"][sites])
        site_durs.append(dur[sites])

    its = np.concatenate(site_its)
    durs = np.concatenate(site_durs)
    fell_back = ~(its < max_iter)  # NaN: the site raised, after the fallback ladder
    chart = ~fell_back
    levels = value.get("latticefields.orders", 0.0) + value.get("latticefields.strength_orders", 0.0)

    def s(name):
        return incl.get(name, 0.0)

    def n(name):
        return count.get(name, 0)

    cli_import = s("cli.import")
    m = {
        "cli.import_s": cli_import,
        "cli.other_s": other,
        "modelfile.parse_s": s("modelfile.parse"),
        "modelfile.emit_s": s("modelfile.emit"),
        "higgsmodel.find_vacuum_s": s("higgsmodel.find_vacuum"),
        "higgsmodel.invariance_s": s("higgsmodel.invariance"),
        "liecore.validate_s": s("liecore.validate"),
        "liecore.exponentiate_calls": n("liecore.exponentiate"),
        "breaking.spectrum_s": s("breaking.spectrum"),
        "chiral.invariance_defect_s": s("chiral.invariance_defect"),
        "chiral.mass_s": s("chiral.mass"),
        "electroweak.report_s": s("electroweak.report"),
        "gridfile.read_s": s("gridfile.read"),
        "gridfile.write_s": s("gridfile.write"),
        "gridfile.bytes": value.get("gridfile.read", 0.0) + value.get("gridfile.write", 0.0),
        "unitarygauge.sweep_s": s("unitarygauge.sweep"),
        "unitarygauge.sites": int(its.size),
        "unitarygauge.us_per_site": 1e6 * s("unitarygauge.sweep") / its.size if its.size else 0.0,
        "unitarygauge.iterations": int(np.nansum(its)),
        "unitarygauge.iterations_per_site": float(np.nanmean(its)) if np.isfinite(its).any() else 0.0,
        "unitarygauge.chart_us_per_site": 1e6 * float(durs[chart].mean()) if chart.any() else 0.0,
        "unitarygauge.fallback_sites": int(fell_back.sum()),
        "unitarygauge.fallback_ratio": float(fell_back.mean()) if its.size else 0.0,
        "unitarygauge.fallback_s": float(durs[fell_back].sum()),
        "latticefields.orders_s": s("latticefields.orders"),
        "latticefields.strength_orders_s": s("latticefields.strength_orders"),
        "latticefields.transform_field_s": s("latticefields.transform_field"),
        "latticefields.invariance_s": s("latticefields.invariance"),
        "latticefields.ns_per_site_level": (
            1e9 * (s("latticefields.orders") + s("latticefields.strength_orders")) / levels if levels else 0.0
        ),
        "kernel.expm_calls": n("kernel.expm"),
        "kernel.expm_frechet_calls": n("kernel.expm_frechet"),
        "kernel.logm_calls": n("kernel.logm"),
        "kernel.expm_matrices": int(value.get("kernel.expm", 0.0)),
        "kernel.expm_s": s("kernel.expm"),
        "kernel.expm_frechet_s": s("kernel.expm_frechet"),
        "kernel.logm_s": s("kernel.logm"),
    }
    for layer, t in layer_self.items():
        m[f"{layer}.self_s"] = t
    m["trace.wall_s"] = wall_total
    return m
