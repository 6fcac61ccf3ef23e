"""Line-oriented documents for models and reports.

Grammar, one construct per line:

    document := (blank | comment | section | entry)*
    section  := "[" name "]"
    entry    := key " = " value
    comment  := "#" anything

Values are strict one-line JSON scalars or nested arrays (no objects).
Complex entries are [re, im] pairs at the innermost level of matrix and
tensor values.  Floats are emitted with 17 significant digits, so a
parse of an emitted document reproduces every number exactly; parse
errors carry line and section locations and are reported together.
"""
from __future__ import annotations

import json
import math
import re
from typing import NamedTuple

import numpy as np

from .chiral import TripleProduct
from .higgsmodel import HiggsModel, NotAVacuumError, PotentialError, QuarticPotential, find_vacuum
from .latticefields import Grid, LatticeError
from .liecore import FactorLabel, GeneratorSet, GeneratorError

__all__ = [
    "Document",
    "ModelBundle",
    "ModelFileError",
    "ParseIssue",
    "YukawaSection",
    "emit_document",
    "parse_document",
    "parse_model_file",
]

RESERVED_SLOT = "higgs"  # names the model's own multiplet in yukawa slots

_SECTION_RE = re.compile(r"^\[([a-z][a-z0-9_]*)\]$")
_ENTRY_RE = re.compile(r"^([a-z][a-z0-9_]*) = (.+)$")

Document = dict  # section name -> {key -> value}

# the [grid] key behind each of Grid's errors, by a word of the error message
_GRID_FIELDS = (("dimension", "dim"), ("extent", "shape"), ("spacing", "h"), ("metric", "metric"))


class ParseIssue(NamedTuple):
    line: int  # 1-based, 0 for document-level issues
    section: str
    message: str

    def __str__(self):
        where = f"line {self.line}" if self.line else "document"
        sec = f" [{self.section}]" if self.section else ""
        return f"{where}{sec}: {self.message}"


class ModelFileError(ValueError):
    def __init__(self, issues):
        self.issues = tuple(issues)
        super().__init__("\n".join(str(i) for i in self.issues))


def _finite(text: str) -> float:
    """JSON number hook: NaN, Infinity and overflowing literals are errors."""
    value = float(text)
    if not math.isfinite(value):
        raise json.JSONDecodeError(f"non-finite number {text}", text, 0)
    return value


def _float_range_int(text: str) -> int:
    """JSON integer hook: a literal beyond the float range is an error, so
    that converting a coupling or spacing to float cannot overflow."""
    if math.isinf(float(text)):
        digits = len(text.lstrip("-"))
        raise json.JSONDecodeError(f"integer of {digits} digits is beyond the float range", text, 0)
    return int(text)


def _is_int(value) -> bool:
    """JSON integer; true and false are booleans even though bool subclasses int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def parse_document(text: str) -> Document:
    return _parse_lines(text)[0]


def _parse_lines(text: str) -> tuple[Document, dict]:
    """The document, and the line of each (section, key) and section header (section, None)."""
    doc: Document = {}
    lines = {}
    issues = []
    section = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _SECTION_RE.match(line)
        if m:
            section = m.group(1)
            if section in doc:
                issues.append(ParseIssue(lineno, section, "duplicate section"))
            else:
                doc[section] = {}
                lines[(section, None)] = lineno
            continue
        m = _ENTRY_RE.match(line)
        if not m:
            issues.append(ParseIssue(lineno, section, f"unparseable line {raw!r}"))
            continue
        if not section:
            issues.append(ParseIssue(lineno, "", "entry before any section header"))
            continue
        key, value_text = m.group(1), m.group(2)
        if key in doc[section]:
            issues.append(ParseIssue(lineno, section, f"duplicate key {key!r}"))
            continue
        try:
            doc[section][key] = json.loads(
                value_text, parse_float=_finite, parse_int=_float_range_int, parse_constant=_finite
            )
        except json.JSONDecodeError as err:
            issues.append(ParseIssue(lineno, section, f"bad value for {key!r}: {err.msg}"))
        lines[(section, key)] = lineno
    if issues:
        raise ModelFileError(issues)
    return doc, lines


def _format_float(x: float) -> str:
    if x != x:
        raise ModelFileError([ParseIssue(0, "", "cannot emit NaN")])
    out = f"{float(x):.17g}"
    if not any(c in out for c in ".ei"):
        out += ".0"
    return out


def _emit_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_float(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_emit_value(v) for v in value) + "]"
    if value is None:
        return "null"
    raise ModelFileError([ParseIssue(0, "", f"cannot emit value of type {type(value).__name__}")])


def emit_document(doc: Document) -> str:
    chunks = []
    for section, entries in doc.items():
        lines = [f"[{section}]"]
        for key, value in entries.items():
            lines.append(f"{key} = {_emit_value(value)}")
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"


# ---------------------------------------------------------------------------
# model assembly


class YukawaSection(NamedTuple):
    product: TripleProduct
    slots: tuple[str, str, str]
    g_y: float


class ModelBundle(NamedTuple):
    model: HiggsModel
    representations: dict
    yukawa: YukawaSection | None
    grid: Grid | None


def _complex_array(value, issue, section, key):
    """Nested [re, im] lists to a complex ndarray; issues on ragged data."""
    try:
        arr = np.array(value, dtype=float)
    except (ValueError, TypeError):
        issue(section, f"{key}: ragged or non-numeric array", key)
        return None
    if arr.ndim < 1 or arr.shape[-1] != 2:
        issue(section, f"{key}: innermost entries must be [re, im] pairs", key)
        return None
    return arr[..., 0] + 1j * arr[..., 1]


def parse_model_file(text: str) -> ModelBundle:
    doc, lines = _parse_lines(text)
    issues = []

    def issue(section, message, key=None):
        """Record an issue at the key's line, else at its section header (0 if absent)."""
        line = lines.get((section, key), lines.get((section, None), 0))
        issues.append(ParseIssue(line, section, message))

    def entries_of(name, required, optional=None, needed=False):
        """The values of a section's required keys (None if missing), then of
        its optional keys (their default if missing), after an issue for each
        missing or unknown key.  None for an absent section, which is an
        issue when the section is needed."""
        if name not in doc:
            if needed:
                issue(name, f"missing [{name}] section")
            return None
        optional = optional or {}
        present = doc[name]
        for key in required:
            if key not in present:
                issue(name, f"missing key {key!r}")
        for key in present:
            if key not in required and key not in optional:
                issue(name, f"unknown key {key!r}", key)
        return [present.get(key) for key in required] + [present.get(key, v) for key, v in optional.items()]

    known = {"algebra", "potential", "vacuum", "representations", "yukawa", "grid"}
    for section in doc:
        if section not in known:
            issue(section, "unknown section")

    gs = None
    algebra = entries_of("algebra", ("n", "r", "generators"), {"factors": None}, needed=True)
    if algebra is not None:
        n, r, gens_raw, factors_raw = algebra
        if n is not None and r is not None and not (_is_int(n) and _is_int(r)):
            issue("algebra", "n and r must be integers", "r" if _is_int(n) else "n")
        if gens_raw is not None:
            gens = _complex_array(gens_raw, issue, "algebra", "generators")
            if gens is not None:
                if _is_int(n) and _is_int(r) and gens.shape != (r, n, n):
                    issue(
                        "algebra",
                        f"generators have shape {gens.shape}, expected ({r}, {n}, {n})",
                        "generators",
                    )
                else:
                    factors = ()
                    for item in factors_raw or []:
                        if (
                            not isinstance(item, list)
                            or len(item) != 3
                            or not isinstance(item[0], str)
                            or not isinstance(item[1], list)
                        ):
                            issue("algebra", "factors entries must be [name, indices, coupling]", "factors")
                            continue
                        name, indices, coupling = item
                        if not all(_is_int(i) for i in indices):
                            issue("algebra", f"non-integer index for factor {name!r}", "factors")
                            continue
                        if not (_is_number(coupling) and coupling > 0):
                            issue("algebra", f"non-positive coupling for factor {name!r}", "factors")
                            continue
                        factors += (FactorLabel(name=name, indices=tuple(indices), coupling=float(coupling)),)
                    try:
                        gs = GeneratorSet(matrices=gens, factors=factors)
                    except GeneratorError as err:
                        issue("algebra", str(err), "factors" if str(err).startswith("factor") else "generators")

    potential = None
    couplings = entries_of("potential", ("mu", "lambda"), needed=True)
    if couplings is not None:
        mu, lam = couplings
        if mu is not None and lam is not None:
            if not (_is_number(mu) and _is_number(lam)):
                issue("potential", "mu and lambda must be numbers", "lambda" if _is_number(mu) else "mu")
            elif not lam > 0:
                issue("potential", f"non-positive coupling lambda = {lam}", "lambda")
            else:
                try:
                    potential = QuarticPotential(mu=float(mu), lam=float(lam))
                except PotentialError as err:
                    issue("potential", str(err), "mu")

    model = None
    if gs is not None and potential is not None:
        pinned = entries_of("vacuum", ("vector",))
        if pinned is None:
            vacuum = find_vacuum(HiggsModel(generators=gs, potential=potential), np.ones(gs.n))
        else:
            (vector,) = pinned
            vacuum = None if vector is None else _complex_array(vector, issue, "vacuum", "vector")
        if vacuum is not None:
            try:
                model = HiggsModel(generators=gs, potential=potential, vacuum=vacuum)
            except NotAVacuumError as err:
                issue("vacuum", str(err), "vector")

    representations = {}
    for name, raw in doc.get("representations", {}).items():
        if name == RESERVED_SLOT:
            issue("representations", f"{RESERVED_SLOT!r} is reserved for the model multiplet", name)
            continue
        mats = _complex_array(raw, issue, "representations", name)
        if mats is None:
            continue
        if mats.ndim != 3 or (gs is not None and mats.shape[0] != gs.r):
            issue(
                "representations",
                f"{name}: expected ({gs.r if gs else '?'}, dim, dim) generator stack, got {mats.shape}",
                name,
            )
            continue
        try:
            representations[name] = GeneratorSet(mats)
        except GeneratorError as err:
            issue("representations", f"{name}: {err}", name)

    yukawa = None
    coupling = entries_of("yukawa", ("slots", "conjugated", "tensor", "g_y"))
    if coupling is not None:
        slots, flags, tensor_raw, g_y = coupling
        ok = True
        if not (isinstance(slots, list) and len(slots) == 3 and all(isinstance(s, str) for s in slots)):
            issue("yukawa", "slots must be three representation names", "slots")
            ok = False
        if not (isinstance(flags, list) and len(flags) == 3 and all(isinstance(f, bool) for f in flags)):
            issue("yukawa", "conjugated must be three booleans", "conjugated")
            ok = False
        if not _is_number(g_y):
            issue("yukawa", "g_y must be a number", "g_y")
            ok = False
        tensor = _complex_array(tensor_raw, issue, "yukawa", "tensor") if tensor_raw is not None else None
        if ok and tensor is not None and gs is not None:
            reps = {RESERVED_SLOT: gs, **representations}
            for s in slots:
                if s not in reps:
                    issue("yukawa", f"unknown representation {s!r}", "slots")
            if all(s in reps for s in slots):
                dims = tuple(reps[s].n for s in slots)
                if tensor.shape != dims:
                    issue("yukawa", f"tensor shape {tensor.shape} does not match slot dimensions {dims}", "tensor")
                else:
                    yukawa = YukawaSection(
                        product=TripleProduct(tensor=tensor, conjugated=tuple(flags)),
                        slots=tuple(slots),
                        g_y=float(g_y),
                    )

    grid = None
    lattice = entries_of("grid", ("dim", "shape", "h"), {"metric": "euclidean"})
    if lattice is not None:
        dim, shape, h, metric = lattice
        typed = {
            "dim": (_is_int(dim), "an integer"),
            "shape": (isinstance(shape, list) and all(_is_int(m) for m in shape), "a list of integers"),
            "h": (_is_number(h), "a number"),
            "metric": (isinstance(metric, str), "a string"),
        }
        present = doc["grid"]
        mistyped = [key for key, (ok, _) in typed.items() if key in present and not ok]
        for key in mistyped:
            issue("grid", f"{key} must be {typed[key][1]}", key)
        if not mistyped and all(key in present for key in ("dim", "shape", "h")):
            try:
                grid = Grid(dim=dim, shape=tuple(shape), spacing=float(h), metric=metric)
            except LatticeError as err:
                key = next((k for word, k in _GRID_FIELDS if word in str(err)), None)
                issue("grid", str(err), key)

    if issues:
        raise ModelFileError(issues)
    assert model is not None
    return ModelBundle(model=model, representations=representations, yukawa=yukawa, grid=grid)
