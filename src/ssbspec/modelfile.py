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
from .liecore import GeneratorError, GeneratorSet, _coefficient_map, realify, safe_norm

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


def _is_triple(value, kind) -> bool:
    return isinstance(value, list) and len(value) == 3 and all(isinstance(x, kind) for x in value)


_INTEGER = (_is_int, "an integer")
_NUMBER = (_is_number, "a number")
_ARRAY = (lambda v: isinstance(v, list), "an array")

# every key of each fixed section: its type test, what its value must be and,
# for an optional key, its default.  [representations] takes any key.  null
# passes no test, so it is a value of the wrong type, never a missing key.
_KEYS = {
    "algebra": {"n": _INTEGER, "r": _INTEGER, "generators": _ARRAY},
    "potential": {"mu": _NUMBER, "lambda": _NUMBER},
    "vacuum": {"vector": _ARRAY},
    "yukawa": {
        "slots": (lambda v: _is_triple(v, str), "three representation names"),
        "conjugated": (lambda v: _is_triple(v, bool), "three booleans"),
        "tensor": _ARRAY,
        "g_y": _NUMBER,
    },
    "grid": {
        "dim": _INTEGER,
        "shape": (lambda v: isinstance(v, list) and all(_is_int(m) for m in v), "a list of integers"),
        "h": _NUMBER,
        "metric": (lambda v: isinstance(v, str), "a string", "euclidean"),
    },
}


def _no_object(pairs):
    """JSON object hook: the dialect has no objects, and emit_document could not write one back."""
    raise json.JSONDecodeError("objects are not allowed", "", 0)


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
                value_text,
                parse_float=_finite,
                parse_int=_float_range_int,
                parse_constant=_finite,
                object_pairs_hook=_no_object,
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


def _complex_array(entries, key, issue, section):
    """entries[key], nested [re, im] lists, to a complex ndarray; None if absent or ragged."""
    if key not in entries:
        return None
    try:
        arr = np.array(entries[key], dtype=float)
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

    def entries_of(name, needed=False):
        """The well-typed values of a fixed section's keys in _KEYS order, defaults
        filled in, after an issue for each missing, mistyped or unknown key, so one
        bad key hides no issue of another.  Empty for an absent section, which is an
        issue when the section is needed."""
        if name not in doc:
            if needed:
                issue(name, f"missing [{name}] section")
            return {}
        present = doc[name]
        values = {}
        for key, (test, what, *default) in _KEYS[name].items():
            if key not in present and not default:
                issue(name, f"missing key {key!r}")
            elif key in present and not test(present[key]):
                issue(name, f"{key} must be {what}", key)
            else:
                values[key] = present.get(key, *default)
        for key in present:
            if key not in _KEYS[name]:
                issue(name, f"unknown key {key!r}", key)
        return values

    for section in doc:
        if section not in _KEYS and section != "representations":
            issue(section, "unknown section")

    gs = None
    algebra = entries_of("algebra", needed=True)
    gens = _complex_array(algebra, "generators", issue, "algebra")
    expected = tuple(algebra[key] for key in ("r", "n", "n") if key in algebra)
    if gens is not None and len(expected) == 3 and gens.shape != expected:
        issue("algebra", f"generators have shape {gens.shape}, expected {expected}", "generators")
    elif gens is not None:
        try:
            checked = GeneratorSet(gens)
            _coefficient_map(checked.unit_basis()[1])  # names a zero or dependent generator
            gs = checked
        except GeneratorError as err:
            issue("algebra", str(err), "generators")

    potential = None
    couplings = entries_of("potential", needed=True)
    if couplings.keys() == _KEYS["potential"].keys():
        mu, lam = couplings.values()
        if not lam > 0:
            issue("potential", f"non-positive coupling lambda = {lam}", "lambda")
        else:
            try:
                potential = QuarticPotential(mu=float(mu), lam=float(lam))
            except PotentialError as err:
                issue("potential", str(err), "mu")

    model = None
    vacuum = _complex_array(entries_of("vacuum"), "vector", issue, "vacuum")
    if gs is not None and potential is not None and "vacuum" not in doc:
        vacuum = find_vacuum(HiggsModel(generators=gs, potential=potential), np.ones(gs.n))
    if gs is not None and potential is not None and vacuum is not None:
        try:
            model = HiggsModel(generators=gs, potential=potential, vacuum=vacuum)
        except NotAVacuumError as err:
            issue("vacuum", str(err), "vector")

    representations = {}
    for name in doc.get("representations", {}):
        if name == RESERVED_SLOT:
            issue("representations", f"{RESERVED_SLOT!r} is reserved for the model multiplet", name)
            continue
        mats = _complex_array(doc["representations"], name, issue, "representations")
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
    coupling = entries_of("yukawa")
    tensor = _complex_array(coupling, "tensor", issue, "yukawa")
    if tensor is not None and gs is not None and coupling.keys() == _KEYS["yukawa"].keys():
        slots, flags, _, g_y = coupling.values()
        reps = {RESERVED_SLOT: gs, **representations}
        for s in slots:
            if s not in reps:
                issue("yukawa", f"unknown representation {s!r}", "slots")
        if all(s in reps for s in slots):
            dims = tuple(reps[s].n for s in slots)
            if tensor.shape != dims:
                issue("yukawa", f"tensor shape {tensor.shape} does not match slot dimensions {dims}", "tensor")
            # |g_y| |tensor| |v0| bounds every fermion mass; Python floats
            # overflow to inf without a warning
            elif model is not None and not math.isfinite(
                abs(float(g_y)) * float(safe_norm(realify(tensor.ravel()))) * float(safe_norm(realify(model.vacuum)))
            ):
                issue("yukawa", f"g_y = {g_y} makes the fermion masses overflow at this tensor and vacuum", "g_y")
            else:
                yukawa = YukawaSection(
                    product=TripleProduct(tensor=tensor, conjugated=tuple(flags)),
                    slots=tuple(slots),
                    g_y=float(g_y),
                )

    grid = None
    lattice = entries_of("grid")
    if lattice.keys() == _KEYS["grid"].keys():
        dim, shape, h, metric = lattice.values()
        try:
            grid = Grid(dim=dim, shape=tuple(shape), spacing=float(h), metric=metric)
        except LatticeError as err:
            key = next((k for word, k in _GRID_FIELDS if word in str(err)), None)
            issue("grid", str(err), key)

    if issues:
        raise ModelFileError(issues)
    return ModelBundle(model=model, representations=representations, yukawa=yukawa, grid=grid)
