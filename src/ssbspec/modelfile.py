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
from dataclasses import dataclass

import numpy as np

from .chiral import Representation, RepresentationError, TripleProduct
from .higgsmodel import HiggsModel, NotAVacuumError, QuarticPotential, find_vacuum
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


@dataclass(frozen=True)
class ParseIssue:
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


def _is_int(value) -> bool:
    """JSON integer; true and false are booleans even though bool subclasses int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def parse_document(text: str) -> Document:
    doc: Document = {}
    issues = []
    section = ""
    section_lines = {}
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
                section_lines[section] = lineno
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
            doc[section][key] = json.loads(value_text, parse_float=_finite, parse_constant=_finite)
        except json.JSONDecodeError as err:
            issues.append(ParseIssue(lineno, section, f"bad value for {key!r}: {err.msg}"))
    if issues:
        raise ModelFileError(issues)
    return doc


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


@dataclass(frozen=True)
class YukawaSection:
    product: TripleProduct
    slots: tuple[str, str, str]
    g_y: float


@dataclass(frozen=True)
class ModelBundle:
    model: HiggsModel
    representations: dict
    yukawa: YukawaSection | None
    grid: Grid | None


def _complex_array(value, issues, lineno_section, name):
    """Nested [re, im] lists to a complex ndarray; issues on ragged data."""
    try:
        arr = np.array(value, dtype=float)
    except (ValueError, TypeError):
        issues.append(ParseIssue(0, lineno_section, f"{name}: ragged or non-numeric array"))
        return None
    if arr.ndim < 1 or arr.shape[-1] != 2:
        issues.append(
            ParseIssue(0, lineno_section, f"{name}: innermost entries must be [re, im] pairs")
        )
        return None
    return arr[..., 0] + 1j * arr[..., 1]


def _take(entries, key, issues, section, required=True):
    if key not in entries:
        if required:
            issues.append(ParseIssue(0, section, f"missing key {key!r}"))
        return None
    return entries.pop(key)


def parse_model_file(text: str) -> ModelBundle:
    doc = parse_document(text)
    issues = []
    known = {"algebra", "potential", "vacuum", "representations", "yukawa", "grid"}
    for section in doc:
        if section not in known:
            issues.append(ParseIssue(0, section, "unknown section"))

    gs = None
    algebra = dict(doc.get("algebra", {}))
    if "algebra" not in doc:
        issues.append(ParseIssue(0, "algebra", "missing [algebra] section"))
    else:
        n = _take(algebra, "n", issues, "algebra")
        r = _take(algebra, "r", issues, "algebra")
        gens_raw = _take(algebra, "generators", issues, "algebra")
        factors_raw = _take(algebra, "factors", issues, "algebra", required=False)
        for key in algebra:
            issues.append(ParseIssue(0, "algebra", f"unknown key {key!r}"))
        if n is not None and r is not None and not (_is_int(n) and _is_int(r)):
            issues.append(ParseIssue(0, "algebra", "n and r must be integers"))
        if gens_raw is not None:
            gens = _complex_array(gens_raw, issues, "algebra", "generators")
            if gens is not None:
                if _is_int(n) and _is_int(r) and gens.shape != (r, n, n):
                    issues.append(
                        ParseIssue(
                            0,
                            "algebra",
                            f"generators have shape {gens.shape}, expected ({r}, {n}, {n})",
                        )
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
                            issues.append(
                                ParseIssue(
                                    0, "algebra", "factors entries must be [name, indices, coupling]"
                                )
                            )
                            continue
                        name, indices, coupling = item
                        if not (_is_number(coupling) and coupling > 0):
                            issues.append(
                                ParseIssue(0, "algebra", f"non-positive coupling for factor {name!r}")
                            )
                            continue
                        factors += (
                            FactorLabel(
                                name=name, indices=tuple(int(i) for i in indices), coupling=float(coupling)
                            ),
                        )
                    try:
                        gs = GeneratorSet(matrices=gens, factors=factors)
                        skew = gs.skew_defect()
                        scale = max(1.0, float(np.max(np.abs(gens))))
                        if skew > 1e-10 * scale:
                            issues.append(
                                ParseIssue(
                                    0, "algebra", f"generators not skew-Hermitian (defect {skew:.3e})"
                                )
                            )
                            gs = None
                    except GeneratorError as err:
                        issues.append(ParseIssue(0, "algebra", str(err)))

    potential = None
    pot_entries = dict(doc.get("potential", {}))
    if "potential" not in doc:
        issues.append(ParseIssue(0, "potential", "missing [potential] section"))
    else:
        mu = _take(pot_entries, "mu", issues, "potential")
        lam = _take(pot_entries, "lambda", issues, "potential")
        for key in pot_entries:
            issues.append(ParseIssue(0, "potential", f"unknown key {key!r}"))
        if mu is not None and lam is not None:
            if not (_is_number(mu) and _is_number(lam)):
                issues.append(ParseIssue(0, "potential", "mu and lambda must be numbers"))
            elif not lam > 0:
                issues.append(ParseIssue(0, "potential", f"non-positive coupling lambda = {lam}"))
            else:
                potential = QuarticPotential(mu=float(mu), lam=float(lam))

    model = None
    if gs is not None and potential is not None:
        vac_entries = dict(doc.get("vacuum", {}))
        vacuum = None
        if "vacuum" in doc:
            vec_raw = _take(vac_entries, "vector", issues, "vacuum")
            for key in vac_entries:
                issues.append(ParseIssue(0, "vacuum", f"unknown key {key!r}"))
            if vec_raw is not None:
                vacuum = _complex_array(vec_raw, issues, "vacuum", "vector")
        if vacuum is None and "vacuum" not in doc:
            if potential.vacuum_radius > 0:
                probe = HiggsModel(generators=gs, potential=potential)
                vacuum = find_vacuum(probe, np.ones(gs.n) / np.sqrt(gs.n))
            else:
                vacuum = np.zeros(gs.n, dtype=complex)
        if vacuum is not None:
            try:
                model = HiggsModel(generators=gs, potential=potential, vacuum=vacuum)
            except NotAVacuumError as err:
                issues.append(ParseIssue(0, "vacuum", str(err)))

    representations = {}
    for name, raw in doc.get("representations", {}).items():
        if name == RESERVED_SLOT:
            issues.append(
                ParseIssue(0, "representations", f"{RESERVED_SLOT!r} is reserved for the model multiplet")
            )
            continue
        mats = _complex_array(raw, issues, "representations", name)
        if mats is None:
            continue
        if mats.ndim != 3 or (gs is not None and mats.shape[0] != gs.r):
            issues.append(
                ParseIssue(
                    0,
                    "representations",
                    f"{name}: expected ({gs.r if gs else '?'}, dim, dim) generator stack, got {mats.shape}",
                )
            )
            continue
        try:
            representations[name] = Representation(mats)
        except RepresentationError as err:
            issues.append(ParseIssue(0, "representations", f"{name}: {err}"))

    yukawa = None
    yk = dict(doc.get("yukawa", {}))
    if "yukawa" in doc:
        slots = _take(yk, "slots", issues, "yukawa")
        flags = _take(yk, "conjugated", issues, "yukawa")
        tensor_raw = _take(yk, "tensor", issues, "yukawa")
        g_y = _take(yk, "g_y", issues, "yukawa")
        for key in yk:
            issues.append(ParseIssue(0, "yukawa", f"unknown key {key!r}"))
        ok = True
        if not (isinstance(slots, list) and len(slots) == 3 and all(isinstance(s, str) for s in slots)):
            issues.append(ParseIssue(0, "yukawa", "slots must be three representation names"))
            ok = False
        if not (isinstance(flags, list) and len(flags) == 3 and all(isinstance(f, bool) for f in flags)):
            issues.append(ParseIssue(0, "yukawa", "conjugated must be three booleans"))
            ok = False
        if not _is_number(g_y):
            issues.append(ParseIssue(0, "yukawa", "g_y must be a number"))
            ok = False
        tensor = _complex_array(tensor_raw, issues, "yukawa", "tensor") if tensor_raw is not None else None
        if ok and tensor is not None and gs is not None:
            dims = []
            for s in slots:
                if s == RESERVED_SLOT:
                    dims.append(gs.n)
                elif s in representations:
                    dims.append(representations[s].dim)
                else:
                    issues.append(ParseIssue(0, "yukawa", f"unknown representation {s!r}"))
                    dims.append(None)
            if None not in dims:
                if tensor.ndim != 3 or tensor.shape != tuple(dims):
                    issues.append(
                        ParseIssue(
                            0,
                            "yukawa",
                            f"tensor shape {tensor.shape} does not match slot dimensions {tuple(dims)}",
                        )
                    )
                else:
                    yukawa = YukawaSection(
                        product=TripleProduct(tensor=tensor, conjugated=tuple(flags)),
                        slots=tuple(slots),
                        g_y=float(g_y),
                    )

    grid = None
    gd = dict(doc.get("grid", {}))
    if "grid" in doc:
        dim = _take(gd, "dim", issues, "grid")
        shape = _take(gd, "shape", issues, "grid")
        h = _take(gd, "h", issues, "grid")
        metric = _take(gd, "metric", issues, "grid", required=False) or "euclidean"
        for key in gd:
            issues.append(ParseIssue(0, "grid", f"unknown key {key!r}"))
        if dim is not None and shape is not None and h is not None:
            try:
                grid = Grid(dim=int(dim), shape=tuple(shape), spacing=float(h), metric=metric)
            except (LatticeError, TypeError, ValueError) as err:
                issues.append(ParseIssue(0, "grid", str(err)))

    if issues:
        raise ModelFileError(issues)
    assert model is not None
    return ModelBundle(model=model, representations=representations, yukawa=yukawa, grid=grid)
