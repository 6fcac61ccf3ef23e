"""Checks of every CLI result, made from outside the program.

Each factory returns ``check(exit_code, stdout) -> str | None``: None when
the invocation passed, otherwise the reason it failed.  A non-zero exit
is a failure whatever the output says; the program's error line (for a
sweep, the failing site and the solver's message) becomes the reason.
Reports are read with the small parser below rather than the program's
own, so a broken emitter cannot pass its own check.
"""
from __future__ import annotations

import json
import math

import numpy as np

REL = 1e-9  # closed-form masses against the numerical spectrum


def parse_report(text: str) -> dict:
    """``[section]`` headers and ``key = <json>`` entries, as the machine format writes them."""
    doc, section = {}, None
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = doc.setdefault(line[1:-1], {})
            continue
        key, sep, value = line.partition(" = ")
        if not sep or section is None:
            raise ValueError(f"unreadable report line {line!r}")
        section[key] = json.loads(value)
    return doc


def _close(got, want, what) -> str | None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape or not np.allclose(got, want, rtol=REL, atol=REL):
        return f"{what} = {got.tolist()}, expected {want.tolist()}"
    return None


def _report_check(body):
    """Shared wrapper: exit code, parse, then the command-specific body."""

    def check(code: int, out: str) -> str | None:
        if code != 0:
            lines = [ln for ln in out.splitlines() if ln.startswith("error:")]
            return f"exit {code}: " + ("; ".join(lines) if lines else out.strip()[-200:])
        try:
            doc = parse_report(out)
            return body(doc)
        except (ValueError, KeyError, TypeError, IndexError) as err:
            return f"malformed report: {err!r}"

    return check


def _first_error(*results) -> str | None:
    return next((r for r in results if r is not None), None)


def boson_masses(g: float, gp: float, mu: float, lam: float) -> list:
    """Closed-form electroweak masses, descending: Z, W, W, photon."""
    v = math.sqrt(mu / (2.0 * lam))
    w = v * g / math.sqrt(2.0)
    z = v * math.hypot(g, gp) / math.sqrt(2.0)
    return sorted([w, w, z, 0.0], reverse=True)


def electroweak(g: float, gp: float, mu: float, lam: float):
    def body(doc):
        m = doc["masses"]
        return _first_error(
            _close(m["numerical_bosons"], boson_masses(g, gp, mu, lam), "boson masses"),
            _close(m["numerical_higgs"], [math.sqrt(mu)], "higgs mass"),
            None if m["goldstone_count"] == 3 else f"goldstone_count = {m['goldstone_count']}",
            None if doc["validation"]["pass"] is True else "validation did not pass",
        )

    return _report_check(body)


def _spectrum_body(doc, masses, higgs) -> str | None:
    s = doc["spectrum"]
    return _first_error(
        _close(s["boson_masses"], masses, "boson masses") if masses is not None else None,
        _close(max(s["higgs_masses"]), higgs, "radial higgs mass"),
        None if s["goldstone_count"] == 3 else f"goldstone_count = {s['goldstone_count']}",
        None if doc["validation"]["pass"] is True else "validation did not pass",
    )


# models/electroweak.model: g = 2, g' = 1, mu = 2, lambda = 1, vacuum norm 1
preset_spectrum = _report_check(
    lambda doc: _first_error(
        _spectrum_body(doc, boson_masses(2.0, 1.0, 2.0, 1.0), math.sqrt(2.0)),
        _close(doc["spectrum"]["higgs_masses"], [math.sqrt(2.0)], "higgs masses"),
        _close(doc["model"]["vacuum_norm"], 1.0, "vacuum norm"),
    )
)


def spin1_spectrum(mu: float, lam: float):
    """3 Goldstones, vacuum norm sqrt(mu / 2 lambda), radial mass sqrt(mu)."""
    return _report_check(
        lambda doc: _first_error(
            _spectrum_body(doc, None, math.sqrt(mu)),
            _close(doc["model"]["vacuum_norm"], math.sqrt(mu / (2.0 * lam)), "vacuum norm"),
        )
    )


def _validate_body(doc) -> str | None:
    tol = doc["report"]["tolerance"]
    checks = doc["checks"]
    for key, value in checks.items():
        if key == "pass":
            continue
        bad = value < -tol if key == "hessian_min_eigenvalue" else not abs(value) < tol
        if bad:
            return f"{key} = {value} outside tolerance {tol}"
    return None if checks["pass"] is True else "checks did not pass"


validate = _report_check(_validate_body)


def _yukawa_body(doc) -> str | None:
    y = doc["yukawa"]
    g_y = 0.5  # [yukawa] g_y of models/electroweak.model, vacuum norm 1
    return _first_error(
        None if y["invariance_defect"] < doc["report"]["tolerance"] else f"invariance_defect = {y['invariance_defect']}",
        _close(y["dirac_mass"], g_y, "dirac mass"),
        _close(y["mass_matrix"], [[0.0], [g_y]], "mass matrix"),
        None if y["massless_rows"] == [0] else f"massless_rows = {y['massless_rows']}",
        None if y["pass"] is True else "yukawa check did not pass",
    )


preset_yukawa = _report_check(_yukawa_body)


def gauge_check(grid: int, refine: int):
    def body(doc):
        rep, res = doc["report"], doc["result"]
        lo, hi = res["order_band"]
        orders = doc["derivative"]["orders"] + doc["strength"]["orders"]
        if rep["grid"] != grid or rep["refine"] != refine or len(orders) != 2 * refine:
            return f"report is for grid {rep['grid']} refine {rep['refine']} with {len(orders)} orders"
        outside = [o for o in orders if not lo <= o <= hi]
        return _first_error(
            f"orders {outside} outside the report's band [{lo}, {hi}]" if outside else None,
            None if doc["invariance"]["constant_transform_gap"] < 1e-10 else "constant transform changed a density",
            None if res["pass"] is True else "gauge-check did not pass",
        )

    return _report_check(body)


TOL = 1e-10  # the CLI's default --tol; pinned so a looser default cannot pass


def _realify(v: np.ndarray) -> np.ndarray:
    """C^n -> R^2n, real and imaginary parts interleaved on the last axis."""
    out = np.empty(v.shape[:-1] + (2 * v.shape[-1],))
    out[..., 0::2] = v.real
    out[..., 1::2] = v.imag
    return out


def _orbit_basis(gens: np.ndarray, v0: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the orbit tangent {T v0}, realified (d, 2n)."""
    u, s, _ = np.linalg.svd(_realify(gens @ v0).T)
    d = int(np.sum(s > 1e-8 * s[0])) if s.size and s[0] > 0 else 0
    return u[:, :d].T


def _orbit_invariant(gens: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """sum_a |<phi, E_a phi>|^2 over a basis E_a orthonormal in Re tr(A^+ B).

    Group elements act on <phi, E_a phi> by an orthogonal rotation (Ad is
    an isometry of the trace form), so the sum is constant on each orbit.
    """
    r, n = gens.shape[0], gens.shape[-1]
    flat = _realify(gens.reshape(r, n * n))
    _, s, vt = np.linalg.svd(flat, full_matrices=False)
    keep = vt[s > 1e-12 * s[0]]
    basis = (keep[:, 0::2] + 1j * keep[:, 1::2]).reshape(-1, n, n)
    expect = np.einsum("...i,aij,...j->...a", phi.conj(), basis, phi)
    return np.sum(np.abs(expect) ** 2, axis=-1)


def unitary_gauge(bundle, field_in: np.ndarray, out_path: str):
    """Re-read ``--out`` and check every site from outside the program.

    Each output site must be on the input site's orbit (same norm, same
    orbit invariant), have no Goldstone part (orbit-tangent coordinates of
    phi - v0 below TOL, as ``goldstone_vanish_check`` defines them) and
    face the vacuum (Re <v0, phi> >= 0).
    """
    from ssbspec.gridfile import GridFileError, read_field

    gens = np.asarray(bundle.model.generators.matrices, dtype=complex)
    v0 = np.asarray(bundle.model.vacuum, dtype=complex)
    shape = field_in.shape[:-1]
    orbit = _orbit_basis(gens, v0)
    norms_in = np.linalg.norm(field_in, axis=-1)
    inv_in = _orbit_invariant(gens, field_in)
    inv_scale = np.maximum(1.0, norms_in) ** 4 * np.sum(np.linalg.norm(gens, 2, axis=(-2, -1)) ** 2)

    def worst_site(gap, limit, what):
        """The site where ``gap`` is largest, if it exceeds ``limit``."""
        idx = np.unravel_index(int(np.argmax(gap)), shape)
        if gap[idx] > limit:
            return f"site {tuple(int(i) for i in idx)}: {what} {gap[idx]:.3e} above {limit}"
        return None

    def body(doc):
        if doc["input"]["sites"] != int(np.prod(shape)) or doc["result"]["pass"] is not True:
            return "report does not cover the whole field or did not pass"
        try:
            grid, kind, out = read_field(out_path)
        except (OSError, GridFileError) as err:
            return f"cannot read --out: {err}"
        if kind != "multiplet" or out.shape != field_in.shape:
            return f"--out holds a {kind} field of shape {out.shape}, expected {field_in.shape}"
        xi = np.sqrt(2.0) * _realify(out - v0) @ orbit.T
        return _first_error(
            worst_site(np.abs(np.linalg.norm(out, axis=-1) - norms_in) / np.maximum(1.0, norms_in), 1e-10,
                       "norm changed by"),
            worst_site(np.abs(_orbit_invariant(gens, out) - inv_in) / inv_scale, 1e-9, "orbit invariant changed by"),
            worst_site(np.max(np.abs(xi), axis=-1), TOL, "goldstone defect"),
            worst_site(-np.einsum("i,...i->...", v0.conj(), out).real, TOL, "-Re <v0, phi> ="),
        )

    return _report_check(body)
