"""Command line front end.

Subcommands:
    spectrum       masses and splits for a model file
    validate       structural and invariance defects for a model file
    unitary-gauge  canonical gauge slice for a multiplet field on a grid
    gauge-check    discretization orders of the covariance identities
    yukawa         trilinear invariance and post-breaking fermion masses
    electroweak    built-in preset report

Output formats: "table" for reading, "machine" for the document dialect
of modelfile (17 significant digits, byte-identical for identical
inputs and seeds).  Every check passes when its defect is at most the
tolerance times the checked quantity's own scale, so a report reads the
same at any coupling.  Exit status 0 only when every check passes; 1 on a
failed check; 2 on input or usage errors, including a model file whose
generators are not skew-Hermitian or whose vacuum is not a minimum, and
when memory runs out.

Each subcommand's handler only builds its report, a document and whether
every check passed, and raises on bad input.  `main` alone renders the
report, turns every error into `error: ...` lines and chooses the exit
status.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .breaking import spectrum
from .chiral import triple_invariance_defect
from .electroweak import (
    ElectroweakParams,
    boson_mass_predictions,
    build_model,
    charge_operators,
    elementary_charge,
    weinberg_angle,
)
from .gridfile import read_field, write_field
from .higgsmodel import check_potential_invariance
from .latticefields import (
    Grid,
    convergence_orders,
    gauge_transform_gauge,
    gauge_transform_matter,
    klein_gordon_density,
    smooth_gauge_field,
    smooth_multiplet_field,
    yang_mills_density,
    field_strength,
)
from .liecore import TOL_ALG, TOL_RANK, exponentiate, random_algebra_element, realify, safe_norm, validate_generators
from .modelfile import ModelFileError, emit_document, parse_model_file
from .unitarygauge import DegeneratePointError, UnitaryGaugeConfig, apply_unitary_gauge_field

__all__ = ["main"]

ENV_SEED = "SSB_SPECTRUM_SEED"
ORDER_BAND = (1.9, 2.1)
# the doublet's charges in closed form: T3 = diag(1/2, -1/2), Y = 1, Q = T3 + Y/2
DOUBLET_CHARGES = {"isospin_diagonal": (0.5, -0.5), "hypercharge_diagonal": (1.0, 1.0), "charge_diagonal": (1.0, 0.0)}


def orders_pass(orders: tuple[float, ...]) -> bool:
    """The finest pair's order lies in ORDER_BAND and each pair's distance from 2
    is at most half the coarser pair's: Roache's asymptotic-range check (Annu.
    Rev. Fluid Mech. 29, 1997).  A second-order scheme's h^2 correction shrinks
    that distance about 4-fold per halving."""
    lo, hi = ORDER_BAND
    gaps = [abs(order - 2.0) for order in orders]
    return lo <= orders[-1] <= hi and all(2.0 * fine <= coarse for coarse, fine in zip(gaps, gaps[1:]))


def _fmt_table_value(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, np.ndarray):
        return _fmt_table_value(value.tolist())
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt_table_value(v) for v in value) + "]"
    return str(value)


def _render(doc, fmt: str) -> str:
    if fmt == "machine":
        return emit_document(doc)
    chunks = []
    for section, entries in doc.items():
        width = max((len(k) for k in entries), default=0)
        rows = "".join(
            f"  {key.ljust(width)}  {_fmt_table_value(value)}\n" for key, value in entries.items()
        )
        chunks.append(f"{section}\n{rows}\n")
    return "".join(chunks)


def _load_bundle(path):
    with open(path, "r") as fh:
        return parse_model_file(fh.read())


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(ENV_SEED)
    if not env:
        return 0
    try:
        return _seed(env)
    except argparse.ArgumentTypeError as err:
        raise ValueError(f"{ENV_SEED}: {err}") from None


# ---------------------------------------------------------------------------
# subcommands


def _cmd_electroweak(args):
    p = ElectroweakParams(g=args.g, gp=args.gp, mu=args.mu, lam=args.lam)
    model = build_model(p)
    spec = spectrum(model)
    pred = boson_mass_predictions(p)
    report = validate_generators(model.generators)
    gaps = np.abs(pred.as_array() - spec.boson_masses)
    higgs_gap = abs(pred.higgs - float(spec.higgs_masses[0]))
    ops = charge_operators(model.generators, p)
    charges = dict(zip(DOUBLET_CHARGES, (np.diag(m).real for m in (ops.t3, ops.hypercharge, ops.charge))))
    unbroken_norm = float(np.max(safe_norm(realify(model.generators.matrix_of(spec.unbroken) @ model.vacuum))))
    # each mass against its own prediction, so a lost small mass fails and
    # the photon must come out exactly 0; each defect against its own scale
    ok = (
        bool(np.all(gaps <= args.tol * pred.as_array()))
        and higgs_gap <= args.tol * pred.higgs
        and all(np.all(np.abs(charges[key] - exact) <= args.tol) for key, exact in DOUBLET_CHARGES.items())
        and report.closure_defect <= TOL_ALG
        and unbroken_norm <= TOL_ALG * float(np.linalg.norm(model.vacuum)) * model.generators.scale
    )
    doc = {
        "report": {"command": "electroweak", "tolerance": args.tol},
        "parameters": {"g": p.g, "gp": p.gp, "mu": p.mu, "lambda": p.lam},
        "masses": {
            "w": pred.w,
            "z": pred.z,
            "photon": pred.photon,
            "higgs": pred.higgs,
            "numerical_bosons": spec.boson_masses,
            "numerical_higgs": spec.higgs_masses,
            "goldstone_count": spec.goldstone_count,
        },
        "derived": {
            "weinberg_angle": weinberg_angle(p),
            "elementary_charge": elementary_charge(p),
            **charges,
        },
        "validation": {
            "skew_defect": report.skew_defect,
            "closure_defect": report.closure_defect,
            "mass_gap": float(np.max(gaps)),
            "higgs_gap": higgs_gap,
            "unbroken_action_norm": unbroken_norm,
            "pass": ok,
        },
    }
    return doc, ok


def _model_checks(model, tol, seed, samples, hessian=False) -> tuple[dict, bool]:
    """A loaded model's defects, and the one pass rule of spectrum and validate:
    skew, gradient and Hessian were judged when the model file loaded, so it
    reads the scale-free closure defect against tol, and invariance against
    the largest |V|."""
    report = validate_generators(model.generators)
    checks = {
        "skew_defect": report.skew_defect,
        "closure_defect": report.closure_defect,
        "vacuum_gradient": float(safe_norm(model.potential.gradient(model.vacuum))),
    }
    if hessian:
        hess = model.potential.hessian(model.vacuum)
        checks["hessian_min_eigenvalue"] = float(np.linalg.eigvalsh(hess).min())
    invariance, v_scale = check_potential_invariance(model, samples=samples, seed=seed)
    checks["potential_invariance"] = invariance
    ok = report.closure_defect <= tol and invariance <= tol * v_scale
    return checks, ok


def _cmd_spectrum(args):
    model = _load_bundle(args.model).model
    seed = _resolve_seed(args)
    spec = spectrum(model)
    checks, ok = _model_checks(model, args.tol, seed, samples=50)
    r = model.generators.r
    d = spec.goldstone_count
    doc = {
        "report": {"command": "spectrum", "seed": seed, "tolerance": args.tol},
        "model": {
            "n": model.generators.n,
            "r": r,
            "vacuum_norm": float(np.linalg.norm(model.vacuum)),
        },
        "spectrum": {
            "boson_masses": spec.boson_masses,
            "goldstone_count": d,
            "unbroken_dimension": r - d,
            "unbroken": "H = G" if d == 0 else f"{r - d} of {r} generators",
            "higgs_masses": spec.higgs_masses,
        },
        "validation": {**checks, "pass": ok},
    }
    return doc, ok


def _cmd_validate(args):
    bundle = _load_bundle(args.model)
    seed = _resolve_seed(args)
    checks, ok = _model_checks(bundle.model, args.tol, seed, samples=100, hessian=True)
    if bundle.yukawa is not None:
        defect, y_scale = _yukawa_invariance(bundle)
        checks["yukawa_invariance"] = defect
        ok = ok and defect <= args.tol * y_scale
    checks["pass"] = ok
    doc = {
        "report": {"command": "validate", "seed": seed, "tolerance": args.tol},
        "checks": checks,
    }
    return doc, ok


def _yukawa_invariance(bundle) -> tuple[float, float]:
    """The Yukawa tensor's invariance defect, and its scale |tensor| max|rep|,
    both taken without squaring an entry."""
    named = {"higgs": bundle.model.generators, **bundle.representations}
    reps = [named[name] for name in bundle.yukawa.slots]
    tau = bundle.yukawa.product
    scale = float(safe_norm(realify(tau.tensor.ravel()))) * max(rp.scale for rp in reps)
    return triple_invariance_defect(tau, *reps), scale


def _cmd_yukawa(args):
    bundle = _load_bundle(args.model)
    if bundle.yukawa is None:
        raise ValueError("model file has no [yukawa] section")
    from .chiral import fermion_mass_after_breaking, fermion_mass_matrix

    tau = bundle.yukawa.product
    defect, y_scale = _yukawa_invariance(bundle)
    v0 = bundle.model.vacuum
    g_y = bundle.yukawa.g_y
    matrix = fermion_mass_matrix(tau, v0, g_y)
    dirac = fermion_mass_after_breaking(tau, v0, g_y)
    cut = TOL_RANK * float(np.max(matrix))
    massless = [int(i) for i in range(matrix.shape[0]) if np.all(matrix[i] <= cut)]
    ok = defect <= args.tol * y_scale
    doc = {
        "report": {"command": "yukawa", "tolerance": args.tol},
        "yukawa": {
            "slots": bundle.yukawa.slots,
            "g_y": g_y,
            "invariance_defect": defect,
            "dirac_mass": dirac,
            "mass_matrix": matrix,
            "massless_rows": massless,
            "pass": ok,
        },
    }
    return doc, ok


def _cmd_unitary_gauge(args):
    bundle = _load_bundle(args.model)
    model = bundle.model
    seed = _resolve_seed(args)
    if args.field:
        grid, _, field = read_field(args.field)
        if field.shape[-1] != model.generators.n:
            raise ValueError(
                f"field has {field.shape[-1]} components, model multiplet has "
                f"{model.generators.n}"
            )
    else:
        grid = bundle.grid
        if grid is None:
            raise ValueError("no --field given and the model file has no [grid] section")
        field = model.vacuum + 0.35 * smooth_multiplet_field(
            grid, model.generators.n, seed
        )
    if args.out:
        # the error the write would raise for a missing directory, before the
        # sweep rather than after; the trailing separator makes a file in the
        # directory's place ENOTDIR, as the write would
        try:
            os.stat(os.path.join(os.path.dirname(args.out) or ".", ""))
        except OSError as err:
            raise type(err)(err.errno, err.strerror, args.out) from None
    result = apply_unitary_gauge_field(model.generators, model.vacuum, field, UnitaryGaugeConfig(tol=args.tol))
    if args.out:
        write_field(args.out, grid, "multiplet", result.transformed)
    ok = result.max_defect < args.tol
    worst = np.unravel_index(int(np.argmax(result.defects)), result.defects.shape)
    doc = {
        "report": {"command": "unitary-gauge", "seed": seed, "tolerance": args.tol},
        "input": {
            "sites": int(np.prod(grid.shape)),
            "shape": grid.shape,
            "spacing": grid.spacing,
            "synthesized": not bool(args.field),
        },
        "result": {
            "max_defect": result.max_defect,
            "worst_site": worst,
            "total_iterations": int(np.sum(result.iterations)),
            "max_iterations": int(np.max(result.iterations)),
            "pass": ok,
        },
    }
    return doc, ok


def _cmd_gauge_check(args):
    if args.model:
        gs = _load_bundle(args.model).model.generators
    else:
        gs = build_model().generators
    seed = _resolve_seed(args)
    base = Grid(dim=2, shape=(args.grid, args.grid), spacing=1.0 / args.grid, metric=args.metric)
    der, stren = convergence_orders(gs, base, seed, refinements=args.refine)
    orders_ok = orders_pass(der.orders) and orders_pass(stren.orders)

    # constant transforms must leave every density unchanged
    a = smooth_gauge_field(base, gs.r, seed + 10)
    psi = smooth_multiplet_field(base, gs.n, seed + 11)
    sigma = np.broadcast_to(
        exponentiate(gs, random_algebra_element(gs, seed)), base.shape + (gs.n, gs.n)
    ).copy()
    a2 = gauge_transform_gauge(gs, base, sigma, a)
    psi2 = gauge_transform_matter(sigma, psi)
    pairs = (
        [yang_mills_density(base, field_strength(gs, base, x)) for x in (a, a2)],
        [klein_gordon_density(gs, base, x, p, 0.5) for x, p in ((a, psi), (a2, psi2))],
    )
    gap = max(float(np.max(np.abs(before - after))) for before, after in pairs)
    invariance_ok = gap <= TOL_ALG * max(float(np.max(np.abs(d))) for pair in pairs for d in pair)
    ok = orders_ok and invariance_ok
    doc = {
        "report": {
            "command": "gauge-check",
            "seed": seed,
            "grid": args.grid,
            "refine": args.refine,
            "metric": args.metric,
        },
        "derivative": {
            "defects": der.defects,
            "orders": der.orders,
        },
        "strength": {
            "defects": stren.defects,
            "orders": stren.orders,
        },
        "invariance": {"constant_transform_gap": gap},
        "result": {
            "order_band": ORDER_BAND,
            "orders_pass": orders_ok,
            "invariance_pass": invariance_ok,
            "pass": ok,
        },
    }
    return doc, ok


# ---------------------------------------------------------------------------
# argument plumbing


def _tolerance(text: str) -> float:
    """--tol value: a finite positive number."""
    value = float(text)
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text!r}")
    return value


def _seed(text: str) -> int:
    """--seed or $SSB_SPECTRUM_SEED value: a non-negative integer."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _extent(text: str) -> int:
    """--grid value: a grid extent, an integer of at least 4."""
    if not (text.isascii() and text.isdigit() and int(text) >= 4):
        raise argparse.ArgumentTypeError(f"expected an integer of at least 4, got {text!r}")
    return int(text)


def _add_common(sp, handler, tol=None, model_required=True, with_model=True, seeded=True):
    """The handler and the flags the subcommands share; --tol, with its
    default, only where tol is given, and --seed only where the command draws
    random samples."""
    sp.set_defaults(handler=handler)
    if with_model:
        sp.add_argument(
            "--model", required=model_required, help="model file path", default=None
        )
    if seeded:
        sp.add_argument("--seed", type=_seed, default=None, help=f"rng seed (or ${ENV_SEED})")
    if tol is not None:
        sp.add_argument(
            "--tol",
            type=_tolerance,
            default=tol,
            help="pass/fail tolerance (default: %(default)s)",
        )
    sp.add_argument(
        "--format",
        choices=("table", "machine"),
        default="table",
        help="output rendering",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssbspec",
        description="spectra, gauge slices, and lattice checks for broken gauge models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="masses and splits for a model file")
    _add_common(sp, _cmd_spectrum, tol=1e-8)

    sp = sub.add_parser("validate", help="structural and invariance defects")
    _add_common(sp, _cmd_validate, tol=1e-8)

    sp = sub.add_parser("unitary-gauge", help="canonical gauge slice over a grid field")
    _add_common(sp, _cmd_unitary_gauge, tol=UnitaryGaugeConfig().tol)
    sp.add_argument("--field", default=None, help="input multiplet field file")
    sp.add_argument("--out", default=None, help="output field file")

    sp = sub.add_parser(
        "gauge-check",
        help="covariance discretization orders",
        description="Measure the convergence orders of both covariance identities under grid refinement. "
        f"They pass when the finest pair's order lies in [{ORDER_BAND[0]}, {ORDER_BAND[1]}] and, with "
        "--refine 2 or more, each pair's distance from order 2 is at most half the coarser pair's "
        "(the asymptotic-range check).",
    )
    _add_common(sp, _cmd_gauge_check, model_required=False)
    sp.add_argument(
        "--grid",
        type=_extent,
        default=16,
        help="base grid extent, at least 4 (default: %(default)s)",
    )
    sp.add_argument(
        "--refine", type=int, default=2, help="number of refinements (default: %(default)s)"
    )
    sp.add_argument(
        "--metric", choices=("euclidean", "lorentzian"), default="euclidean"
    )

    sp = sub.add_parser("yukawa", help="trilinear invariance and fermion masses")
    _add_common(sp, _cmd_yukawa, tol=1e-10, seeded=False)

    sp = sub.add_parser("electroweak", help="built-in preset report")
    _add_common(sp, _cmd_electroweak, tol=1e-9, with_model=False, seeded=False)
    preset = ElectroweakParams()
    for flag, name in (("--g", "g"), ("--gp", "gp"), ("--mu", "mu"), ("--lambda", "lam")):
        sp.add_argument(flag, dest=name, type=float, default=getattr(preset, name))

    return parser


def main(argv=None, stdout=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        doc, ok = args.handler(args)
        text = _render(doc, args.format)
    except ModelFileError as err:
        errors = err.issues
    except (OSError, ValueError, DegeneratePointError) as err:
        errors = [err]
    except MemoryError as err:
        # numpy's message names the allocation; a bare MemoryError has none
        errors = [str(err) or "out of memory"]
    else:
        out.write(text)
        return 0 if ok else 1
    out.write("".join(f"error: {e}\n" for e in errors))
    return 2
