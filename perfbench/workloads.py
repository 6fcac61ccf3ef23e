"""Seeded inputs and command cycles for the four benchmark workloads.

Every input file is generated from the benchmark seed into a work
directory; the program under test only ever sees those files (and the
committed ``models/electroweak.model``).  A workload is a fixed cycle of
``python -m ssbspec`` command lines, each paired with the oracle check
that its output must pass.
"""
from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle

PRESET_MODEL = os.path.join("models", "electroweak.model")

# Three fields per model, sized so that every sweep takes about 3.5 s: with
# invocations of one size the median falls inside a single mode, and with
# six invocations one costly field cannot move it.
FIELDS_PER_MODEL = 3
SMOOTH_EXTENT = {"doublet": 40, "spin1": 40}
ROUGH_EXTENT = {"doublet": 22, "spin1": 14}
ROUGH_AMPLITUDE = (1.0, 3.0)
LATTICE_GRID, LATTICE_REFINE = 32, 2


@dataclass
class Command:
    """One CLI invocation and the check its result must pass.

    ``check(exit_code, stdout)`` returns None when the output is right,
    otherwise a one-line reason.  ``out_path`` is removed before each run
    so a stale file can never satisfy the check.  ``sites`` is the number
    of grid sites a unitary-gauge command puts into unitary gauge.
    """

    label: str
    args: list
    check: Callable[[int, str], str | None]
    out_path: str | None = None
    sites: int = 0


# The sweep error line of a warm-started solve that did not converge at one
# site (DegeneratePointError), as the oracle reports it.  Rough fields reach
# it on some seeds; it is counted as failed but does not make a run wrong.
SITE_FAILURE = re.compile(r"exit 2: error: site \(\d+, \d+\): ")


def _no_known_failure(reason: str) -> bool:
    return False


@dataclass
class Workload:
    """A cycle of commands and the sizes of its inputs.

    ``known_failure(reason)`` is True for a failure the program is known
    to have on this workload's inputs: it is still counted as failed, but
    the run stays correct.  ``one_blas_thread`` pins the children's BLAS
    pool to one thread; otherwise they run with the caller's setting.
    """

    commands: list
    sizes: dict
    known_failure: Callable[[str], bool] = _no_known_failure
    one_blas_thread: bool = True


def _pairs(matrix) -> list:
    arr = np.asarray(matrix, dtype=complex)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def spin1_model_text(lam: float) -> str:
    """su(2) spin-1 model, quartic potential, no [vacuum] section.

    mu = 2 lambda puts the vacuum at norm sqrt(mu / (2 lambda)) = 1; the
    parser has to run the vacuum search because no vacuum is given.
    """
    from ssbspec.chiral import su2_irrep

    gens = su2_irrep(3)
    return "\n".join(
        [
            "# su(2) spin-1 multiplet, generated by perfbench/workloads.py",
            "[algebra]",
            "n = 3",
            "r = 3",
            f"generators = {json.dumps(_pairs(gens))}",
            "",
            "[potential]",
            f"mu = {json.dumps(2.0 * lam)}",
            f"lambda = {json.dumps(lam)}",
            "",
        ]
    )


def _machine(*args) -> list:
    return list(args) + ["--format", "machine"]


def build(name: str, seed: int, work: str) -> Workload:
    """Generate the inputs of one workload under ``work`` and return its cycle."""
    from ssbspec.gridfile import write_field
    from ssbspec.latticefields import Grid, smooth_multiplet_field
    from ssbspec.modelfile import parse_model_file

    rng = np.random.default_rng(seed)
    # the draws below happen for every workload in the same order, so the
    # spin-1 model for a seed is the same file whichever workload runs
    lam = float(rng.uniform(0.5, 2.0))
    couplings = [
        (float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.5, 2.0)))
        for _ in range(2)
    ]
    cli_seed = int(rng.integers(0, 2**31 - 1))
    spin1_path = os.path.join(work, "spin1.model")
    with open(spin1_path, "w") as fh:
        fh.write(spin1_model_text(lam))

    if name == "cli-mix":
        cmds = [Command("electroweak default", _machine("electroweak"), oracle.electroweak(2.0, 1.0, 2.0, 1.0))]
        for g, gp, mu, la in couplings:
            cmds.append(
                Command(
                    f"electroweak g={g:.3f}",
                    _machine("electroweak", "--g", repr(g), "--gp", repr(gp), "--mu", repr(mu), "--lambda", repr(la)),
                    oracle.electroweak(g, gp, mu, la),
                )
            )
        seed_args = ["--seed", str(cli_seed)]
        cmds += [
            Command("spectrum doublet", _machine("spectrum", "--model", PRESET_MODEL, *seed_args), oracle.preset_spectrum),
            Command("validate doublet", _machine("validate", "--model", PRESET_MODEL, *seed_args), oracle.validate),
            Command("yukawa doublet", _machine("yukawa", "--model", PRESET_MODEL), oracle.preset_yukawa),
            Command(
                "spectrum spin1",
                _machine("spectrum", "--model", spin1_path, *seed_args),
                oracle.spin1_spectrum(2.0 * lam, lam),
            ),
            Command("validate spin1", _machine("validate", "--model", spin1_path, *seed_args), oracle.validate),
        ]
        # the default BLAS pool, as a user gets it: its sporadic stalls in
        # check_potential_invariance stay in the samples
        return Workload(cmds, {"commands": len(cmds), "spin1_lambda": lam}, one_blas_thread=False)

    if name == "lattice":
        cmds = []
        for key in ("doublet", "spin1"):
            model_args = [] if key == "doublet" else ["--model", spin1_path]
            for metric in ("euclidean", "lorentzian"):
                cmds.append(
                    Command(
                        f"gauge-check {key} {metric}",
                        _machine(
                            "gauge-check", *model_args, "--grid", str(LATTICE_GRID), "--refine", str(LATTICE_REFINE),
                            "--metric", metric, "--seed", str(cli_seed),
                        ),
                        oracle.gauge_check(LATTICE_GRID, LATTICE_REFINE),
                    )
                )
        levels = [LATTICE_GRID * 2**k for k in range(LATTICE_REFINE + 1)]
        return Workload(cmds, {"grids": [f"{m}x{m}" for m in levels], "commands": len(cmds)})

    models = {}
    for key, path in (("doublet", PRESET_MODEL), ("spin1", spin1_path)):
        with open(path) as fh:
            models[key] = (path, parse_model_file(fh.read()))
    cmds, sizes = [], {}
    for k in range(FIELDS_PER_MODEL):
        for key in ("doublet", "spin1"):
            path, bundle = models[key]
            v0, n = bundle.model.vacuum, bundle.model.generators.n
            m = (SMOOTH_EXTENT if name == "sweep-smooth" else ROUGH_EXTENT)[key]
            grid = Grid(dim=2, shape=(m, m), spacing=1.0 / m)
            if name == "sweep-smooth":
                # the CLI's own recipe for a synthesized field
                values = v0 + 0.35 * smooth_multiplet_field(grid, n, int(rng.integers(0, 2**31 - 1)))
            else:
                x = rng.normal(size=(m, m, n))
                y = rng.normal(size=(m, m, n))
                # amplitudes spread evenly over the range in seeded order: every
                # field has the same mix of easy and hard sites
                amp = rng.permutation(np.linspace(*ROUGH_AMPLITUDE, m * m)).reshape(m, m, 1)
                values = v0 + amp * (x + 1j * y) / math.sqrt(2.0)
            field_path = os.path.join(work, f"{key}{k}.field")
            out_path = os.path.join(work, f"{key}{k}.out.field")
            write_field(field_path, grid, "multiplet", values)
            cmds.append(
                Command(
                    label=f"unitary-gauge {key}{k} {m}x{m}",
                    args=_machine("unitary-gauge", "--model", path, "--field", field_path, "--out", out_path),
                    check=oracle.unitary_gauge(bundle, values, out_path),
                    out_path=out_path,
                    sites=m * m,
                )
            )
            sizes[key] = f"{FIELDS_PER_MODEL} fields of {m}x{m}"
    if name == "sweep-rough":
        return Workload(cmds, sizes, known_failure=lambda reason: bool(SITE_FAILURE.match(reason)))
    return Workload(cmds, sizes)
