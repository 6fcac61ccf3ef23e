"""Tests of the benchmark's own checks and bookkeeping.

Run from the repository root: python3 -m pytest perfbench -q
"""
import io
import math
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ssbspec.cli import main  # noqa: E402
from ssbspec.gridfile import read_field, write_field  # noqa: E402
from ssbspec.latticefields import Grid, smooth_multiplet_field  # noqa: E402
from ssbspec.modelfile import parse_model_file  # noqa: E402
from ssbspec.unitarygauge import _build_frame, goldstone_vanish_check  # noqa: E402

MODEL = os.path.join(ROOT, "models", "electroweak.model")


def cli(*argv):
    out = io.StringIO()
    return main(list(argv), stdout=out), out.getvalue()


@pytest.fixture
def swept(tmp_path):
    """A small doublet field, its unitary-gauge output and the oracle for it."""
    with open(MODEL) as fh:
        bundle = parse_model_file(fh.read())
    grid = Grid(dim=2, shape=(4, 4), spacing=0.25)
    field = bundle.model.vacuum + 0.35 * smooth_multiplet_field(grid, 2, 3)
    src, dst = str(tmp_path / "in.field"), str(tmp_path / "out.field")
    write_field(src, grid, "multiplet", field)
    code, text = cli("unitary-gauge", "--model", MODEL, "--field", src, "--out", dst, "--format", "machine")
    return bundle, grid, field, dst, code, text, oracle.unitary_gauge(bundle, field, dst)


def test_unitary_gauge_output_passes(swept):
    *_, code, text, check = swept
    assert check(code, text) is None


def test_site_rotated_off_the_slice_is_a_failure(swept):
    bundle, grid, _, dst, code, text, check = swept
    _, _, out = read_field(dst)
    # a unitary rotation along one broken direction keeps the norm but
    # gives the site a Goldstone component
    frame = _build_frame(bundle.model.generators, bundle.model.vacuum, None)
    w, V = np.linalg.eigh(1j * 0.3 * frame.alpha[0])
    out[2, 1] = (V @ np.diag(np.exp(-1j * w)) @ V.conj().T) @ out[2, 1]
    write_field(dst, grid, "multiplet", out)
    reason = check(code, text)
    assert reason is not None and reason.startswith("site (2, 1): goldstone defect")


def test_nonzero_exit_is_a_failure_with_the_error_line(swept):
    check = swept[-1]
    reason = check(2, "error: site (18, 9): orbit climb did not converge\n")
    assert reason == "exit 2: error: site (18, 9): orbit climb did not converge"


def test_wrong_electroweak_mass_is_a_failure():
    code, text = cli("electroweak", "--g", "1.5", "--gp", "0.5", "--mu", "3", "--lambda", "0.7", "--format", "machine")
    assert oracle.electroweak(1.5, 0.5, 3.0, 0.7)(code, text) is None
    assert oracle.electroweak(1.5, 0.5, 3.0, 0.8)(code, text).startswith("boson masses")


def test_preset_and_spin1_reports_pass(tmp_path):
    path = _spin1(tmp_path)
    assert oracle.preset_spectrum(*cli("spectrum", "--model", MODEL, "--format", "machine")) is None
    assert oracle.preset_yukawa(*cli("yukawa", "--model", MODEL, "--format", "machine")) is None
    assert oracle.validate(*cli("validate", "--model", str(path), "--format", "machine")) is None
    check = oracle.spin1_spectrum(1.6, 0.8)
    assert check(*cli("spectrum", "--model", str(path), "--format", "machine")) is None


def _spin1(tmp_path):
    path = tmp_path / "spin1.model"
    path.write_text(workloads.spin1_model_text(0.8))
    return str(path)


@pytest.fixture
def swept_spin1(tmp_path):
    """The same for the generated spin-1 model, whose orbits are 3-dim in C^3."""
    model = _spin1(tmp_path)
    with open(model) as fh:
        bundle = parse_model_file(fh.read())
    grid = Grid(dim=2, shape=(4, 4), spacing=0.25)
    field = bundle.model.vacuum + 0.35 * smooth_multiplet_field(grid, 3, 5)
    src, dst = str(tmp_path / "in.field"), str(tmp_path / "out.field")
    write_field(src, grid, "multiplet", field)
    code, text = cli("unitary-gauge", "--model", model, "--field", src, "--out", dst, "--format", "machine")
    return bundle, grid, field, dst, code, text, oracle.unitary_gauge(bundle, field, dst)


def test_spin1_output_passes_and_a_scaled_vacuum_does_not(swept_spin1):
    bundle, grid, field, dst, code, text, check = swept_spin1
    assert check(code, text) is None
    # |phi| v0 / |v0| keeps the norm and has no Goldstone part, but is off
    # the input's orbit
    _, _, out = read_field(dst)
    v0 = bundle.model.vacuum
    out[1, 2] = np.linalg.norm(field[1, 2]) * v0 / np.linalg.norm(v0)
    write_field(dst, grid, "multiplet", out)
    assert check(code, text).startswith("site (1, 2): orbit invariant changed by")


def test_site_facing_away_from_the_vacuum_is_a_failure(swept):
    bundle, grid, _, dst, code, text, check = swept
    _, _, out = read_field(dst)
    out[0, 3] = -out[0, 3]  # same orbit for the doublet, zero Goldstone part, Re <v0, phi> < 0
    write_field(dst, grid, "multiplet", out)
    assert check(code, text).startswith("site (0, 3): -Re <v0, phi> =")


def test_goldstone_defect_matches_the_programs_definition(swept):
    bundle, *_ = swept
    gs, v0 = bundle.model.generators, bundle.model.vacuum
    phi = v0 + 0.1 * np.random.default_rng(0).normal(size=(2, 2)) @ [1.0, 1j]
    xi = np.sqrt(2.0) * oracle._realify(phi - v0) @ oracle._orbit_basis(gs.matrices, v0).T
    assert np.max(np.abs(xi)) == pytest.approx(goldstone_vanish_check(gs, v0, phi).defect, rel=1e-12)


def test_only_the_known_site_failure_keeps_a_run_correct(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    ok = {"ok": True, "reason": None}
    site = {"ok": False, "reason": "exit 2: error: site (13, 0): orbit climb did not converge"}
    wrong = {"ok": False, "reason": "site (2, 1): goldstone defect 3.1e-02 above 1e-10"}
    mix = workloads.build("cli-mix", 1, str(tmp_path))
    rough = workloads.build("sweep-rough", 1, str(tmp_path))
    # a command of cli-mix that exits non-zero, e.g. validate reporting pass = false
    crashed = {"ok": False, "reason": mix.commands[4].check(1, "[checks]\npass = false\n")}
    assert crashed["reason"].startswith("exit 1")
    assert run.verdict(mix, [ok, crashed]) == {"correct": False, "attempted": 2, "failed": 1}
    assert run.verdict(mix, [ok, site])["correct"] is False
    assert run.verdict(rough, [ok, site]) == {"correct": True, "attempted": 2, "failed": 1}
    assert run.verdict(rough, [site, wrong])["correct"] is False


def test_self_times_add_up_and_fallbacks_are_counted():
    names = ["cli", "cli.import", "unitarygauge.sweep", "unitarygauge.site", "kernel.expm_frechet"]
    spans = {
        "names": np.array(names),
        # root, import, sweep, site (3 its), kernel in it, site (fell back), kernel in it
        "name": np.array([0, 1, 2, 3, 4, 3, 4]),
        "parent": np.array([-1, 0, 0, 2, 3, 2, 5]),
        "start": np.array([0.0, 0.0, 5.0, 5.0, 5.2, 6.0, 6.5]),
        "end": np.array([10.0, 4.0, 9.0, 6.0, 5.7, 9.0, 8.5]),
        "value": np.array([math.nan, math.nan, 2.0, 3.0, math.nan, 60.0, math.nan]),
    }
    m = tracing.aggregate([(spans, 10.5)], max_iter=50)
    assert m["cli.import_s"] == 4.0
    assert m["cli.other_s"] == pytest.approx(10.0 - 4.0 - 4.0 + 0.5)
    assert m["kernel.self_s"] == pytest.approx(2.5)
    assert m["unitarygauge.self_s"] == pytest.approx(4.0 - 2.5)
    parts = [m["cli.import_s"], m["cli.other_s"]] + [v for k, v in m.items() if k.endswith(".self_s")]
    assert sum(parts) == pytest.approx(m["trace.wall_s"])
    assert (m["unitarygauge.fallback_sites"], m["unitarygauge.sites"]) == (1, 2)
    assert m["unitarygauge.fallback_s"] == pytest.approx(3.0)
    assert m["unitarygauge.chart_us_per_site"] == pytest.approx(1e6)
    assert m["kernel.expm_frechet_calls"] == 2
    # the rest of BENCHMARK.json's per-layer list comes from run.traced
    assert set(run.PER_LAYER) - set(m) == {
        "import.cli_s", "import.scipy_s", "trace.untraced_wall_s", "trace.overhead_s",
    }
