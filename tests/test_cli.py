"""End-to-end command tests, run in process through main()."""
import importlib
import io
import math
import os
import pathlib
import pkgutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import ssbspec
from ssbspec import cli, latticefields, modelfile
from ssbspec.cli import main
from ssbspec.gridfile import read_field, write_field
from ssbspec.latticefields import Grid, smooth_multiplet_field
from ssbspec.modelfile import parse_document
from ssbspec.unitarygauge import apply_unitary_gauge_field

MODEL = "models/electroweak.model"


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), stdout=out)
    return code, out.getvalue()


def test_electroweak_preset_passes():
    code, text = run("electroweak", "--g", "2", "--gp", "1", "--mu", "2", "--lambda", "1")
    assert code == 0
    assert "pass" in text


def test_electroweak_machine_values():
    code, text = run("electroweak", "--format", "machine")
    assert code == 0
    doc = parse_document(text)
    assert doc["masses"]["w"] == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert doc["masses"]["z"] == pytest.approx(math.sqrt(2.5), abs=1e-15)
    assert doc["masses"]["higgs"] == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert doc["masses"]["numerical_bosons"][3] == 0.0
    assert doc["derived"]["weinberg_angle"] == pytest.approx(math.atan(0.5), abs=1e-15)
    assert doc["derived"]["charge_diagonal"] == [1.0, 0.0]
    assert doc["validation"]["pass"] is True


@pytest.mark.parametrize("g", ["1e-4", "1e-5", "1e-7", "1e-12"])
def test_electroweak_small_weak_coupling(g):
    # a second rank rule on the mass form's eigenvalues once lost a W mass
    # here (exit 1) or disagreed with the orbit rank (exit 2); a rank cut
    # relative to the largest coupled singular value dropped both W masses
    # at 1e-12 and still printed pass
    code, text = run("electroweak", "--g", g, "--format", "machine")
    assert code == 0
    masses = parse_document(text)["masses"]
    assert masses["goldstone_count"] == 3
    expected = [masses["z"], masses["w"], masses["w"], masses["photon"]]
    assert masses["numerical_bosons"] == pytest.approx(expected, rel=1e-9, abs=1e-12 * masses["z"])
    assert masses["numerical_bosons"][3] == 0.0


@pytest.mark.parametrize("mu", ["1e-9", "1e-12"])
def test_electroweak_small_mu(mu):
    # the Higgs eigenvalue 2 mu sits far below 1 but is not a flat direction
    code, text = run("electroweak", "--mu", mu, "--format", "machine")
    assert code == 0
    higgs = parse_document(text)["masses"]["numerical_higgs"][0]
    assert higgs == pytest.approx(float(mu) ** 0.5, rel=1e-9)


@pytest.mark.parametrize("g", ["1e6", "1e8"])
def test_electroweak_large_weak_coupling(g):
    # each gap scales with its own masses above 1: at 7e7 one ulp is 1.5e-8
    code, text = run("electroweak", "--g", g, "--format", "machine")
    assert code == 0
    doc = parse_document(text)
    assert doc["report"]["tolerance"] == 1e-9
    assert doc["validation"]["mass_gap"] <= 1e-15 * doc["masses"]["w"]


@pytest.mark.parametrize("field", ["w", "higgs"])
def test_electroweak_relative_tolerance_still_fails(monkeypatch, field):
    # a large W mass must not loosen the Higgs check, nor the reverse
    predict = cli.boson_mass_predictions
    off = lambda p: predict(p)._replace(**{field: getattr(predict(p), field) * (1 + 1e-8)})
    monkeypatch.setattr(cli, "boson_mass_predictions", off)
    assert run("electroweak", "--g", "1e8")[0] == 1
    assert run("electroweak", "--mu", "1e8", "--g", "1e-4", "--gp", "1e-4")[0] == 1
    assert run("electroweak", "--g", "1e8", "--tol", "1e-7")[0] == 0


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("flag, name", [("--g", "g"), ("--gp", "gp"), ("--mu", "mu"), ("--lambda", "lambda")])
def test_electroweak_rejects_non_finite_parameters(flag, name, value, capsys):
    # --g inf passed the > 0 check, warned, and ended in a bare "SVD did not converge"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, text = run("electroweak", flag, value)
    assert (code, text) == (2, f"error: electroweak parameter {name} must be finite, got {value}\n")
    assert caught == []
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("flag, name", [("--g", "g"), ("--gp", "gp"), ("--mu", "mu"), ("--lambda", "lambda")])
def test_electroweak_names_a_non_positive_parameter(flag, name, value, capsys):
    code, text = run("electroweak", flag, value)
    assert (code, text) == (2, f"error: electroweak parameter {name} must be positive, got {float(value)}\n")
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv",
    [["--mu", "1e308", "--lambda", "1e-308"], ["--mu", "1e200", "--lambda", "1e-200"], ["--mu", "1.7e308"], ["--mu", "1e300"]],
    ids=["ratio", "ratio-200", "twice-mu", "gradient"],
)
def test_electroweak_overflowing_potential_is_one_error_line(argv, capsys):
    # these warned, then ended in a bare "Eigenvalues did not converge"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, text = run("electroweak", *argv)
    assert code == 2
    assert text.startswith("error: quartic potential overflows") and text.count("\n") == 1
    assert caught == []
    assert capsys.readouterr().err == ""


def test_spectrum_is_byte_identical_across_runs():
    code1, text1 = run("spectrum", "--model", MODEL, "--format", "machine", "--seed", "5")
    code2, text2 = run("spectrum", "--model", MODEL, "--format", "machine", "--seed", "5")
    assert code1 == code2 == 0
    assert text1 == text2


def test_spectrum_reports_masses():
    code, text = run("spectrum", "--model", MODEL, "--format", "machine")
    assert code == 0
    doc = parse_document(text)
    assert doc["spectrum"]["goldstone_count"] == 3
    assert doc["spectrum"]["boson_masses"][0] == pytest.approx(math.sqrt(2.5), abs=1e-12)
    assert doc["spectrum"]["higgs_masses"] == [pytest.approx(math.sqrt(2.0), abs=1e-12)]


def test_spectrum_symmetric_phase_says_h_equals_g(tmp_path):
    path = tmp_path / "sym.model"
    with open(MODEL) as fh:
        text = fh.read()
    text = text.replace("mu = 2.0", "mu = -2.0")
    # drop the pinned vacuum so the origin is used
    head, _, tail = text.partition("[vacuum]")
    _, _, rest = tail.partition("\n\n")
    path.write_text(head + rest)
    code, out = run("spectrum", "--model", str(path), "--format", "machine")
    assert code == 0
    doc = parse_document(out)
    assert doc["spectrum"]["unbroken"] == "H = G"
    assert doc["spectrum"]["goldstone_count"] == 0


def test_validate_passes_on_shipped_model():
    code, text = run("validate", "--model", MODEL, "--format", "machine")
    assert code == 0
    doc = parse_document(text)
    assert doc["checks"]["pass"] is True
    assert doc["checks"]["yukawa_invariance"] == 0.0


def test_yukawa_masses():
    code, text = run("yukawa", "--model", MODEL, "--format", "machine")
    assert code == 0
    doc = parse_document(text)
    assert doc["yukawa"]["dirac_mass"] == pytest.approx(0.5, abs=1e-15)
    assert doc["yukawa"]["massless_rows"] == [0]
    assert doc["yukawa"]["mass_matrix"][1][0] == pytest.approx(0.5, abs=1e-15)


def test_unitary_gauge_synthesized_field(tmp_path):
    out_path = tmp_path / "canonical.field"
    code, text = run(
        "unitary-gauge", "--model", MODEL, "--out", str(out_path), "--format", "machine"
    )
    assert code == 0
    doc = parse_document(text)
    assert doc["result"]["max_defect"] < 1e-10
    grid, kind, field = read_field(out_path)
    assert kind == "multiplet"
    assert grid.shape == (16, 16)
    # canonical points sit on the distinguished ray
    assert np.max(np.abs(field[..., 0])) < 1e-8
    assert np.max(np.abs(field[..., 1].imag)) < 1e-8


def test_unitary_gauge_reads_field_file(tmp_path):
    grid = Grid(dim=2, shape=(4, 4), spacing=0.5)
    phi = np.array([0.0, 1.0]) + 0.3 * smooth_multiplet_field(grid, 2, seed=9)
    src = tmp_path / "phi.field"
    write_field(src, grid, "multiplet", phi)
    out_path = tmp_path / "phi_canonical.field"
    code, text = run(
        "unitary-gauge",
        "--model",
        MODEL,
        "--field",
        str(src),
        "--out",
        str(out_path),
        "--format",
        "machine",
    )
    assert code == 0
    _, _, moved = read_field(out_path)
    norms_in = np.linalg.norm(phi, axis=-1)
    norms_out = np.linalg.norm(moved, axis=-1)
    assert np.allclose(norms_in, norms_out, atol=1e-12)
    # the counters: the site of the largest defect and the largest iteration count
    model = modelfile.parse_model_file(pathlib.Path(MODEL).read_text()).model
    swept = apply_unitary_gauge_field(model.generators, model.vacuum, phi)
    doc = parse_document(text)["result"]
    assert doc["max_defect"] == swept.max_defect
    assert doc["worst_site"] == [int(i) for i in np.unravel_index(np.argmax(swept.defects), (4, 4))]
    assert swept.defects[tuple(doc["worst_site"])] == swept.max_defect
    assert doc["max_iterations"] == swept.iterations.max() > 0


@pytest.mark.parametrize("bad", [1e-300, float("nan")])
def test_degenerate_field_site_is_located(tmp_path, bad):
    grid = Grid(dim=2, shape=(4, 4), spacing=0.5)
    phi = np.array([0.0, 1.0]) + 0.3 * smooth_multiplet_field(grid, 2, seed=9)
    phi[2, 1] = [bad, 0.0]
    src = tmp_path / "bad.field"
    write_field(src, grid, "multiplet", phi)
    code, text = run("unitary-gauge", "--model", MODEL, "--field", str(src))
    assert code == 2
    assert "error: site (2, 1): field value has norm" in text


def test_gauge_check_orders():
    code, text = run("gauge-check", "--grid", "16", "--refine", "2", "--format", "machine")
    assert code == 0
    doc = parse_document(text)
    for key in ("derivative", "strength"):
        for order in doc[key]["orders"]:
            assert 1.9 <= order <= 2.1
    assert doc["invariance"]["constant_transform_gap"] < 1e-10
    code2, text2 = run("gauge-check", "--grid", "16", "--refine", "2", "--format", "machine")
    assert text2 == text


@pytest.mark.parametrize("refine", ["0", "-1"])
def test_gauge_check_without_refinement_measures_nothing(refine):
    code, text = run("gauge-check", "--grid", "8", "--refine", refine)
    assert code == 2
    assert text == f"error: refinements must be at least 1 to measure an order, got {refine}\n"


def test_gauge_check_defaults_to_grid_16_refine_2():
    code, text = run("gauge-check", "--format", "machine")
    assert code == 0
    report = parse_document(text)["report"]
    assert (report["grid"], report["refine"]) == (16, 2)


def test_gauge_check_judges_the_asymptotic_range():
    # the coarsest pair's strength order, 1.869, fails the band; the
    # distance from 2 then shrinks by 3.9 to the finest pair's 1.966
    code, text = run("gauge-check", "--seed", "468", "--format", "machine")
    assert code == 0
    doc = parse_document(text)
    assert doc["strength"]["orders"][0] < cli.ORDER_BAND[0] <= doc["strength"]["orders"][1]
    assert doc["result"]["orders_pass"] is True


@pytest.mark.parametrize(
    "orders, ok",
    [
        ((1.95,), True),
        ((1.896,), False),  # one pair: the band alone
        ((1.896, 1.974), True),
        ((1.95, 1.974), False),  # the distance from 2 shrinks by less than 2
        ((2.1, 1.96), True),
        ((1.9, 1.97, 1.99), True),
        ((1.9, 1.97, 1.98), False),  # the last pair's shrink is 1.5
        ((1.0, 1.0), False),  # first order
        ((1.9, float("nan")), False),
    ],
)
def test_orders_pass(orders, ok):
    assert cli.orders_pass(orders) is ok


def test_gauge_check_fails_a_first_order_scheme(monkeypatch):
    # a stand-in whose defects halve with h, as a first-order difference's would
    first_order = latticefields.OrderMeasurement((0.4, 0.2, 0.1))
    monkeypatch.setattr(cli, "convergence_orders", lambda *args, **kwargs: (first_order, first_order))
    code, text = run("gauge-check", "--format", "machine")
    assert code == 1
    assert parse_document(text)["result"]["orders_pass"] is False


def test_gauge_check_fails_a_non_covariant_transform(monkeypatch):
    # matter moves with sigma but the gauge field stays put: the defects no longer shrink
    def unmoved(gs, grid, sigma, a):
        return a

    monkeypatch.setattr(latticefields, "gauge_transform_gauge", unmoved)
    code, text = run("gauge-check", "--format", "machine")
    assert code == 1
    doc = parse_document(text)
    assert doc["result"]["orders_pass"] is False
    assert doc["result"]["invariance_pass"] is True


def _field_file(tmp: pathlib.Path, kind: str, field: np.ndarray) -> str:
    path = tmp / f"{kind}.field"
    write_field(path, Grid(dim=2, shape=(4, 4), spacing=0.5), kind, field)
    return str(path)


@pytest.mark.parametrize(
    "argv, line",
    [
        (lambda tmp: ["yukawa", "--model", "tests/goldens/spin1.model"], "model file has no [yukawa] section"),
        (
            lambda tmp: ["unitary-gauge", "--model", "tests/goldens/spin1.model"],
            "no --field given and the model file has no [grid] section",
        ),
        (
            lambda tmp: ["unitary-gauge", "--model", MODEL, "--field", _field_file(tmp, "gauge", np.zeros((4, 4, 2, 4)))],
            "expected a multiplet field file, got kind 'gauge'",
        ),
        (
            lambda tmp: ["unitary-gauge", "--model", MODEL, "--field", _field_file(tmp, "multiplet", np.ones((4, 4, 3)))],
            "field has 3 components, model multiplet has 2",
        ),
    ],
    ids=["no-yukawa", "no-field-no-grid", "gauge-field", "field-length"],
)
def test_unusable_input_is_one_error_line(argv, line, tmp_path):
    assert run(*argv(tmp_path)) == (2, f"error: {line}\n")


def test_gauge_check_has_no_tolerance_flag(capsys):
    # its invariance check is relative to the largest density and reads no --tol
    with pytest.raises(SystemExit) as exit_:
        run("gauge-check", "--tol", "1e-9")
    assert exit_.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


@pytest.mark.parametrize("extent", ["0", "3", "-8", "abc"])
def test_bad_grid_extent_is_rejected_at_the_flag(extent, capsys):
    # --grid 0 divided by zero for the spacing and ended in a traceback
    with pytest.raises(SystemExit) as exit_:
        run("gauge-check", "--grid", extent)
    assert exit_.value.code == 2
    assert f"argument --grid: expected an integer of at least 4, got '{extent}'" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_bad_tolerance_is_rejected_at_the_flag(tol, capsys):
    with pytest.raises(SystemExit) as exit_:
        run("unitary-gauge", "--model", MODEL, "--tol", tol)
    assert exit_.value.code == 2
    assert f"argument --tol: expected a finite positive number, got '{tol}'" in capsys.readouterr().err


def test_parse_errors_exit_2(tmp_path, monkeypatch):
    # a missing file, a directory, a zero generator (once a bare "Singular
    # matrix", then a message without its line) and an --out in a missing directory or under a file (once found
    # only after the whole sweep): each exits 2 naming what is wrong, none raises
    doc = parse_document(pathlib.Path(MODEL).read_text())
    doc["algebra"]["generators"][3] = np.zeros((2, 2, 2)).tolist()
    del doc["representations"], doc["yukawa"]
    zero = tmp_path / "zero_generator.model"
    zero.write_text(modelfile.emit_document(doc))
    missing = MODEL.replace(".model", ".missing")
    out = str(tmp_path / "no_such_dir" / "canonical.field")
    under_file = str(zero / "canonical.field")
    monkeypatch.setattr(cli, "apply_unitary_gauge_field", None)  # the sweep must not start
    cases = [
        (["spectrum", "--model", missing], repr(missing)),
        (["spectrum", "--model", "models"], repr("models")),
        (["spectrum", "--model", str(zero)], "error: line 4 [algebra]: generator 3 is zero\n"),
        (["validate", "--model", str(zero)], "error: line 4 [algebra]: generator 3 is zero\n"),
        (["unitary-gauge", "--model", MODEL, "--out", out], f"error: [Errno 2] No such file or directory: {out!r}\n"),
        (["unitary-gauge", "--model", MODEL, "--out", under_file], f"error: [Errno 20] Not a directory: {under_file!r}\n"),
    ]
    for argv, named in cases:
        code, text = run(*argv)
        assert code == 2
        assert text.startswith("error:") and named in text


def _ssbspec_errors():
    """Every exception class defined in an ssbspec module."""
    for info in pkgutil.iter_modules(ssbspec.__path__):
        module = importlib.import_module(f"ssbspec.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == module.__name__:
                yield obj


@pytest.mark.parametrize("error", sorted(set(_ssbspec_errors()), key=lambda c: c.__name__), ids=lambda c: c.__name__)
def test_every_ssbspec_error_exits_2(error, monkeypatch):
    def fail(args):
        err = error.__new__(error)  # bypass constructors that need more than a message
        Exception.__init__(err, "boom")
        err.issues = ("boom",)  # what main prints for a ModelFileError
        raise err

    monkeypatch.setattr(cli, "_cmd_electroweak", fail)
    assert run("electroweak") == (2, "error: boom\n")


@pytest.mark.parametrize(
    "error, line",
    [
        (MemoryError("Unable to allocate 1.00 TiB for an array"), "error: Unable to allocate 1.00 TiB for an array\n"),
        (MemoryError(), "error: out of memory\n"),
    ],
    ids=["numpy", "bare"],
)
def test_out_of_memory_exits_2(error, line, monkeypatch):
    # a large --grid or --refine ended in a MemoryError traceback (exit 1);
    # the stand-in raises before anything large is allocated
    def exhausted(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "convergence_orders", exhausted)
    assert run("gauge-check", "--grid", "100000") == (2, line)


def test_generator_moduli_beyond_the_float_range_are_named(tmp_path):
    # a skew pair of finite entries whose moduli overflow was refused as
    # "not skew-Hermitian (defect 0.000e+00)"
    path = tmp_path / "huge.model"
    path.write_text(
        "[algebra]\nn = 2\nr = 1\n"
        "generators = [[[[0.0, 0.0], [1.5e308, 1.5e308]], [[-1.5e308, 1.5e308], [0.0, 0.0]]]]\n"
        "\n[potential]\nmu = 2.0\nlambda = 1.0\n"
    )
    code, text = run("spectrum", "--model", str(path))
    assert code == 2
    assert text == "error: line 4 [algebra]: generator entries have moduli beyond the float range\n"
    assert "skew-Hermitian" not in text


def test_bad_model_reports_located_issue(tmp_path):
    path = tmp_path / "bad.model"
    path.write_text("[potential]\nmu = 2.0\nlambda = -1.0\n")
    code, text = run("spectrum", "--model", str(path))
    assert code == 2
    assert "non-positive coupling" in text
    assert "missing [algebra]" in text


@pytest.mark.parametrize(
    "key, value, line",
    [
        ("vector", "null", "line 16 [vacuum]: vector must be an array"),
        ("g_y", '{"x": 1}', "line 28 [yukawa]: bad value for 'g_y': objects are not allowed"),
    ],
    ids=["null", "object"],
)
def test_wrong_value_is_a_located_error(key, value, line, tmp_path):
    # null is a value of the wrong type and an object a bad value: each is one
    # located error line at exit 2, never a traceback
    text = pathlib.Path(MODEL).read_text()
    (old,) = [row for row in text.splitlines() if row.startswith(f"{key} = ")]
    path = tmp_path / "edited.model"
    path.write_text(text.replace(old, f"{key} = {value}"))
    assert run("spectrum", "--model", str(path)) == (2, f"error: {line}\n")


def test_seed_env_fallback(monkeypatch):
    monkeypatch.setenv("SSB_SPECTRUM_SEED", "17")
    code, text = run("spectrum", "--model", MODEL, "--format", "machine")
    assert code == 0
    assert parse_document(text)["report"]["seed"] == 17
    monkeypatch.delenv("SSB_SPECTRUM_SEED")
    _, text2 = run("spectrum", "--model", MODEL, "--format", "machine")
    assert parse_document(text2)["report"]["seed"] == 0


@pytest.mark.parametrize("value", ["-5", "abc", "3.5"])
def test_bad_seed_names_its_source(value, monkeypatch, capsys):
    with pytest.raises(SystemExit) as exit_:
        run("spectrum", "--model", MODEL, "--seed", value)
    assert exit_.value.code == 2
    assert f"argument --seed: expected a non-negative integer, got '{value}'" in capsys.readouterr().err
    monkeypatch.setenv("SSB_SPECTRUM_SEED", value)
    code, text = run("spectrum", "--model", MODEL)
    assert code == 2
    assert text == f"error: SSB_SPECTRUM_SEED: expected a non-negative integer, got '{value}'\n"


def test_import_loads_neither_dataclasses_nor_scipy():
    # records are named tuples: generating the methods of 34 dataclasses took
    # about 40 ms of every command's start
    code = "import sys\nimport ssbspec.cli\nprint(sorted({'dataclasses', 'scipy'} & set(sys.modules)))\n"
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(ssbspec.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"


def test_factors_key_is_refused_at_its_line(tmp_path):
    # the couplings live in the generators alone; a factors key restated them
    # unread, so a file that still has one is refused rather than trusted
    text = pathlib.Path(MODEL).read_text()
    (comment,) = [row for row in text.splitlines() if row.startswith("# couplings folded in above")]
    path = tmp_path / "factors.model"
    path.write_text(text.replace(comment, 'factors = [["su2", [0, 1, 2], 2.0], ["u1", [3], 1.0]]'))
    assert run("spectrum", "--model", str(path)) == (2, "error: line 9 [algebra]: unknown key 'factors'\n")


@pytest.mark.parametrize("argv", [["electroweak"], ["yukawa", "--model", MODEL]], ids=["electroweak", "yukawa"])
def test_commands_that_draw_nothing_take_no_seed(argv, monkeypatch, capsys):
    with pytest.raises(SystemExit) as exit_:
        run(*argv, "--seed", "1")
    assert exit_.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    monkeypatch.setenv("SSB_SPECTRUM_SEED", "abc")
    assert run(*argv)[0] == 0


@pytest.mark.parametrize("command", ["spectrum", "validate"])
def test_closure_check_beyond_the_float_range_passes(tmp_path, command):
    # closure is judged on the unit basis, so generators whose max|X|^2 leaves
    # the float range pass with a finite defect: at x1e300 the check once
    # read closure_defect = inf and failed, and at x1e-300 the Gram matrix's
    # squares underflowed into "generator 0 is zero"
    doc = parse_document(pathlib.Path("tests/goldens/spin1.model").read_text())
    path = tmp_path / "scaled.model"
    generators = np.array(doc["algebra"]["generators"])
    for factor in (1e300, 1e-300):
        doc["algebra"]["generators"] = (generators * factor).tolist()
        path.write_text(modelfile.emit_document(doc))
        code, text = run(command, "--model", str(path), "--format", "machine")
        assert code == 0, (factor, text)
        (line,) = [line for line in text.splitlines() if line.startswith("closure_defect = ")]
        assert math.isfinite(float(line.split(" = ")[1])) and "pass = true\n" in text
