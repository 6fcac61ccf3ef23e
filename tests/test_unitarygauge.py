"""Unitary gauge solver tests.

Closed forms used below: with v0 = (0, w) and su(2)+u(1) generators at
couplings (g, gp), the fiber derivative at phi = (c, 0) is
(0, c*g*w/2, 0, 0), and the canonical transverse representative of any
phi is (0, |phi|) up to tolerance.
"""
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssbspec.breaking import orbit_frame, spectrum
from ssbspec.chiral import su2_irrep
from ssbspec.electroweak import ElectroweakParams, build_generators, build_model
from ssbspec.latticefields import Grid, smooth_multiplet_field
from ssbspec import liecore, unitarygauge
from ssbspec.liecore import GeneratorSet
from ssbspec.modelfile import parse_model_file
from test_goldens import TWIST_PHI
from ssbspec.unitarygauge import (
    DegeneratePointError,
    UnitaryGaugeConfig,
    apply_unitary_gauge_field,
    fiber_derivative,
    goldstone_vanish_check,
    solve_unitary_gauge_point,
)

PARAMS = ElectroweakParams(g=2.0, gp=1.0, mu=2.0, lam=1.0)
GS = build_generators(PARAMS.g, PARAMS.gp)
MODEL = build_model(PARAMS)
V0 = MODEL.vacuum
SPEC = spectrum(MODEL)
BROKEN = orbit_frame(GS, V0).vt[: SPEC.goldstone_count]
W = float(np.linalg.norm(V0))


def test_fiber_derivative_vanishes_on_transverse_ray():
    s = fiber_derivative(GS, V0, np.array([0.0, 0.7]))
    assert np.max(np.abs(s)) < 1e-14


def test_fiber_derivative_swapped_component_closed_form():
    c = 0.7
    s = fiber_derivative(GS, V0, np.array([c, 0.0]))
    expected = np.array([0.0, c * PARAMS.g * W / 2.0, 0.0, 0.0])
    np.testing.assert_allclose(s, expected, atol=1e-14)


def test_goldstone_check_flags_off_slice_point():
    good = goldstone_vanish_check(GS, V0, np.array([0.0, 1.3]))
    bad = goldstone_vanish_check(GS, V0, np.array([0.2, 1.0]))
    assert good.ok and good.defect < 1e-12
    assert not bad.ok and bad.defect > 0.1


def test_broken_hessian_at_vacuum_is_minus_mass_diagonal():
    hessian = unitarygauge._overlap_hessian(unitarygauge._build_frame(GS, V0), V0)
    eigs = 0.5 * SPEC.boson_masses[: SPEC.goldstone_count] ** 2
    np.testing.assert_allclose(hessian, -np.diag(eigs), atol=1e-12)


def test_solver_rotates_swapped_point_to_canonical_ray():
    c = 0.9
    res = solve_unitary_gauge_point(GS, V0, np.array([c, 0.0]))
    np.testing.assert_allclose(res.point, [0.0, c], atol=1e-10)
    assert res.goldstone_defect < 1e-10
    # the transform is unitary and exactly reproduces the point
    np.testing.assert_allclose(
        res.transform @ res.transform.conj().T, np.eye(2), atol=1e-12
    )
    np.testing.assert_allclose(res.transform @ [c, 0.0], res.point, atol=1e-14)


def test_solver_escapes_antipodal_start():
    # (0, -c) is a critical configuration of the overlap but not its max;
    # a phase far below rounding leaves a gradient too small to climb, and
    # must not cost more iterations than the exact critical point
    iterations = []
    for phi in ([0.0, -1.1], [0.0, -1.1 + 5e-146j]):
        res = solve_unitary_gauge_point(GS, V0, np.array(phi))
        np.testing.assert_allclose(res.point, [0.0, 1.1], atol=1e-9)
        assert res.overlap.real > 0
        iterations.append(res.iterations)
    assert iterations[0] == iterations[1]


def test_solver_identity_on_already_canonical_point():
    res = solve_unitary_gauge_point(GS, V0, np.array([0.0, 0.55]))
    assert res.iterations == 0
    np.testing.assert_allclose(res.transform, np.eye(2), atol=1e-14)


def test_solver_random_points_reach_canonical_ray():
    rng = np.random.default_rng(7)
    for _ in range(100):
        phi = rng.normal(size=2) + 1j * rng.normal(size=2)
        res = solve_unitary_gauge_point(GS, V0, phi)
        r = np.linalg.norm(phi)
        np.testing.assert_allclose(res.point, [0.0, r], atol=1e-9 * max(1.0, r))
        assert res.goldstone_defect < 1e-10
        # norm is preserved by the unitary rotation
        assert abs(np.linalg.norm(res.point) - r) < 1e-12 * max(1.0, r)


def test_vanishing_goldstone_equivalent_to_vanishing_fiber_derivative():
    rng = np.random.default_rng(11)
    scale = 1.0
    for _ in range(200):
        phi = rng.normal(size=2) + 1j * rng.normal(size=2)
        res = solve_unitary_gauge_point(GS, V0, phi)
        s = fiber_derivative(GS, V0, res.point)
        broken_s = BROKEN @ s
        assert np.max(np.abs(broken_s)) < 1e-9 * scale
        # and conversely a generic off-slice point fails both ways
        check = goldstone_vanish_check(GS, V0, phi)
        if not check.ok and check.defect > 1e-3:
            assert np.max(np.abs(BROKEN @ fiber_derivative(GS, V0, phi))) > 1e-8


@settings(max_examples=30, deadline=None)
@given(
    re0=st.floats(-2, 2),
    im0=st.floats(-2, 2),
    re1=st.floats(-2, 2),
    im1=st.floats(-2, 2),
)
def test_solver_property_canonical_form(re0, im0, re1, im1):
    phi = np.array([re0 + 1j * im0, re1 + 1j * im1])
    r = np.linalg.norm(phi)
    if r < 1e-3:
        return
    res = solve_unitary_gauge_point(GS, V0, phi)
    np.testing.assert_allclose(res.point, [0.0, r], atol=1e-8 * max(1.0, r))


def test_field_sweep_small_grid():
    rng = np.random.default_rng(3)
    field = rng.normal(size=(4, 4, 2)) + 1j * rng.normal(size=(4, 4, 2))
    out = apply_unitary_gauge_field(GS, V0, field)
    assert out.max_defect < 1e-10
    radii = np.linalg.norm(field, axis=-1)
    np.testing.assert_allclose(out.transformed[..., 0], 0.0, atol=1e-9)
    np.testing.assert_allclose(out.transformed[..., 1].real, radii, atol=1e-9)
    np.testing.assert_allclose(out.transformed[..., 1].imag, 0.0, atol=1e-9)
    assert out.transforms.shape == (4, 4, 2, 2)
    assert out.iterations.dtype.kind == "i"


def test_field_sweep_is_deterministic():
    rng = np.random.default_rng(5)
    field = rng.normal(size=(3, 3, 2)) + 1j * rng.normal(size=(3, 3, 2))
    a = apply_unitary_gauge_field(GS, V0, field)
    b = apply_unitary_gauge_field(GS, V0, field)
    np.testing.assert_array_equal(a.transformed, b.transformed)
    np.testing.assert_array_equal(a.transforms, b.transforms)


def test_zero_site_reports_its_location():
    field = np.ones((2, 2, 2), dtype=complex)
    field[1, 0] = 0.0
    with pytest.raises(DegeneratePointError, match=r"site \(1, 0\)"):
        apply_unitary_gauge_field(GS, V0, field)


def test_first_of_two_degenerate_sites_is_named():
    field = np.ones((3, 4, 2), dtype=complex)
    field[2, 1] = np.nan
    field[0, 3] = 0.0
    with pytest.raises(DegeneratePointError, match=r"^site \(0, 3\): field value has norm 0\.0"):
        apply_unitary_gauge_field(GS, V0, field)


def test_single_value_errors_carry_no_site():
    # a value is a field of shape (n,): its errors name no site
    with pytest.raises(DegeneratePointError, match=r"^field value has norm 0\.0; it must be finite and nonzero$"):
        solve_unitary_gauge_point(GS, V0, np.zeros(2))
    with pytest.raises(ValueError, match=r"^field must have 2 components on the last axis$"):
        solve_unitary_gauge_point(GS, V0, np.ones(3))


@pytest.mark.parametrize(
    "shrink, message",
    [(1.0, "no convergence in 50 iterations"), (0.25, "trust radius collapsed")],
    ids=["budget", "radius"],
)
def test_first_of_two_failing_sites_is_named(monkeypatch, shrink, message):
    # the step helper, patched to never accept a trial at the two sites with
    # value (0, -1), leaves them to use up max_iter or, with their radius
    # shrunk on every rejection, to let it collapse
    field = np.tile(np.array([0.1, 1.0], dtype=complex), (3, 4, 1))
    field[2, 1] = field[1, 3] = [0.0, -1.0]
    step = unitarygauge._trust_step

    def stuck(frame, work, cur, radius, fscale):
        accept, trial, new_radius = step(frame, work, cur, radius, fscale)
        held = work[:, 1].real < 0
        return accept & ~held, trial, np.where(held, shrink * radius, new_radius)

    monkeypatch.setattr(unitarygauge, "_trust_step", stuck)
    # both sites in the second block of five: the name counts from the field's start
    monkeypatch.setattr(liecore, "SITE_BLOCK", 5)
    with pytest.raises(DegeneratePointError, match=rf"^site \(1, 3\): {message} \(goldstone defect 0\.000e\+00"):
        apply_unitary_gauge_field(GS, V0, field)


SPIN1 = GeneratorSet(su2_irrep(3))
SPIN1_V0 = np.ones(3) / np.sqrt(3.0)


@pytest.mark.parametrize("gs, v0", [(GS, V0), (SPIN1, SPIN1_V0)], ids=["doublet", "spin1"])
def test_sweep_is_independent_of_site_order(gs, v0, monkeypatch):
    # rough values: the spin-1 slice meets an orbit at several points, which
    # a climb that depended on other sites could pick differently; -1.3 v0 is
    # a critical point of the overlap away from the target (the hard case)
    rng = np.random.default_rng(41)
    n = gs.n
    field = v0 + rng.uniform(0.5, 2.5, size=(5, 6, 1)) * (
        rng.normal(size=(5, 6, n)) + 1j * rng.normal(size=(5, 6, n))
    )
    field[3, 2] = -1.3 * v0
    perm = rng.permutation(30)
    out = apply_unitary_gauge_field(gs, v0, field)
    # and in blocks of seven sites instead of one block
    monkeypatch.setattr(liecore, "SITE_BLOCK", 7)
    shuffled = apply_unitary_gauge_field(gs, v0, field.reshape(30, n)[perm].reshape(5, 6, n))
    for name in ("transformed", "transforms", "defects"):
        got = getattr(shuffled, name).reshape(30, -1)
        np.testing.assert_allclose(got, getattr(out, name).reshape(30, -1)[perm], rtol=0, atol=1e-12)
    np.testing.assert_array_equal(shuffled.iterations.ravel(), out.iterations.ravel()[perm])
    for idx in np.ndindex(5, 6):
        cold = solve_unitary_gauge_point(gs, v0, field[idx])
        np.testing.assert_allclose(out.transformed[idx], cold.point, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.transforms[idx], cold.transform, rtol=0, atol=1e-12)
        assert out.iterations[idx] == cold.iterations


def test_hard_sites_inside_a_batch(monkeypatch):
    # TWIST_PHI starts near the antipode of the vacuum ray, and -1.3 v0 on it,
    # where the gradient vanishes and only the hard case of the trust-region
    # step climbs; inside a smooth field they get what the point solver gives
    grid = Grid(dim=2, shape=(4, 5), spacing=0.25)
    field = V0 + 0.35 * smooth_multiplet_field(grid, 2, 3)
    field[2, 3] = TWIST_PHI
    field[0, 4] = -1.3 * V0
    hard = []
    subproblem = unitarygauge._subproblem

    def spy(H, s, radius, tiny):
        hard.append(int(np.sum(np.all(np.abs(s) <= tiny, axis=-1))))
        return subproblem(H, s, radius, tiny)

    monkeypatch.setattr(unitarygauge, "_subproblem", spy)
    out = apply_unitary_gauge_field(GS, V0, field)
    assert hard[0] == 1
    for idx, phi in (((2, 3), TWIST_PHI), ((0, 4), -1.3 * V0)):
        point = solve_unitary_gauge_point(GS, V0, phi)
        assert out.iterations[idx] == point.iterations
        np.testing.assert_allclose(out.transformed[idx], point.point, rtol=0, atol=1e-12)
        np.testing.assert_allclose(point.point, [0.0, np.linalg.norm(phi)], atol=1e-10)
    assert out.max_defect < 1e-10


def test_tight_iteration_budget_raises():
    cfg = UnitaryGaugeConfig(max_iter=0)
    with pytest.raises(DegeneratePointError, match="^no convergence in 0 iterations"):
        solve_unitary_gauge_point(GS, V0, np.array([1.0, 0.0]), config=cfg)
    # a value already in unitary gauge needs no iteration
    assert solve_unitary_gauge_point(GS, V0, np.array([0.0, 2.0]), config=cfg).iterations == 0


def test_orbit_climb_escapes_a_saddle():
    # a spin-1 value on the slice (its fiber derivative is rounding) where the
    # overlap, -0.79, has a saddle: the Hessian has eigenvalues of both signs
    # and the gradient gives no direction; the step along the top eigenvector
    # climbs off it, to the overlap no other start improves on
    phi = np.array(
        [
            -0.701465127698973 - 0.07074212252603461j,
            0.02966488742700595 + 0.07074212252603461j,
            -0.7014651276989728 - 0.07074212252603462j,
        ]
    )
    frame = unitarygauge._build_frame(SPIN1, SPIN1_V0)
    curvature = np.linalg.eigvalsh(unitarygauge._overlap_hessian(frame, phi))
    assert curvature[0] < 0 < curvature[-1]
    assert np.max(np.abs(fiber_derivative(SPIN1, SPIN1_V0, phi))) < 1e-16
    assert np.vdot(SPIN1_V0, phi).real < -0.79
    res = solve_unitary_gauge_point(SPIN1, SPIN1_V0, phi)
    assert res.goldstone_defect < 1e-10
    assert res.overlap.real > 0.8
    np.testing.assert_allclose(np.linalg.norm(res.point), np.linalg.norm(phi), rtol=1e-12)
    for start in _starts(SPIN1, SPIN1_V0):
        other = solve_unitary_gauge_point(SPIN1, SPIN1_V0, start @ phi)
        assert other.overlap.real <= res.overlap.real + 1e-10


@pytest.mark.parametrize("gs", [GS, SPIN1], ids=["doublet", "spin1"])
def test_unbroken_vacuum_leaves_the_field_as_it_is(gs):
    # at v0 = 0 no direction is broken and every value is already in unitary gauge
    field = smooth_multiplet_field(Grid(dim=2, shape=(4, 4), spacing=0.25), gs.n, 3)
    out = apply_unitary_gauge_field(gs, np.zeros(gs.n), field)
    assert np.array_equal(out.transformed, field)
    assert np.array_equal(out.transforms, np.broadcast_to(np.eye(gs.n), field.shape + (gs.n,)))
    assert not out.defects.any() and not out.iterations.any()


def _starts(gs: GeneratorSet, v0: np.ndarray) -> list:
    """exp(pi a_j) and exp(pi a_j / 2) along each broken direction a_j."""
    frame = orbit_frame(gs, v0)
    broken = np.einsum("dr,rij->dij", frame.vt[: frame.rank], gs.matrices)
    return [liecore.expm_skew(c * a) for a in broken for c in (np.pi, np.pi / 2)]


EW_MODEL = pathlib.Path(__file__).resolve().parent.parent / "models" / "electroweak.model"


@pytest.mark.parametrize(
    "which, phi",
    [
        ("doublet", [-0.7441907604546026 + 0.16553747198110644j, -1.6167786908213881 - 0.09931042630428247j]),
        (
            "spin1",
            [
                4.29834815097103 - 2.101227626654608j,
                0.8544413702145945 + 5.081040073393113j,
                5.37765305865649 - 0.44390740008801755j,
            ],
        ),
    ],
    ids=["doublet", "spin1"],
)
def test_rough_values_that_used_to_fail(which, phi):
    # rough-field sites (benchmark seed 1103) where the former solver, a
    # Newton iteration in exponential coordinates with a fallback, failed
    if which == "doublet":
        model = parse_model_file(EW_MODEL.read_text()).model
        gs, v0 = model.generators, model.vacuum
        np.testing.assert_array_equal(v0, [0.0, 1.0])
    else:
        gs, v0 = SPIN1, SPIN1_V0
    phi = np.array(phi)
    res = solve_unitary_gauge_point(gs, v0, phi)
    assert res.goldstone_defect < 1e-10
    assert res.overlap.real >= 0
    np.testing.assert_allclose(np.linalg.norm(res.point), np.linalg.norm(phi), rtol=1e-12)


def test_huge_newton_direction_does_not_overflow():
    # the Hessian at this value is singular along its gradient, where the
    # Newton direction would be unbounded, and the gradient's other parts are
    # 1e-253; a step model nearly singular along its gradient gives a boundary step
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = solve_unitary_gauge_point(GS, V0, np.array([0.0, 9.4e-253 + 1j]))
        H = np.array([[[-1e-300, 0.0], [0.0, -1.0]]])
        step, gain = unitarygauge._subproblem(H, np.array([[1.0, 0.0]]), np.array([2.0]), 0.0)
    np.testing.assert_allclose(res.point, [0.0, 1.0], atol=1e-10)
    np.testing.assert_allclose(step, [[-2.0, 0.0]], rtol=1e-12)
    np.testing.assert_allclose(gain, [2.0], rtol=1e-12)
