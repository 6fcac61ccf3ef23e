"""Unitary gauge solver tests.

Closed forms used below: with v0 = (0, w) and su(2)+u(1) generators at
couplings (g, gp), the fiber derivative at phi = (c, 0) is
(0, c*g*w/2, 0, 0), and the canonical transverse representative of any
phi is (0, |phi|) up to tolerance.
"""
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ssbspec.breaking import spectrum
from ssbspec.chiral import su2_irrep
from ssbspec.electroweak import ElectroweakParams, build_generators, build_model
from ssbspec.latticefields import Grid, smooth_multiplet_field
from ssbspec import liecore, unitarygauge
from ssbspec.liecore import GeneratorSet, skew_eigh
from ssbspec.modelfile import parse_model_file
from test_goldens import TWIST_PHI
from ssbspec.unitarygauge import (
    DegeneratePointError,
    UnitaryGaugeConfig,
    apply_unitary_gauge_field,
    broken_hessian,
    fiber_derivative,
    goldstone_vanish_check,
    solve_unitary_gauge_point,
)

PARAMS = ElectroweakParams(g=2.0, gp=1.0, mu=2.0, lam=1.0)
GS = build_generators(PARAMS.g, PARAMS.gp)
MODEL = build_model(PARAMS)
V0 = MODEL.vacuum
SPEC = spectrum(MODEL)
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
    good = goldstone_vanish_check(GS, V0, np.array([0.0, 1.3]), spec=SPEC)
    bad = goldstone_vanish_check(GS, V0, np.array([0.2, 1.0]), spec=SPEC)
    assert good.ok and good.defect < 1e-12
    assert not bad.ok and bad.defect > 0.1


def test_broken_hessian_at_vacuum_is_minus_mass_diagonal():
    bh = broken_hessian(GS, V0, V0, spec=SPEC)
    eigs = 0.5 * SPEC.boson_masses[: SPEC.goldstone_count] ** 2
    np.testing.assert_allclose(bh.matrix, -np.diag(eigs), atol=1e-12)
    assert bh.asymmetry < 1e-12


def test_solver_rotates_swapped_point_to_canonical_ray():
    c = 0.9
    res = solve_unitary_gauge_point(GS, V0, np.array([c, 0.0]), spec=SPEC)
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
        res = solve_unitary_gauge_point(GS, V0, np.array(phi), spec=SPEC)
        np.testing.assert_allclose(res.point, [0.0, 1.1], atol=1e-9)
        assert res.overlap.real > 0
        iterations.append(res.iterations)
    assert iterations[0] == iterations[1]


def test_solver_identity_on_already_canonical_point():
    res = solve_unitary_gauge_point(GS, V0, np.array([0.0, 0.55]), spec=SPEC)
    assert res.iterations == 0
    np.testing.assert_allclose(res.transform, np.eye(2), atol=1e-14)


def test_solver_random_points_reach_canonical_ray():
    rng = np.random.default_rng(7)
    for _ in range(100):
        phi = rng.normal(size=2) + 1j * rng.normal(size=2)
        res = solve_unitary_gauge_point(GS, V0, phi, spec=SPEC)
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
        res = solve_unitary_gauge_point(GS, V0, phi, spec=SPEC)
        s = fiber_derivative(GS, V0, res.point)
        broken_s = SPEC.broken @ s
        assert np.max(np.abs(broken_s)) < 1e-9 * scale
        # and conversely a generic off-slice point fails both ways
        check = goldstone_vanish_check(GS, V0, phi, spec=SPEC)
        if not check.ok and check.defect > 1e-3:
            assert np.max(np.abs(SPEC.broken @ fiber_derivative(GS, V0, phi))) > 1e-8


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
    res = solve_unitary_gauge_point(GS, V0, phi, spec=SPEC)
    np.testing.assert_allclose(res.point, [0.0, r], atol=1e-8 * max(1.0, r))


def test_field_sweep_small_grid():
    rng = np.random.default_rng(3)
    field = rng.normal(size=(4, 4, 2)) + 1j * rng.normal(size=(4, 4, 2))
    out = apply_unitary_gauge_field(GS, V0, field, spec=SPEC)
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
    a = apply_unitary_gauge_field(GS, V0, field, spec=SPEC)
    b = apply_unitary_gauge_field(GS, V0, field, spec=SPEC)
    np.testing.assert_array_equal(a.transformed, b.transformed)
    np.testing.assert_array_equal(a.transforms, b.transforms)


def test_zero_site_reports_its_location():
    field = np.ones((2, 2, 2), dtype=complex)
    field[1, 0] = 0.0
    with pytest.raises(DegeneratePointError, match=r"site \(1, 0\)"):
        apply_unitary_gauge_field(GS, V0, field, spec=SPEC)


def test_first_of_two_degenerate_sites_is_named():
    field = np.ones((3, 4, 2), dtype=complex)
    field[2, 1] = np.nan
    field[0, 3] = 0.0
    with pytest.raises(DegeneratePointError, match=r"^site \(0, 3\): field value has norm 0\.0"):
        apply_unitary_gauge_field(GS, V0, field, spec=SPEC)


def test_first_of_two_failing_fallbacks_is_named(monkeypatch):
    # (0, -1) is a critical point of the overlap away from the target: the
    # chart stalls there and the orbit climb, made to fail here, takes over
    field = np.tile(np.array([0.1, 1.0], dtype=complex), (3, 4, 1))
    field[2, 1] = field[1, 3] = [0.0, -1.0]

    def climb(frame, phi, config):
        raise DegeneratePointError("orbit climb did not converge")

    monkeypatch.setattr(unitarygauge, "_group_normalize", climb)
    # both sites in the second block of five: the name counts from the field's start
    monkeypatch.setattr(liecore, "SITE_BLOCK", 5)
    with pytest.raises(DegeneratePointError, match=r"^site \(1, 3\): orbit climb did not converge$"):
        apply_unitary_gauge_field(GS, V0, field, spec=SPEC)


SPIN1 = GeneratorSet(su2_irrep(3))
SPIN1_V0 = np.ones(3) / np.sqrt(3.0)


@pytest.mark.parametrize("gs, v0", [(GS, V0), (SPIN1, SPIN1_V0)], ids=["doublet", "spin1"])
def test_sweep_is_independent_of_site_order(gs, v0, monkeypatch):
    # rough values: the spin-1 slice meets an orbit at several points, which
    # a start from a neighbour's coefficients could pick differently; -1.3 v0
    # is a critical point of the overlap away from the target, where the
    # chart stalls and the fallback runs
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
    assert out.fallback.any()
    for name in ("transformed", "transforms", "defects"):
        got = getattr(shuffled, name).reshape(30, -1)
        np.testing.assert_allclose(got, getattr(out, name).reshape(30, -1)[perm], rtol=0, atol=1e-12)
    np.testing.assert_array_equal(shuffled.iterations.ravel(), out.iterations.ravel()[perm])
    np.testing.assert_array_equal(shuffled.fallback.ravel(), out.fallback.ravel()[perm])
    for idx in np.ndindex(5, 6):
        cold = solve_unitary_gauge_point(gs, v0, field[idx], t0=None)
        np.testing.assert_allclose(out.transformed[idx], cold.point, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.transforms[idx], cold.transform, rtol=0, atol=1e-12)
        assert out.iterations[idx] == cold.iterations


def test_one_stalled_site_inside_a_batch(monkeypatch):
    # only the TWIST_PHI site stalls in the chart; it alone takes the orbit
    # climb and the lift, and counts their iterations as the point solver does
    grid = Grid(dim=2, shape=(4, 5), spacing=0.25)
    field = V0 + 0.35 * smooth_multiplet_field(grid, 2, 3)
    field[2, 3] = TWIST_PHI
    point = solve_unitary_gauge_point(GS, V0, TWIST_PHI, spec=SPEC)
    climbs = _spy_climb(monkeypatch)
    lifts = []
    lift = unitarygauge._lift
    monkeypatch.setattr(
        unitarygauge, "_lift", lambda *a: lifts.append(lift(*a)) or lifts[-1]
    )
    calls = _spy_gauss_newton(monkeypatch)
    out = apply_unitary_gauge_field(GS, V0, field, spec=SPEC)
    assert np.argwhere(out.fallback).tolist() == [[2, 3]]
    assert len(climbs) == 1 and len(lifts) == 1
    np.testing.assert_allclose(climbs[0][0], TWIST_PHI * W / np.linalg.norm(TWIST_PHI), atol=1e-15)
    expected = UnitaryGaugeConfig().max_iter + climbs[0][1][2] + lifts[0][1]
    assert lifts[0][1] == sum(used for _, used in calls)
    assert out.iterations[2, 3] == expected == point.iterations
    np.testing.assert_allclose(out.transformed[2, 3], point.point, rtol=0, atol=1e-12)
    assert out.max_defect < 1e-10


def test_tight_iteration_budget_raises():
    cfg = UnitaryGaugeConfig(max_iter=0)
    with pytest.raises(DegeneratePointError):
        solve_unitary_gauge_point(GS, V0, np.array([1.0, 0.0]), spec=SPEC, config=cfg)


def _spy_gauss_newton(monkeypatch) -> list:
    calls = []
    gauss_newton = unitarygauge._gauss_newton_to

    def spy(*args, **kwargs):
        t, ok, used = gauss_newton(*args, **kwargs)
        calls.append((ok, used))
        return t, ok, used

    monkeypatch.setattr(unitarygauge, "_gauss_newton_to", spy)
    return calls


def _spy_climb(monkeypatch) -> list:
    """Records (phi, (psi, U_acc, iterations)) for each orbit climb."""
    climbs = []
    climb = unitarygauge._group_normalize

    def spy(frame, phi, config):
        climbs.append((phi, climb(frame, phi, config)))
        return climbs[-1][1]

    monkeypatch.setattr(unitarygauge, "_group_normalize", spy)
    return climbs


def test_twist_scan_lifts_when_log_start_fails(monkeypatch):
    # measured: the chart Newton stalls from t = 0, Gauss-Newton from the
    # broken part of log U_acc fails, and the stabilizer twist finds the
    # chart coefficients; the failed attempt counts toward the iterations
    calls = _spy_gauss_newton(monkeypatch)
    climbs = _spy_climb(monkeypatch)
    res = solve_unitary_gauge_point(GS, V0, TWIST_PHI, t0=np.zeros(3))
    assert [ok for ok, _ in calls] == [False, True]
    spent = sum(used for _, used in calls)
    assert res.iterations == UnitaryGaugeConfig().max_iter + climbs[0][1][2] + spent
    assert res.goldstone_defect < 1e-10


def test_orbit_climb_escapes_a_saddle(monkeypatch):
    # measured on a rough spin-1 field: from this warm start the chart
    # Newton stalls and the orbit climb reaches a saddle of the overlap
    # (Hessian eigenvalues about -0.81, -0.77, +0.045), where gradient
    # steps only creep; the curvature escape climbs off it
    gs = GeneratorSet(su2_irrep(3))
    v0 = np.ones(3) / np.sqrt(3.0)
    phi = np.array(
        [
            2.3876259581138664 + 0.22773390136058455j,
            -0.2054962117266912 + 0.26975429554669805j,
            2.1700268594051133 - 0.46106043194305646j,
        ]
    )
    t0 = np.array([-8.544742152622002, -0.009735825034667472, 10.52419072212499])
    calls = _spy_gauss_newton(monkeypatch)
    res = solve_unitary_gauge_point(gs, v0, phi, t0=t0)
    assert calls and calls[0][0]
    assert res.goldstone_defect < 1e-12
    assert res.overlap.real > 0
    np.testing.assert_allclose(np.linalg.norm(res.point), np.linalg.norm(phi), rtol=1e-12)


def test_log_of_unitary_matches_scipy_logm():
    rng = np.random.default_rng(20)
    for n in (2, 3, 4):
        for _ in range(20):
            H = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            H = 0.5 * (H + H.conj().T)
            H *= rng.uniform(0.1, 0.99) * np.pi / np.max(np.abs(np.linalg.eigvalsh(H)))
            U = scipy.linalg.expm(1j * H)
            X = unitarygauge._log_unitary(U)
            np.testing.assert_allclose(X, scipy.linalg.logm(U), atol=1e-10)
            np.testing.assert_allclose(scipy.linalg.expm(X), U, atol=1e-12)


def test_tangents_match_scipy_frechet():
    rng = np.random.default_rng(31)
    spin1 = unitarygauge._build_frame(GeneratorSet(su2_irrep(3)), np.ones(3) / np.sqrt(3.0), None)
    doublet = unitarygauge._build_frame(GS, V0, SPEC)
    cases = [(frame, np.zeros(len(frame.alpha))) for frame in (doublet, spin1)]
    for norm in np.logspace(-9, 1, 11):
        for frame in (doublet, spin1):
            t = rng.normal(size=len(frame.alpha))
            A = np.einsum("d,dij->ij", t, frame.alpha)
            cases.append((frame, t * (norm / np.linalg.norm(A, 2))))
    # directions whose sums have exactly and nearly equal eigenvalues
    skew = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    diagonal = spin1._replace(
        alpha=np.stack(
            [1j * np.diag([1.0, 1.0, -2.0]), 1j * np.diag([0.0, 1e-9, 0.0]), skew - skew.conj().T]
        ),
    )
    cases += [(diagonal, np.array([1.0, 0.0, 0.0])), (diagonal, np.array([1.0, 1.0, 0.0]))]
    for frame, t in cases:
        n = frame.alpha.shape[1]
        phi = rng.normal(size=n) + 1j * rng.normal(size=n)
        A = np.einsum("d,dij->ij", t, frame.alpha)
        want = np.stack(
            [scipy.linalg.expm_frechet(A, a, compute_expm=False) @ phi for a in frame.alpha]
        )
        got = unitarygauge._tangents(frame, skew_eigh(A), phi)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))


def test_orbit_climb_converges_below_rounding():
    # measured on a rough doublet field (sweep-rough seed 602, doublet field 1,
    # site (17, 17)): near the target the rounding of each step moves the
    # overlap by more than the Armijo gain of a converging Newton step, so the
    # climb backtracks on |s| instead, as the chart does
    with open("models/electroweak.model") as fh:
        bundle = parse_model_file(fh.read())
    frame = unitarygauge._build_frame(bundle.model.generators, bundle.model.vacuum, None)
    phi = np.array(
        [-1.2369512352161733 - 0.15013864946833777j, 1.346640666947669 + 1.1242892477152149j]
    )
    phi *= np.linalg.norm(frame.v0) / np.linalg.norm(phi)
    psi, U_acc, iterations = unitarygauge._group_normalize(frame, phi, UnitaryGaugeConfig())
    assert iterations == 5
    assert unitarygauge._defect_of(frame, psi) < 0.05 * UnitaryGaugeConfig().tol
    np.testing.assert_allclose(U_acc @ phi, psi, rtol=0, atol=1e-14)


def test_huge_newton_direction_does_not_overflow():
    # the chart Newton solve at this nearly singular Jacobian gives a
    # direction whose squared norm overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = solve_unitary_gauge_point(GS, V0, np.array([0.0, 9.4e-253 + 1j]), spec=SPEC)
        capped = unitarygauge._capped(np.array([1e200, -1e200]), 2.0)
    np.testing.assert_allclose(res.point, [0.0, 1.0], atol=1e-10)
    np.testing.assert_allclose(capped, [np.sqrt(2.0), -np.sqrt(2.0)])
    np.testing.assert_array_equal(unitarygauge._capped(np.array([np.inf, 1.0]), 2.0), 0.0)
