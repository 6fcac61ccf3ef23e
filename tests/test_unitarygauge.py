"""Unitary gauge solver tests.

Closed forms used below: with v0 = (0, w) and su(2)+u(1) generators at
couplings (g, gp), the fiber derivative at phi = (c, 0) is
(0, c*g*w/2, 0, 0), and the canonical transverse representative of any
phi is (0, |phi|) up to tolerance.
"""
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ssbspec.breaking import spectrum
from ssbspec.chiral import su2_irrep
from ssbspec.electroweak import ElectroweakParams, build_generators, build_model
from ssbspec import unitarygauge
from ssbspec.liecore import GeneratorSet
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


def test_twist_scan_lifts_when_log_start_fails(monkeypatch):
    # measured: the chart Newton stalls from t = 0, Gauss-Newton from the
    # broken part of log U_acc fails, and the stabilizer twist finds the
    # chart coefficients; the failed attempt counts toward the iterations
    phi = np.array(
        [0.9623332796875556 + 1.087589351073743j, -2.8423182230285127 + 0.1524980492210118j]
    )
    calls = _spy_gauss_newton(monkeypatch)
    climbs = []
    climb = unitarygauge._group_normalize
    monkeypatch.setattr(
        unitarygauge, "_group_normalize", lambda *a: climbs.append(climb(*a)) or climbs[-1]
    )
    res = solve_unitary_gauge_point(GS, V0, phi, t0=np.zeros(3))
    assert [ok for ok, _ in calls] == [False, True]
    spent = sum(used for _, used in calls)
    assert res.iterations == UnitaryGaugeConfig().max_iter + climbs[0][2] + spent
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
