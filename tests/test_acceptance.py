"""Acceptance gate: one test per shipped guarantee, tolerances pinned.

Each test is self-contained and checks a single headline property of the
package against an independent oracle (closed forms, finite differences,
or direct reconstruction), so `pytest -v tests/test_acceptance.py` reads
as a pass/fail checklist.
"""
import io
import math
import time

import numpy as np

from ssbspec.breaking import mass_form, orbit_frame, spectrum
from ssbspec.cli import main
from ssbspec.electroweak import ElectroweakParams, build_generators, build_model
from ssbspec.higgsmodel import QuarticPotential, find_vacuum
from ssbspec.latticefields import (
    Grid,
    convergence_orders,
    field_strength,
    gauge_transform_gauge,
    gauge_transform_matter,
    higgs_density,
    klein_gordon_density,
    quadratic_expansion_check,
    smooth_gauge_field,
    smooth_multiplet_field,
    yang_mills_density,
)
from ssbspec.liecore import exponentiate, realify, unrealify
from ssbspec.modelfile import parse_document
from ssbspec.unitarygauge import (
    fiber_derivative,
    goldstone_vanish_check,
    solve_unitary_gauge_point,
)

TOL_SPECTRUM = 1e-9
TOL_MASS_FORM = 1e-12
TOL_ANGLE = 1e-8
TOL_STABILIZER_ACTION = 1e-12
TOL_RADIUS = 1e-9
TOL_DERIVATIVE_FD = 1e-6
TOL_ZERO_EIGENVALUE = 1e-8
ORDER_BAND = (1.9, 2.1)
TOL_INVARIANCE = 1e-10
RATIO_BAND = (6.5, 9.5)
TOL_CROSS_TERM = 1e-10
TOL_GOLDSTONE = 1e-10
TOL_NORM_PRESERVED = 1e-12
TOL_YUKAWA = 1e-12

PARAMS = ElectroweakParams(g=2.0, gp=1.0, mu=2.0, lam=1.0)


def test_01_electroweak_spectrum_matches_closed_forms():
    start = time.perf_counter()
    model = build_model(PARAMS)
    result = spectrum(model)

    # independent oracle: Gram matrix of generator images, eigendecomposed here
    acted = model.generators.matrices @ model.vacuum
    gram = np.real(np.conj(acted) @ acted.T)
    oracle = np.sort(np.sqrt(2.0 * np.clip(np.linalg.eigvalsh(gram), 0.0, None)))[::-1]

    expected = np.array([math.sqrt(2.5), math.sqrt(2.0), math.sqrt(2.0), 0.0])
    assert np.max(np.abs(result.boson_masses - expected)) < TOL_SPECTRUM
    assert np.max(np.abs(oracle - expected)) < TOL_SPECTRUM
    assert result.goldstone_count == 3
    assert result.higgs_masses.shape == (1,)
    assert abs(result.higgs_masses[0] - math.sqrt(2.0)) < TOL_SPECTRUM
    assert time.perf_counter() - start < 1.0


def test_02_mass_form_matrix_matches_closed_form():
    rng = np.random.default_rng(12)
    for _ in range(20):
        g = float(rng.uniform(0.3, 3.0))
        gp = float(rng.uniform(0.3, 3.0))
        norm = float(rng.uniform(0.3, 2.0))
        gs = build_generators(g, gp)
        v0 = np.array([0.0, norm], dtype=complex)
        closed = (norm * norm / 4.0) * np.array(
            [
                [g * g, 0.0, 0.0, 0.0],
                [0.0, g * g, 0.0, 0.0],
                [0.0, 0.0, g * g, -g * gp],
                [0.0, 0.0, -g * gp, gp * gp],
            ]
        )
        assert np.max(np.abs(mass_form(gs, v0) - closed)) < TOL_MASS_FORM


def test_03_stabilizer_is_the_photon_direction():
    g, gp = PARAMS.g, PARAMS.gp
    model = build_model(PARAMS)
    split = spectrum(model)
    assert split.unbroken.shape == (1, 4)

    # angle via the orthogonal residual; acos of the overlap loses half the digits
    target = np.array([0.0, 0.0, gp, g]) / math.hypot(g, gp)
    u = split.unbroken[0] / np.linalg.norm(split.unbroken[0])
    residual = u - (u @ target) * target
    assert math.asin(min(1.0, float(np.linalg.norm(residual)))) < TOL_ANGLE

    photon = (gp * model.generators.matrices[2] + g * model.generators.matrices[3]) / math.hypot(g, gp)
    assert np.linalg.norm(photon @ model.vacuum) < TOL_STABILIZER_ACTION


def test_04_vacuum_lies_on_the_sphere_for_random_couplings():
    rng = np.random.default_rng(4)
    for _ in range(50):
        mu, lam = rng.uniform(0.01, 10.0, size=2)
        v = find_vacuum(QuarticPotential(mu, lam), 2)
        assert abs(np.linalg.norm(v) - math.sqrt(mu / (2.0 * lam))) <= TOL_RADIUS


def test_05_potential_derivatives_match_finite_differences():
    pot = QuarticPotential(mu=2.0, lam=1.0)
    rng = np.random.default_rng(5)
    h = 1e-5
    for _ in range(50):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        x = realify(v)
        grad = pot.gradient(v)
        hess = pot.hessian(v)
        fd_grad = np.empty_like(x)
        fd_hess = np.empty_like(hess)
        for k in range(x.size):
            e = np.zeros_like(x)
            e[k] = h
            fd_grad[k] = (pot.value(unrealify(x + e)) - pot.value(unrealify(x - e))) / (2 * h)
            fd_hess[:, k] = (pot.gradient(unrealify(x + e)) - pot.gradient(unrealify(x - e))) / (2 * h)
        assert np.linalg.norm(fd_grad - grad) <= TOL_DERIVATIVE_FD * max(1.0, np.linalg.norm(grad))
        assert np.linalg.norm(fd_hess - hess) <= TOL_DERIVATIVE_FD * max(1.0, np.linalg.norm(hess))

    model = build_model(PARAMS)
    eig = np.linalg.eigvalsh(pot.hessian(model.vacuum))
    assert int(np.sum(np.abs(eig) < TOL_ZERO_EIGENVALUE)) == 3


def test_06_discrete_gauge_covariance_is_second_order():
    start = time.perf_counter()
    gs = build_generators(PARAMS.g, PARAMS.gp)
    grid = Grid(dim=2, shape=(16, 16), spacing=1.0 / 16.0)

    derivative, strength = convergence_orders(gs, grid, seed=0, refinements=2)
    for order in (*derivative.orders, *strength.orders):
        assert ORDER_BAND[0] <= order <= ORDER_BAND[1]

    # constant transforms must leave every density untouched
    model = build_model(PARAMS)
    rng = np.random.default_rng(6)
    one = exponentiate(gs, 0.3 * rng.standard_normal(gs.r))
    sigma = np.broadcast_to(one, grid.shape + one.shape).copy()
    a = smooth_gauge_field(grid, gs.r, seed=2)
    psi = smooth_multiplet_field(grid, gs.n, seed=3)
    phi = model.vacuum + 0.3 * smooth_multiplet_field(grid, gs.n, seed=4)
    a_new = gauge_transform_gauge(gs, grid, sigma, a)
    psi_new = gauge_transform_matter(sigma, psi)
    phi_new = gauge_transform_matter(sigma, phi)
    gaps = [
        np.max(
            np.abs(
                yang_mills_density(grid, field_strength(gs, grid, a_new))
                - yang_mills_density(grid, field_strength(gs, grid, a))
            )
        ),
        np.max(
            np.abs(
                klein_gordon_density(gs, grid, a_new, psi_new, 1.0)
                - klein_gordon_density(gs, grid, a, psi, 1.0)
            )
        ),
        np.max(
            np.abs(
                higgs_density(gs, grid, a_new, phi_new, model.potential)
                - higgs_density(gs, grid, a, phi, model.potential)
            )
        ),
    ]
    assert max(gaps) < TOL_INVARIANCE
    assert time.perf_counter() - start < 30.0


def test_07_quadratic_model_remainder_is_cubic():
    model = build_model(PARAMS)
    spec = spectrum(model)
    check = quadratic_expansion_check(model, spec, eps=0.02, seed=0)
    assert RATIO_BAND[0] <= check.ratio <= RATIO_BAND[1]
    assert check.cross_term_max < TOL_CROSS_TERM


def test_08_unitary_gauge_solver_reaches_the_canonical_ray():
    model = build_model(PARAMS)
    spec = spectrum(model)
    gs, v0 = model.generators, model.vacuum
    rng = np.random.default_rng(8)
    for _ in range(100):
        phi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        res = solve_unitary_gauge_point(gs, v0, phi)
        norm = np.linalg.norm(phi)
        assert res.goldstone_defect < TOL_GOLDSTONE
        assert abs(np.linalg.norm(res.point) - norm) <= TOL_NORM_PRESERVED
        assert abs(res.point[0]) < 1e-9
        assert abs(res.point[1].imag) < 1e-9
        assert res.point[1].real > 0.0

    # orbit coordinates vanish exactly when the fiber derivative does:
    # on-slice points satisfy both, orbit-shifted points violate both
    transverse = spec.transverse_basis
    broken = orbit_frame(gs, v0).vt[: spec.goldstone_count]
    for k in range(500):
        w = rng.uniform(-0.4, 0.4, size=transverse.shape[0])
        phi = v0 + unrealify(w @ transverse)
        check = goldstone_vanish_check(gs, v0, phi, tol=TOL_GOLDSTONE)
        s_broken = broken @ fiber_derivative(gs, v0, phi)
        assert check.ok and np.max(np.abs(s_broken)) < TOL_GOLDSTONE
    for k in range(500):
        xi = rng.uniform(0.05, 0.5, size=spec.orbit_basis.shape[0]) * rng.choice([-1.0, 1.0], size=spec.orbit_basis.shape[0])
        phi = v0 + unrealify(xi @ spec.orbit_basis)
        check = goldstone_vanish_check(gs, v0, phi, tol=TOL_GOLDSTONE)
        s_broken = broken @ fiber_derivative(gs, v0, phi)
        assert not check.ok and np.max(np.abs(s_broken)) > 1e-6


def test_10_yukawa_invariance_and_fermion_masses():
    out = io.StringIO()
    assert main(["yukawa", "--model", "models/electroweak.model", "--format", "machine"], stdout=out) == 0
    report = parse_document(out.getvalue())["yukawa"]
    assert report["invariance_defect"] < TOL_YUKAWA

    # closed forms: the file's g_y = 1/2 times |v0|, on the electron row only
    g_y = 0.5
    norm = math.sqrt(PARAMS.mu / (2.0 * PARAMS.lam))
    masses = np.array(report["mass_matrix"])
    assert abs(masses[1, 0] - norm * g_y) < TOL_YUKAWA  # electron row
    assert masses[0, 0] < TOL_YUKAWA  # neutrino row
    assert abs(report["dirac_mass"] - norm * g_y) < TOL_YUKAWA


def test_11_machine_reports_are_byte_identical():
    def capture(argv):
        out = io.StringIO()
        code = main(argv, stdout=out)
        assert code == 0
        return out.getvalue()

    argv = ["spectrum", "--model", "models/electroweak.model", "--format", "machine", "--seed", "7"]
    assert capture(argv) == capture(argv)
    argv = ["gauge-check", "--grid", "16", "--refine", "2", "--seed", "7", "--format", "machine"]
    assert capture(argv) == capture(argv)
