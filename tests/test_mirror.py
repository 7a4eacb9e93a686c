import math

import numpy as np
import pytest
from scipy.integrate import quad

from rindler_probe import core_math as cm
from rindler_probe import freefield as ff
from rindler_probe import mirror as mr
from rindler_probe import trajectories as tj


def test_scene_validation():
    mr.MirrorScene(xi=1.0, xi0=-0.9, alpha=0.0)
    with pytest.raises(ValueError):
        mr.MirrorScene(xi=1.0, xi0=-1.0, alpha=0.0)
    with pytest.raises(ValueError):
        mr.MirrorScene(xi=1.0, xi0=0.0, alpha=math.pi / 2)
    with pytest.raises(ValueError):
        mr.MirrorScene(xi=-1.0, xi0=0.0, alpha=0.0)
    assert mr.MirrorScene(xi=1.0, xi0=0.0, alpha=0.0).degenerate
    assert not mr.MirrorScene(xi=1.0, xi0=0.1, alpha=0.0).degenerate


def test_image_point_normal_incidence():
    scene = mr.MirrorScene(xi=1.3, xi0=0.4, alpha=0.0)
    img = mr.image_point(scene, 0.7)
    r = 1.3 * math.cosh(0.7 / 1.3)
    assert img[0] == 0.0 and img[1] == 0.0
    assert img[2] == pytest.approx(-(0.4 + r))


def test_image_point_mirror_symmetry():
    scene = mr.MirrorScene(xi=1.0, xi0=-0.3, alpha=0.5)
    for tau in (-1.2, 0.0, 0.8):
        pos = tj.evaluate(scene.trajectory(), tau).position
        img = mr.image_point(scene, tau)
        # reflection across z = 0: x, y match, z flips
        assert img[0] == pytest.approx(pos[0], rel=1e-14)
        assert img[1] == pos[1] == 0.0
        assert img[2] + pos[2] == pytest.approx(0.0, abs=1e-14)
        # separation is twice the distance to the plane
        assert np.linalg.norm(img - pos) == pytest.approx(2.0 * pos[2], rel=1e-14)


def test_image_interval_reproduces_quadratic_coefficients():
    # the printed image formula permutes components; the corrected one must
    # reproduce the quadratic in cosh(eta'/2) exactly:
    # |X^s(t1) - X(t2)|^2/c0^2 - dT^2 = -(4 xi^2/c0^2) (A y^2 + B y + C)
    rng = np.random.default_rng(7)
    for _ in range(50):
        alpha = rng.uniform(-1.4, 1.4)
        xi = rng.uniform(0.5, 2.0)
        alpha0 = rng.uniform(-math.cos(alpha) + 0.05, 2.0)
        scene = mr.MirrorScene(xi=xi, xi0=alpha0 * xi, alpha=alpha)
        eta = rng.uniform(-2.0, 2.0)
        etap = rng.uniform(-3.0, 3.0)
        tau1 = xi * (eta + etap / 2.0)
        tau2 = xi * (eta - etap / 2.0)
        x2 = tj.evaluate(scene.trajectory(), tau2).position
        img1 = mr.image_point(scene, tau1)
        dt = xi * (math.sinh(eta + etap / 2.0) - math.sinh(eta - etap / 2.0))
        lhs = np.sum((img1 - x2) ** 2) - dt**2
        coef = mr.abc_coefficients(scene, eta)
        y = math.cosh(etap / 2.0)
        rhs = -4.0 * xi**2 * (coef.A * y**2 + coef.B * y + coef.C)
        assert lhs == pytest.approx(rhs, rel=1e-11)


def test_abc_example_values():
    scene = mr.MirrorScene(xi=1.0, xi0=0.5, alpha=0.0)
    coef = mr.abc_coefficients(scene, 0.0)
    assert (coef.A, coef.B, coef.C) == (0.0, -1.0, -1.25)


def test_abc_admissibility_identity():
    # A + C + |B| collapses to -(cos a cosh eta - |a0|)^2, so the quadratic
    # stays admissible and reaches the boundary only where cosh eta = |a0|/cos a
    rng = np.random.default_rng(3)
    for _ in range(100):
        alpha = rng.uniform(-1.5, 1.5)
        alpha0 = rng.uniform(-math.cos(alpha) + 1e-3, 3.0)
        scene = mr.MirrorScene(xi=1.0, xi0=alpha0, alpha=alpha)
        eta = rng.uniform(-3.0, 3.0)
        coef = mr.abc_coefficients(scene, eta)
        gap = coef.A + coef.C + abs(coef.B)
        expected = -((math.cos(alpha) * math.cosh(eta) - abs(alpha0)) ** 2)
        assert gap == pytest.approx(expected, rel=1e-10, abs=1e-12)
        assert gap <= 1e-12


def test_mirror_autocorr_far_obstacle():
    far = mr.MirrorScene(xi=1.0, xi0=1e6, alpha=0.0)
    got = mr.mirror_autocorr(far, 1.0, 0.3, 1.1)
    assert got == pytest.approx(ff.rindler_autocorr(1.0, 1.0, 1.1), rel=1e-9)


def test_mirror_autocorr_even_in_tau():
    scene = mr.MirrorScene(xi=1.0, xi0=-0.4, alpha=0.6)
    assert mr.mirror_autocorr(scene, 1.0, 0.8, 1.1) == pytest.approx(
        mr.mirror_autocorr(scene, 1.0, -0.8, 1.1), rel=1e-13
    )
    with pytest.raises(ValueError):
        mr.mirror_autocorr(scene, 1.0, 0.0, 0.0)


def source_time_correlation(t, eps, f0=1.0):
    # time-domain correlation of the regularized |omega| spectrum
    return f0 / math.pi * (eps**2 - t**2) / (eps**2 + t**2) ** 2


def test_mirror_autocorr_matches_direction_integral():
    # independent path: (1/8 pi) int_-1^1 [F(v rho_f + dT) - F(v rho_im + dT)] dv
    scene = mr.MirrorScene(xi=1.0, xi0=0.3, alpha=0.4)
    eps = 0.05
    for eta in (0.0, 1.0, -1.0):
        for etap in (1.0, -1.0):
            tau, taup = eta, etap
            t1, t2 = tau + taup / 2.0, tau - taup / 2.0
            x1 = tj.evaluate(scene.trajectory(), t1).position
            x2 = tj.evaluate(scene.trajectory(), t2).position
            img1 = mr.image_point(scene, t1)
            dt = math.sinh(t1) - math.sinh(t2)
            rho_f = np.linalg.norm(x1 - x2)
            rho_im = np.linalg.norm(img1 - x2)

            def integrand(v):
                return source_time_correlation(v * rho_f + dt, eps) - source_time_correlation(
                    v * rho_im + dt, eps
                )

            direct, _ = quad(integrand, -1.0, 1.0, limit=800, epsabs=1e-13)
            direct /= 8.0 * math.pi
            closed = mr.mirror_autocorr_regularized(scene, 1.0, eps, tau, taup)
            assert closed == pytest.approx(direct, rel=1e-8)


def test_mirror_autocorr_regularized_eps_to_zero():
    scene = mr.MirrorScene(xi=1.0, xi0=-0.5, alpha=0.3)
    exact = mr.mirror_autocorr(scene, 1.0, 0.4, 1.3)
    approx = mr.mirror_autocorr_regularized(scene, 1.0, 1e-5, 0.4, 1.3)
    assert approx == pytest.approx(exact, rel=1e-6)


def test_correction_degenerate_scene_is_zero():
    scene = mr.MirrorScene(xi=1.0, xi0=0.0, alpha=0.0)
    nu = np.concatenate([[1e-3], np.linspace(0.01, 5.0, 101)])
    assert np.all(mr.correction_R(scene, 0.7, nu) == 0.0)
    assert mr.correction_R(scene, 0.0, 1.0) == 0.0


def test_correction_near_wall_normal():
    scene = mr.MirrorScene(xi=1.0, xi0=-0.999, alpha=0.0)
    nu = np.linspace(0.0, 3.0, 31)
    got = mr.correction_R(scene, 0.0, nu)
    target = 1.0 - 1.0 / (2.0 * np.cosh(np.pi * nu) ** 2)
    assert np.max(np.abs(got - target) / target) <= 0.01


def test_correction_branch_continuity():
    # internal general-branch evaluation at alpha = 1e-8 against the normal
    # branch at alpha = 0 (the public dispatch switches at 1e-4)
    alpha0, eta, nu = -0.5, 1.0, 2.0
    a = math.sin(1e-8) ** 2
    b = -2.0 * alpha0 * math.cos(1e-8) * math.cosh(eta)
    c = -1.0 - alpha0**2 - math.cos(1e-8) ** 2 * math.sinh(eta) ** 2
    general = float(mr._correction(cm._terms_general(a, b, c), nu))
    normal = float(mr._correction(cm._terms_normal(math.cosh(eta), alpha0), nu))
    assert general == pytest.approx(normal, abs=1e-6)
    # and across the public dispatch threshold
    lo = mr.correction_R(mr.MirrorScene(xi=1.0, xi0=-0.5, alpha=0.99e-4), eta, nu)
    hi = mr.correction_R(mr.MirrorScene(xi=1.0, xi0=-0.5, alpha=1.01e-4), eta, nu)
    assert lo == pytest.approx(hi, abs=1e-6)


def test_correction_parity_and_sign_symmetry():
    scene_p = mr.MirrorScene(xi=1.0, xi0=-0.4, alpha=0.7)
    scene_m = mr.MirrorScene(xi=1.0, xi0=-0.4, alpha=-0.7)
    eta = np.linspace(-2.5, 2.5, 11)
    nu = np.linspace(0.1, 4.0, 9)
    r = mr.correction_R(scene_p, eta[:, None], nu[None, :])
    r_eta = mr.correction_R(scene_p, -eta[:, None], nu[None, :])
    r_nu = mr.correction_R(scene_p, eta[:, None], -nu[None, :])
    r_sign = mr.correction_R(scene_m, eta[:, None], nu[None, :])
    assert np.array_equal(r, r_eta)
    assert np.array_equal(r, r_nu)
    assert np.array_equal(r, r_sign)


def test_normal_incidence_two_printed_forms_agree():
    # the argcosh/sqrt form of the coefficients against the log/cosh form
    for alpha0 in (-0.9, -0.45, -0.1):
        scene = mr.MirrorScene(xi=1.0, xi0=alpha0, alpha=0.0)
        eta = np.linspace(-3.0, 3.0, 25)[:, None]
        nu = np.linspace(0.1, 4.0, 21)[None, :]
        coef_b = -2.0 * alpha0 * np.cosh(eta)
        coef_c = -1.0 - alpha0**2 - np.sinh(eta) ** 2
        q = np.arccosh(np.abs(coef_c / coef_b))
        s = np.sqrt(coef_c**2 - coef_b**2)
        pref = np.tanh(np.pi * nu) / np.tanh(2.0 * np.pi * nu)
        eq30 = pref * np.sin(2.0 * nu * q) / (nu * s)
        eq31 = mr.correction_R(scene, eta, nu)
        assert np.max(np.abs(eq30 - eq31)) <= 1e-10
        # the two identities used to connect them
        assert np.allclose(q, np.abs(np.log(np.cosh(eta) / abs(alpha0))), rtol=1e-12)
        assert np.allclose(s, np.abs(np.cosh(eta) ** 2 - alpha0**2), rtol=1e-12)


def test_correction_decays_far_from_obstacle():
    for alpha0 in (-0.9, -0.3, 0.5, 2.0):
        scene = mr.MirrorScene(xi=1.0, xi0=alpha0, alpha=0.0)
        for nu in (0.5, 1.0, 2.0):
            r0 = abs(mr.correction_R(scene, 0.0, nu))
            r5 = abs(mr.correction_R(scene, 5.0, nu))
            assert r5 <= 1e-2 * r0


def test_correction_exceeds_one_near_wall():
    scene = mr.MirrorScene(xi=1.0, xi0=-0.5, alpha=0.0)
    eta = np.linspace(-1.0, 1.0, 41)
    nu = np.linspace(0.1, 2.0, 41)
    r = mr.correction_R(scene, eta[:, None], nu[None, :])
    assert np.max(r) > 1.0


def test_mirror_wigner_reduces_far_away():
    scene = mr.MirrorScene(xi=1.0, xi0=1000.0, alpha=0.0)
    w = mr.mirror_wigner(scene, 1.0, 0.0, 1.3)
    assert w == pytest.approx(ff.rindler_wigner(1.0, 1.0, 1.3), rel=1e-4)
    # far along the trajectory the correction dies out
    scene2 = mr.MirrorScene(xi=1.0, xi0=-0.5, alpha=0.3)
    w_far = mr.mirror_wigner(scene2, 1.0, 8.0, 1.3)
    assert w_far == pytest.approx(ff.rindler_wigner(1.0, 1.0, 1.3), rel=1e-3)


def test_mirror_wigner_negative_values_possible():
    scene = mr.MirrorScene(xi=1.0, xi0=-0.5, alpha=0.0)
    w = mr.mirror_wigner(scene, 1.0, 0.0, 0.5)
    assert w < 0.0


def test_near_wall_limit_values():
    assert mr.near_wall_limit(0.0, 0.0) == pytest.approx(0.5)
    assert mr.near_wall_limit(0.0, 5.0) == pytest.approx(1.0, abs=1e-12)
    # oblique limit against the exact correction at grazing offset
    alpha = math.pi / 4
    scene = mr.MirrorScene(xi=1.0, xi0=-math.cos(alpha) + 1e-4, alpha=alpha)
    for nu in (0.5, 1.0, 2.0):
        limit = mr.near_wall_limit(alpha, nu)
        exact = mr.correction_R(scene, 0.0, nu)
        assert abs(limit - exact) / abs(exact) <= 0.02


def test_stationary_mirror_spectrum():
    assert mr.stationary_mirror_spectrum(1.0, 1.0, 0.0) == 0.0
    omega = math.pi / 2.0  # makes 2 omega d / c0 = pi at d = 1
    assert mr.stationary_mirror_spectrum(1.0, 1.0, omega) == pytest.approx(
        omega / (4 * math.pi), rel=1e-12
    )
    # consecutive zeros of the oscillation at omega = k pi c0 / (2 d)
    d = 0.7
    for k in (1, 2, 3):
        w_at = mr.stationary_mirror_spectrum(d, 1.0, k * math.pi / (2 * d))
        base = k * math.pi / (2 * d) / (4 * math.pi)
        assert w_at == pytest.approx(base, rel=1e-12)
    with pytest.raises(ValueError):
        mr.stationary_mirror_spectrum(0.0, 1.0, 1.0)


def test_scene_serde():
    scene = mr.MirrorScene(xi=1.2, xi0=-0.3, alpha=0.4, c0=2.0)
    doc = mr.scene_to_dict(scene)
    assert mr.scene_from_dict(doc) == scene
    with pytest.raises(ValueError):
        mr.scene_from_dict({"xi": 1.0, "xi0": 0.0, "alpha": 0.0, "bogus": 1})
    with pytest.raises(ValueError):
        mr.scene_from_dict({"xi": 1.0})


def test_grazing_boundary_scene_finite():
    # |alpha0| = cos(alpha) touches the admissibility boundary at eta = 0;
    # R takes its removable limit there instead of NaN
    scene = mr.MirrorScene(xi=1.0, xi0=1.0, alpha=0.0)
    val = mr.correction_R(scene, 0.0, 1.0)
    assert math.isfinite(val)
    # limit: prefactor h(nu), ratio -> 1/alpha0^2 = 1
    assert val == pytest.approx(1.0 / (2.0 * math.cosh(math.pi) ** 2), rel=1e-6)


LATTICE_ETA = np.linspace(-1.0, 3.0, 17)  # not symmetric about 0; holds 0 and +-0.5
LATTICE_NU = np.concatenate([[0.0], np.linspace(0.05, 4.0, 23)])


@pytest.mark.parametrize("alpha", [0.0, mr.ALPHA_SWITCH / 2, 1e-3, math.pi / 4, 1.2])
def test_correction_lattice_matches_correction_R(alpha):
    ca = math.cos(alpha)
    # near the lower bound, both signs, 0, and two grazing offsets where
    # A + C + |B| = 0 on a grid row (eta = 0 and eta = +-0.5)
    alpha0s = np.array([-ca + 1e-3, -0.5 * ca, 0.0, 0.3, ca, ca * math.cosh(0.5), 2.0, 7.0])
    lattice = mr.correction_lattice(alpha, alpha0s, LATTICE_ETA, LATTICE_NU)
    assert lattice.shape == (alpha0s.size, LATTICE_ETA.size, LATTICE_NU.size)
    assert np.all(np.isfinite(lattice))
    for row, alpha0 in zip(lattice, alpha0s):
        scene = mr.MirrorScene(xi=1.0, xi0=alpha0, alpha=alpha)
        ref = mr.correction_R(scene, LATTICE_ETA[:, None], LATTICE_NU[None, :])
        assert np.max(np.abs(row - ref)) <= 1e-13 * np.max(np.abs(ref))
    if alpha < mr.ALPHA_SWITCH:
        assert np.all(lattice[2] == 0.0)  # the degenerate scene alpha = alpha0 = 0


@pytest.mark.parametrize("alpha", [0.0, 1e-3, math.pi / 4, 1.2])
def test_correction_lattice_matches_psi_closed(alpha):
    # independent path: R = -tanh(pi nu)/(2 pi nu) Psi(2 nu; A, B(eta), C(eta))
    alpha0s = np.array([-0.5 * math.cos(alpha), 0.3, 2.0])
    eta = np.array([-0.75, 0.0, 1.25, 3.0])
    nu = np.array([0.05, 0.7, 2.5])
    lattice = mr.correction_lattice(alpha, alpha0s, eta, nu)
    for i, alpha0 in enumerate(alpha0s):
        scene = mr.MirrorScene(xi=1.0, xi0=alpha0, alpha=alpha)
        for j, e in enumerate(eta):
            coef = mr.abc_coefficients(scene, e)
            p = cm.PsiParams(coef.A, coef.B, coef.C)
            for k, v in enumerate(nu):
                ref = -math.tanh(math.pi * v) / (2.0 * math.pi * v) * cm.psi_closed(2.0 * v, p).value
                assert lattice[i, j, k] == pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("alpha", [0.0, 1e-3, math.pi / 4, 1.2])
def test_correction_lattice_matches_psi_quadrature(alpha):
    # R against the PV quadrature oracle, which shares no code with the closed
    # form; no (alpha0, eta) below sits on a grazing row A + C + |B| = 0
    alpha0s = np.array([-0.5 * math.cos(alpha), 0.3, 2.0])
    eta = np.array([-0.6, 0.0, 0.8])
    nu = np.array([0.05, 0.7, 2.5])
    lattice = mr.correction_lattice(alpha, alpha0s, eta, nu)
    for i, alpha0 in enumerate(alpha0s):
        scene = mr.MirrorScene(xi=1.0, xi0=alpha0, alpha=alpha)
        for j, e in enumerate(eta):
            coef = mr.abc_coefficients(scene, e)
            p = cm.PsiParams(coef.A, coef.B, coef.C)
            for k, v in enumerate(nu):
                ref = -math.tanh(math.pi * v) / (2.0 * math.pi * v) * cm.psi_quadrature(2.0 * v, p)
                assert lattice[i, j, k] == pytest.approx(ref, rel=1e-8, abs=0.0)


def test_correction_lattice_rejects_inadmissible_row():
    with pytest.raises(ValueError):
        mr.correction_lattice(0.5, [0.0, -math.cos(0.5)], LATTICE_ETA, LATTICE_NU)
    with pytest.raises(ValueError):
        mr.correction_lattice(math.pi / 2, [0.0], LATTICE_ETA, LATTICE_NU)
