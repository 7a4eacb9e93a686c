"""Validation suites: each acceptance-level check as a callable returning
structured pass/fail results.

Every suite returns {"suite": name, "passed": bool, "checks": [...]} where a
check is {"name", "passed", "value", "threshold", "detail"}.  The CLI prints
these as a table and exits nonzero on failure; the test suite asserts on
them directly.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import freefield as ff
from . import localize as lc
from . import mirror as mr
from . import montecarlo as mc
from . import trajectories as tj
from .core_math import PsiParams, QuadratureConfig, hk_surface_quadrature, hk_residual, psi_closed, psi_quadrature, sinc
from .grids import window_function

__all__ = ["SUITES", "run_suite", "run_suites"]


def _check(name, value, threshold, passed=None, detail=""):
    if passed is None:
        passed = bool(value <= threshold)
    return {
        "name": name,
        "passed": bool(passed),
        "value": float(value),
        "threshold": float(threshold),
        "detail": detail,
    }


def _suite(name, checks):
    return {"suite": name, "passed": all(c["passed"] for c in checks), "checks": checks}


# ---------------------------------------------------------------------------
# psi oracle


def psi_parameter_strata(per_stratum: int = 12):
    """Stratified admissible (v, a, b, c) tuples covering all closed-form cases."""
    tuples = []
    v_values = [0.1, 0.7, 1.5, 3.0, 6.0]
    a_values = [0.05, 0.35, 0.9]
    rng = np.random.default_rng(20260808)
    for v in v_values:
        for a in a_values:
            for sign in (-1.0, 1.0):
                for _ in range(per_stratum // 2):
                    b = sign * rng.uniform(0.1, 1.5)
                    c = -1.0 - rng.uniform(0.2, 3.0) - a - abs(b)
                    tuples.append((v, a, b, c))
        # a = 0 strata, both signs of b, and b = 0 strata
        for sign in (-1.0, 1.0):
            for _ in range(2):
                b = sign * rng.uniform(0.3, 1.6)
                c = -1.0 - rng.uniform(0.2, 3.0) - abs(b)
                tuples.append((v, 0.0, b, c))
        for _ in range(3):
            a = rng.uniform(0.1, 0.8)
            tuples.append((v, a, 0.0, -1.0 - rng.uniform(0.2, 3.0) - a))
    return tuples


def suite_psi_oracle():
    tuples = psi_parameter_strata()
    q = QuadratureConfig()
    t0 = time.monotonic()
    worst = 0.0
    for (v, a, b, c) in tuples:
        p = PsiParams(a, b, c)
        closed = psi_closed(v, p).value
        oracle = psi_quadrature(v, p, q)
        worst = max(worst, abs(closed - oracle) / abs(oracle))
    elapsed = time.monotonic() - t0

    # case-2 variant comparison: adopted argcosh(|c/b|) vs printed argcosh(sqrt(c/b))
    v, b, c = 1.5, -1.0, -2.0
    oracle = psi_quadrature(v, PsiParams(0.0, b, c), q)
    adopted = -2.0 * math.pi * math.sin(v * math.acosh(abs(c / b))) / (
        math.sqrt(c * c - b * b) * math.sinh(math.pi * v)
    )
    printed = -2.0 * math.pi * math.sin(v * math.acosh(math.sqrt(c / b))) / (
        math.sqrt(c * c - b * b) * math.sinh(math.pi * v)
    )
    res_adopted = abs(adopted - oracle) / abs(oracle)
    res_printed = abs(printed - oracle) / abs(oracle)

    checks = [
        _check(
            "closed form vs quadrature oracle",
            worst,
            1e-7,
            detail=f"{len(tuples)} stratified tuples, {elapsed:.1f}s",
        ),
        _check("oracle runtime [s]", elapsed, 10.0),
        _check(
            "argcosh(|c/b|) variant residual",
            res_adopted,
            1e-7,
            detail=f"printed sqrt variant residual: {res_printed:.3e} (rejected)",
        ),
        _check(
            "printed sqrt(c/b) variant fails",
            res_printed,
            1e-3,
            passed=res_printed > 1e-3,
            detail="the misprint is numerically distinguishable",
        ),
    ]
    return _suite("psi-oracle", checks)


# ---------------------------------------------------------------------------
# fourier consistency (Planck spectrum)


def suite_fourier_consistency():
    span, n = 40.0, 2**20
    lags = ff.fft_lag_grid(span, n)

    def transform(eps, eta):
        c = ff.rindler_autocorr_regularized(1.0, 1.0, eps, eta, lags)
        return ff.wigner_transform_fft(c, span)

    om, w_1e3 = transform(1e-3, 0.0)
    sel = (om >= 0.1) & (om <= 5.0)
    ideal = ff.rindler_wigner(1.0, 1.0, om[sel])
    dev_stated = np.max(np.abs(w_1e3[sel] - ideal) / ideal)

    nu = np.linspace(1e-3, 20.0, 4001)
    forms = np.max(
        np.abs(ff.rindler_wigner(1.0, 1.0, nu) - ff.rindler_wigner_planck_form(1.0, 1.0, nu))
        / ff.rindler_wigner(1.0, 1.0, nu)
    )

    dev_reg = 0.0
    for eta in (0.0, 1.0):
        om2, w2 = transform(1e-3, eta)
        target = ff.rindler_wigner_regularized(1.0, 1.0, 1e-3, eta, om2[sel])
        dev_reg = max(dev_reg, float(np.max(np.abs(w2[sel] - target) / target)))

    _, w_5e4 = transform(5e-4, 0.0)
    extrapolated = 2.0 * w_5e4[sel] - w_1e3[sel]
    dev_extrap = np.max(np.abs(extrapolated - ideal) / ideal)

    checks = [
        _check(
            "FFT(eps=1e-3) vs ideal Planck form",
            dev_stated,
            1e-4,
            detail="known red: the regularized spectrum differs from the ideal one "
            f"by an O(eps) source-damping bias (measured {dev_stated:.2e}); "
            f"the eps->0 extrapolation below isolates it",
        ),
        _check("printed spectral forms agree", forms, 1e-12),
        _check("FFT vs regularized form (same eps)", dev_reg, 1e-3),
        _check("eps->0 extrapolated FFT vs ideal form", dev_extrap, 1e-4),
    ]
    return _suite("fourier-consistency", checks)


# ---------------------------------------------------------------------------
# Helmholtz-Kirchhoff


def suite_hk():
    x1 = np.array([0.2, -0.1, 0.3])
    x2 = x1 + np.array([1.0, 0.0, 0.0])
    omega, c0 = 2.0, 1.0
    levels = (100.0, 200.0, 400.0)
    res200 = hk_residual(omega, x1, x2, 200.0, 100_000, c0, seed=101)

    lhs = omega / (4.0 * math.pi * c0) * sinc(omega * 1.0 / c0)
    residuals = []
    for L in levels:
        q_avg = np.mean(
            [hk_surface_quadrature(omega, x1, x2, L, 4_000_000, c0, seed=7000 + s) for s in range(4)]
        )
        residuals.append(abs(lhs - (omega / c0) * q_avg) / abs(lhs))
    slope = np.polyfit(np.log(levels), np.log(residuals), 1)[0]

    det_residuals = []
    for L in levels:
        q = hk_surface_quadrature(omega, x1, x2, L, 400_000, c0, lattice=True)
        det_residuals.append(abs(lhs - (omega / c0) * q) / abs(lhs))
    det_slope = np.polyfit(np.log(levels), np.log(det_residuals), 1)[0]
    monotone = det_residuals[0] > det_residuals[1] > det_residuals[2]

    checks = [
        _check("residual at L=200 sep, N=1e5", res200, 0.02),
        _check(
            "random-quadrature decay slope in [-1.4, -0.6]",
            slope,
            -0.6,
            passed=-1.4 <= slope <= -0.6,
            detail="known red: the deterministic finite-L residual decays like 1/L^2 "
            "(phase corrections cancel in |G|^2) and here sits far below the sampling "
            f"noise floor; residuals {['%.2e' % r for r in residuals]}",
        ),
        _check(
            "noise-free decay exponent is -2",
            det_slope,
            -1.5,
            passed=-2.5 <= det_slope <= -1.5,
            detail=f"lattice-quadrature residuals {['%.2e' % r for r in det_residuals]}, "
            f"slope {det_slope:.3f}",
        ),
        _check("monotone decrease in L (noise-free)", 0.0, 1.0, passed=monotone),
    ]
    return _suite("hk", checks)


# ---------------------------------------------------------------------------
# stationarity (trajectory diagnostics)


def suite_stationarity():
    tau_grid = np.linspace(-3.0, 3.0, 31)
    taup_grid = np.linspace(0.1, 3.0, 14)
    stationary_specs = [
        tj.Stationary(),
        tj.Inertial(0.4),
        tj.Rindler(1.0),
        tj.ObliqueRindler(1.0, -0.5, math.pi / 4),
        tj.Circular(1.5, 2.0),
        tj.HelicoidConstant(1.3, 2.0, 0.4),
        tj.HelicoidAccelerated(0.5, 1.0, 3.0),
    ]
    worst_stat = max(tj.stationarity_defect(s, tau_grid, taup_grid) for s in stationary_specs)
    quad_defect = tj.stationarity_defect(tj.TestQuadratic(0.5), tau_grid, taup_grid)
    worst_proper = max(tj.proper_time_defect(s, tau_grid) for s in stationary_specs)

    checks = [
        _check("stationarity defect (stationary family)", worst_stat, 1e-10),
        _check(
            "quadratic control defect >= 1e-3",
            quad_defect,
            1e-3,
            passed=quad_defect >= 1e-3,
            detail=f"measured {quad_defect:.3e}",
        ),
        _check("proper-time defect (analytic variants)", worst_proper, 1e-8),
    ]
    return _suite("stationarity", checks)


# ---------------------------------------------------------------------------
# Monte-Carlo Planck spectrum


def montecarlo_planck_config():
    spectrum = ff.SourceSpectrum(f0=1.0, eps=0.05)
    cfg = mc.EstimatorConfig(
        m_realizations=2000,
        tau_grid=np.array([-1.0, 0.0, 1.0]),
        taup_grid=np.arange(-200, 201) * 0.05,
        window="gaussian",
        t_c=2.5,
        seed=20260808,
    )
    omegas = np.linspace(0.5, 3.0, 26)
    return spectrum, cfg, omegas


def suite_montecarlo_planck():
    spectrum, cfg, omegas = montecarlo_planck_config()
    n_waves = 4096
    chi = window_function(cfg.window, cfg.t_c)(cfg.taup_grid)

    t0 = time.monotonic()

    def identity(prod):
        return prod

    def to_wigner(prod):
        return ff.windowed_dft(prod, cfg.taup_grid, chi, omegas)

    def to_diffs(prod):
        w = ff.windowed_dft(prod, cfg.taup_grid, chi, omegas)
        return np.vstack([w[1] - w[0], w[2] - w[1], w[2] - w[0]])

    (c_res, w_res, d_res) = mc._accumulate(
        spectrum, tj.Rindler(1.0), cfg, n_waves, False, 1.0, [identity, to_wigner, to_diffs]
    )
    elapsed = time.monotonic() - t0
    c_mean, c_se = c_res
    w_mean, w_se = w_res
    d_mean, d_se = d_res

    corr_target = np.vstack(
        [
            ff.rindler_autocorr_regularized(1.0, 1.0, spectrum.eps, tau, cfg.taup_grid)
            for tau in cfg.tau_grid
        ]
    )
    corr_cover = np.mean(np.abs(c_mean - corr_target) <= 3.0 * c_se)

    # target: analytic regularized autocorrelation through the same window/lags
    target_rows = [
        ff.windowed_dft(
            ff.rindler_autocorr_regularized(1.0, 1.0, spectrum.eps, tau, cfg.taup_grid),
            cfg.taup_grid,
            chi,
            omegas,
        )
        for tau in cfg.tau_grid
    ]
    target = np.vstack(target_rows)

    cover = np.mean(np.abs(w_mean - target) <= 3.0 * w_se)
    flat_cover = np.mean(np.abs(d_mean) <= 3.0 * d_se)

    # lag-averaged spectrum-shape check on the near-stationary span |tau| <= 1
    # (the regularized record is genuinely non-stationary beyond |eta| ~
    # ln(1/(eps nu)); lags at 0.0125 keep the eps e^-|eta| peak alias-free)
    shape_cfg = mc.EstimatorConfig(
        m_realizations=3000,
        tau_grid=np.arange(-40, 41) * 0.025,
        taup_grid=np.arange(-560, 561) * 0.0125,
        window="gaussian",
        t_c=2.0,
        seed=613,
    )
    chi_s = window_function(shape_cfg.window, shape_cfg.t_c)(shape_cfg.taup_grid)

    def lag_averaged(prod):
        return ff.windowed_dft(prod.mean(axis=0), shape_cfg.taup_grid, chi_s, omegas)

    ((shape_mean, _),) = mc._accumulate(
        spectrum, tj.Rindler(1.0), shape_cfg, n_waves, False, 1.0, [lag_averaged]
    )
    rows = np.vstack(
        [
            ff.windowed_dft(
                ff.rindler_autocorr_regularized(1.0, 1.0, spectrum.eps, tau, shape_cfg.taup_grid),
                shape_cfg.taup_grid,
                chi_s,
                omegas,
            )
            for tau in shape_cfg.tau_grid
        ]
    )
    shape_target = rows.mean(axis=0)  # exact expectation of the estimator
    eta0_target = ff.windowed_dft(
        ff.rindler_autocorr_regularized(1.0, 1.0, spectrum.eps, 0.0, shape_cfg.taup_grid),
        shape_cfg.taup_grid,
        chi_s,
        omegas,
    )
    rel_dev = (shape_mean - shape_target) / shape_target
    shape_rms = float(np.sqrt(np.mean(rel_dev**2)))
    shape_max = float(np.max(np.abs(rel_dev)))
    bias = float(np.max(np.abs(shape_target - eta0_target) / eta0_target))
    elapsed_total = time.monotonic() - t0

    checks = [
        _check(
            "autocorr 3-SE coverage vs regularized form",
            0.95,
            1.0,
            passed=corr_cover >= 0.95,
            detail=f"coverage {corr_cover:.1%} over {c_mean.size} lag-grid points",
        ),
        _check(
            "3-SE coverage vs windowed regularized form",
            0.95,
            1.0,
            passed=cover >= 0.95,
            detail=f"coverage {cover:.1%} over {w_mean.size} grid points",
        ),
        _check(
            "tau-flatness within 3 SE",
            0.95,
            1.0,
            passed=flat_cover >= 0.95,
            detail=f"coverage {flat_cover:.1%} over pairwise differences",
        ),
        _check(
            "lag-averaged spectrum shape, band RMS vs windowed form",
            shape_rms,
            0.05,
            detail=f"max pointwise dev {shape_max:.3f}; nonstationarity of the "
            f"regularized record shifts the |tau|<=1 average by {bias:.3f} "
            "relative to the eta=0 windowed form",
        ),
        _check("criterion-3 runtime [s]", elapsed, 600.0, detail=f"full suite {elapsed_total:.0f}s"),
    ]
    return _suite("montecarlo-planck", checks)


# ---------------------------------------------------------------------------
# mirror master oracle and limits


def mirror_reference_scenes():
    """Admissible subset of the tilt/offset test lattice."""
    scenes = []
    for alpha in (0.0, math.pi / 4, 1.2):
        for alpha0 in (-0.9, -0.5, 0.3, 2.0):
            if alpha0 > -math.cos(alpha):
                scenes.append(mr.MirrorScene(xi=1.0, xi0=alpha0, alpha=alpha))
    return scenes


def suite_mirror_oracle():
    span, n, eps = 20.0, 2**22, 1e-4
    lags = ff.fft_lag_grid(span, n)
    worst = 0.0
    worst_at = None
    for scene in mirror_reference_scenes():
        for eta in (0.0, 1.0, -1.0):
            corr = mr.mirror_autocorr_regularized(scene, 1.0, eps, eta, lags)
            om, w = ff.wigner_transform_fft(corr, span)
            sel = (om >= 0.2) & (om <= 3.0)
            w0 = ff.rindler_wigner(1.0, 1.0, om[sel])
            r = mr.correction_R(scene, eta, om[sel])
            dev = float(np.max(np.abs(w[sel] - w0 * (1.0 - r)) / w0))
            if dev > worst:
                worst, worst_at = dev, (scene.alpha, scene.alpha0, eta)

    nu = np.linspace(0.0, 3.0, 31)
    near0 = mr.correction_R(mr.MirrorScene(xi=1.0, xi0=-0.999, alpha=0.0), 0.0, nu)
    limit0 = mr.near_wall_limit(0.0, nu)
    dev_normal = np.max(np.abs(near0 - limit0) / np.abs(limit0))

    alpha = math.pi / 4
    sc_obl = mr.MirrorScene(xi=1.0, xi0=-math.cos(alpha) + 1e-4, alpha=alpha)
    r_obl = mr.correction_R(sc_obl, 0.0, nu)
    lim_obl = mr.near_wall_limit(alpha, nu)
    dev_oblique = np.max(np.abs(r_obl - lim_obl) / np.abs(lim_obl))

    nu_r = np.concatenate([[1e-3], np.linspace(0.01, 5.0, 200)])
    r_deg = mr.correction_R(mr.MirrorScene(xi=1.0, xi0=0.0, alpha=0.0), 0.7, nu_r)
    rovelli = np.max(np.abs(np.atleast_1d(r_deg)))

    checks = [
        _check(
            "W0(1-R) vs FFT of mirror autocorr",
            worst,
            1e-3,
            detail=f"9 admissible scenes x 3 eta; worst at {worst_at}",
        ),
        _check("near-wall normal limit (alpha0=-0.999)", dev_normal, 0.01),
        _check("near-wall oblique limit (alpha=pi/4)", dev_oblique, 0.02),
        _check("degenerate scene: R identically 0", rovelli, 0.0, passed=rovelli == 0.0),
    ]
    return _suite("mirror-oracle", checks)


# ---------------------------------------------------------------------------
# circular motion


def suite_circular():
    gamma = math.sqrt(1.0 + 1e-3)
    w_grid = np.linspace(0.0, 0.9, 19)
    peak = ff.circular_wigner_correction_small_gamma(0.0, gamma)
    worst = 0.0
    for w in w_grid:
        approx = ff.circular_wigner_correction_small_gamma(w, gamma)
        val = ff.circular_wigner_correction(w, gamma)
        worst = max(worst, abs(val - approx) / peak)
    checks = [
        _check("small-gamma cubic vs quadrature (peak-normalized)", worst, 0.02),
    ]
    return _suite("circular", checks)


# ---------------------------------------------------------------------------
# inertial invariance (the two-term family)


def suite_prop2():
    spectrum = ff.SourceSpectrum(f0=1.3, f1=0.7, eps=0.0)
    omegas = np.linspace(0.2, 5.0, 40)
    w0 = ff.inertial_wigner(0.0, spectrum, omegas)
    dev = 0.0
    for v in (0.3, 0.9):
        wv = ff.inertial_wigner(v, spectrum, omegas)
        dev = max(dev, float(np.max(np.abs(wv - w0) / w0)))

    fhat1 = lambda w: np.asarray(w, dtype=float)
    antider = lambda w: np.asarray(w, dtype=float) ** 2 / 2.0
    wc0 = ff.inertial_wigner_custom(0.0, fhat1, antider, omegas)
    wc5 = ff.inertial_wigner_custom(0.5, fhat1, antider, omegas)
    counter_dev = float(np.min(np.abs(wc5 - wc0) / wc0))

    checks = [
        _check("two-term spectrum: velocity invariance", dev, 1e-12),
        _check(
            "w^2 spectrum differs across v by >= 1%",
            counter_dev,
            0.01,
            passed=counter_dev >= 0.01,
            detail=f"minimum relative gap {counter_dev:.3f}",
        ),
    ]
    return _suite("prop2", checks)


# ---------------------------------------------------------------------------
# localization


def localization_reference_scenes():
    return [(0.0, -0.9), (0.0, 0.5), (math.pi / 4, -0.5), (1.2, 2.0)]


def suite_localize():
    eta = np.linspace(-3.0, 3.0, 25)
    nu = np.linspace(0.2, 4.0, 40)
    worst_noiseless = 0.0
    worst_time = 0.0
    for (alpha, alpha0) in localization_reference_scenes():
        scene = mr.MirrorScene(xi=1.0, xi0=alpha0, alpha=alpha)
        r_obs = mr.correction_grid(scene, eta, nu)
        t0 = time.monotonic()
        res = lc.fit_scene(r_obs)
        worst_time = max(worst_time, time.monotonic() - t0)
        err = max(abs(res.alpha_hat - abs(alpha)), abs(res.alpha0_hat - alpha0))
        worst_noiseless = max(worst_noiseless, err)

    worst_mean = 0.0
    worst_single = 0.0
    for (alpha, alpha0) in localization_reference_scenes():
        scene = mr.MirrorScene(xi=1.0, xi0=alpha0, alpha=alpha)
        clean = mr.correction_grid(scene, eta, nu)
        errs = []
        for seed in range(10):
            rng = np.random.default_rng(1000 + seed)
            noisy = mr.correction_grid(scene, eta, nu)
            noisy.values = clean.values * (1.0 + 0.01 * rng.standard_normal(clean.values.shape))
            res = lc.fit_scene(noisy)
            errs.append(max(abs(res.alpha_hat - abs(alpha)), abs(res.alpha0_hat - alpha0)))
        worst_mean = max(worst_mean, float(np.mean(errs)))
        worst_single = max(worst_single, float(np.max(errs)))

    checks = [
        _check("noiseless recovery error", worst_noiseless, 1e-3),
        _check(
            "1% noise recovery error, mean over 10 seeds",
            worst_mean,
            5e-2,
            detail=f"worst single draw {worst_single:.3f}: at normal incidence R is even "
            "in alpha, so alpha is only quadratically identifiable",
        ),
        _check("single fit runtime [s]", worst_time, 60.0),
    ]
    return _suite("localize", checks)


SUITES = {
    "psi-oracle": suite_psi_oracle,
    "fourier-consistency": suite_fourier_consistency,
    "hk": suite_hk,
    "stationarity": suite_stationarity,
    "montecarlo-planck": suite_montecarlo_planck,
    "mirror-oracle": suite_mirror_oracle,
    "circular": suite_circular,
    "prop2": suite_prop2,
    "localize": suite_localize,
}


def run_suite(name: str) -> dict:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name]()


def run_suites(names) -> list:
    return [run_suite(n) for n in names]
