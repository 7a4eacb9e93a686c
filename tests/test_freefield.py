import math

import numpy as np
import pytest
from scipy.integrate import quad

from rindler_probe import freefield as ff
from rindler_probe import trajectories as tj


def bueps_printed(eta, etap, eps, f0=1.0, xi=1.0, c0=1.0):
    # the printed two-term regularized autocorrelation (times f0), eta != 0
    s = (2.0 * xi / c0) ** 2 * np.sinh(etap / 2.0) ** 2
    t1 = np.exp(eta) / (s * np.exp(2 * eta) + eps**2)
    t2 = np.exp(-eta) / (s * np.exp(-2 * eta) + eps**2)
    return f0 / (8 * math.pi**2 * np.sinh(eta)) * (t1 - t2)


def test_regularized_autocorr_matches_printed_form():
    eps = 0.07
    for eta in (0.3, 1.0, -1.7):
        for etap in (0.2, 1.5, -2.4):
            got = ff.rindler_autocorr_regularized(1.0, 1.0, eps, eta, etap)
            assert got == pytest.approx(bueps_printed(eta, etap, eps), rel=1e-12)


def test_regularized_autocorr_eta_zero_limit():
    # L'Hopital limit (eps^2 - s)/(4 pi^2 (s + eps^2)^2) at s = 1, eps = 0.1
    etap = 2.0 * math.asinh(0.5)  # makes s = (2 sinh(etap/2))^2 = 1
    got = ff.rindler_autocorr_regularized(1.0, 1.0, 0.1, 0.0, etap)
    expected = (0.01 - 1.0) / (4 * math.pi**2 * 1.01**2)
    assert got == pytest.approx(expected, rel=1e-9)
    # and agrees with the eta = 1e-6 evaluation
    assert got == pytest.approx(
        ff.rindler_autocorr_regularized(1.0, 1.0, 0.1, 1e-6, etap), rel=1e-9
    )


def test_regularized_autocorr_eps_to_zero():
    taup = 1.3
    exact = ff.rindler_autocorr(1.0, 1.0, taup)
    errs = [
        abs(ff.rindler_autocorr_regularized(1.0, 1.0, eps, 0.4, taup) - exact) / abs(exact)
        for eps in (1e-2, 5e-3)
    ]
    assert errs[0] < 1e-3
    # O(eps^2): halving eps quarters the error
    assert errs[1] == pytest.approx(errs[0] / 4.0, rel=0.1)


def test_rindler_autocorr_examples():
    val = ff.rindler_autocorr(1.0, 1.0, 1.0)
    assert val == pytest.approx(-1.0 / (16 * math.pi**2 * math.sinh(0.5) ** 2), rel=1e-14)
    assert np.all(ff.rindler_autocorr(1.0, 1.0, np.linspace(0.01, 8.0, 200)) < 0)
    # small-lag asymptote -f0/(4 pi^2 tau'^2)
    taup = 1e-4
    assert ff.rindler_autocorr(1.0, 1.0, taup) == pytest.approx(
        -1.0 / (4 * math.pi**2 * taup**2), rel=1e-7
    )
    with pytest.raises(ValueError):
        ff.rindler_autocorr(1.0, 1.0, 0.0)


def test_stationary_autocorr_general_closed_form():
    spec = ff.SourceSpectrum(f0=1.0, eps=0.3)
    for taup in (0.0, 0.2, 1.1):
        got = ff.autocorr_general(tj.Stationary(), spec, 0.5, taup)
        expected = (0.3**2 - taup**2) / (4 * math.pi**2 * (0.3**2 + taup**2) ** 2)
        assert got == pytest.approx(expected, rel=1e-9)


def test_autocorr_general_matches_regularized_rindler():
    spec = ff.SourceSpectrum(f0=1.0, eps=0.05)
    for tau in (-1.0, 0.0, 1.0):
        for taup in (-1.5, 0.4, 2.0):
            oracle = ff.autocorr_general(tj.Rindler(1.0), spec, tau, taup)
            closed = ff.rindler_autocorr_regularized(1.0, 1.0, 0.05, tau, taup)
            assert oracle == pytest.approx(closed, rel=1e-7, abs=1e-12)


def test_autocorr_general_zero_lag_positive():
    spec = ff.SourceSpectrum(f0=1.0, eps=0.1)
    for traj in (tj.Rindler(1.0), tj.Circular(1.4, 2.0)):
        assert ff.autocorr_general(traj, spec, 0.7, 0.0) > 0


def test_autocorr_general_f1_needs_cutoff():
    spec = ff.SourceSpectrum(f0=0.0, f1=1.0)
    with pytest.raises(ValueError):
        ff.autocorr_general(tj.Stationary(), spec, 0.0, 1.0)
    val = ff.autocorr_general(tj.Stationary(), spec, 0.0, 1.0, omega_min=1e-6)
    assert math.isfinite(val)


def test_oblique_free_space_reduces_to_rindler():
    # free-space spectra depend only on xi: the tilted world-line gives the
    # same lagged interval, hence the same autocorrelation
    spec = ff.SourceSpectrum(f0=1.0, eps=0.05)
    oblique = tj.ObliqueRindler(xi=1.0, xi0=-0.4, alpha=0.6)
    for (tau, taup) in ((0.0, 0.8), (0.9, 1.7)):
        a = ff.autocorr_general(oblique, spec, tau, taup)
        b = ff.rindler_autocorr_regularized(1.0, 1.0, 0.05, tau, taup)
        assert a == pytest.approx(b, rel=1e-7)


def test_wigner_two_printed_forms_agree():
    nu = np.linspace(1e-3, 20, 2001)
    w16 = ff.rindler_wigner(1.0, 1.0, nu)
    w17 = ff.rindler_wigner_planck_form(1.0, 1.0, nu)
    assert np.max(np.abs(w16 - w17) / w16) <= 1e-12


def test_wigner_limits():
    assert ff.rindler_wigner(1.0, 1.0, 0.0) == pytest.approx(1.0 / (4 * math.pi**2), rel=1e-9)
    # ratio to the unperturbed spectrum tends to 1
    assert ff.rindler_wigner(1.0, 1.0, 30.0) / (30.0 / (4 * math.pi)) == pytest.approx(1.0, rel=1e-12)
    assert ff.rindler_wigner(1.0, 1.0, 2.0) == ff.rindler_wigner(1.0, 1.0, -2.0)


def test_wigner_regularized_small_eps_matches_ideal():
    # the deviation from the ideal form is the O(eps) source damping:
    # ~1.25e-3 at eps = 1e-3, nu = 1, and it halves with eps
    ideal = ff.rindler_wigner(1.0, 1.0, 1.0)
    dev1 = abs(ff.rindler_wigner_regularized(1.0, 1.0, 1e-3, 0.0, 1.0) / ideal - 1.0)
    dev2 = abs(ff.rindler_wigner_regularized(1.0, 1.0, 5e-4, 0.0, 1.0) / ideal - 1.0)
    assert dev1 <= 2e-3
    assert dev2 == pytest.approx(dev1 / 2.0, rel=0.05)


def test_wigner_regularized_even_in_eta_and_domain_error():
    w_p = ff.rindler_wigner_regularized(1.0, 1.0, 0.05, 0.7, 1.3)
    w_m = ff.rindler_wigner_regularized(1.0, 1.0, 0.05, -0.7, 1.3)
    assert w_p == pytest.approx(w_m, rel=1e-13)
    with pytest.raises(ValueError):
        ff.rindler_wigner_regularized(1.0, 1.0, 3.0, 2.0, 1.0)
    assert ff.rindler_wigner_regularized(1.0, 1.0, 0.0, 0.3, 1.1) == ff.rindler_wigner(1.0, 1.0, 1.1)


def test_wigner_regularized_matches_fft():
    span, n, eps = 40.0, 2**20, 1e-3
    lags = ff.fft_lag_grid(span, n)
    corr = ff.rindler_autocorr_regularized(1.0, 1.0, eps, 0.5, lags)
    om, w = ff.wigner_transform_fft(corr, span)
    sel = (om >= 0.1) & (om <= 5.0)
    target = ff.rindler_wigner_regularized(1.0, 1.0, eps, 0.5, om[sel])
    assert np.max(np.abs(w[sel] - target) / target) <= 1e-3


@pytest.mark.parametrize("n", [8, 9, 1001, 4096, 4097])
def test_wigner_transform_fft_matches_complex_fft(n):
    # non-symmetric samples, so the half-spectrum mirror is checked on odd n too
    span = 3.0
    dt = 2.0 * span / n
    corr = np.random.default_rng(n).standard_normal(n)
    om, w = ff.wigner_transform_fft(corr, span)
    full = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(corr))).real * dt
    assert np.max(np.abs(w - full)) <= 1e-13 * np.max(np.abs(full))
    assert np.array_equal(om, np.fft.fftshift(np.fft.fftfreq(n, dt)) * 2.0 * math.pi)


def test_inertial_wigner_invariant_family():
    nu = np.linspace(0.3, 4.0, 17)
    s_f0 = ff.SourceSpectrum(f0=2.0, eps=0.0)
    s_f1 = ff.SourceSpectrum(f0=0.0, f1=3.0)
    for v in (0.0, 0.3, 0.9):
        assert np.allclose(ff.inertial_wigner(v, s_f0, nu), 2.0 * nu / (4 * math.pi), rtol=1e-13)
        assert np.allclose(ff.inertial_wigner(v, s_f1, nu), 3.0 / (4 * math.pi * nu), rtol=1e-13)


def test_inertial_wigner_counterexample_spectrum():
    fhat1 = lambda w: np.asarray(w, dtype=float)
    antider = lambda w: np.asarray(w, dtype=float) ** 2 / 2.0
    w0 = ff.inertial_wigner_custom(0.0, fhat1, antider, 1.0)
    w5 = ff.inertial_wigner_custom(0.5, fhat1, antider, 1.0)
    assert abs(w5 - w0) / w0 >= 0.01
    # closed form: gamma w^2 / 4 pi
    gamma = 1.0 / math.sqrt(1 - 0.25)
    assert w5 == pytest.approx(gamma / (4 * math.pi), rel=1e-12)


def test_inertial_wigner_requires_subluminal():
    with pytest.raises(ValueError):
        ff.inertial_wigner(1.0, ff.SourceSpectrum(f0=1.0), 1.0)


def test_inertial_invariance_through_quadrature_path():
    # the lag-transform route confirms the closed-form invariance: the
    # regularized moving-observer autocorrelation is the pair term at
    # rho = gamma beta |tau'|, dt = gamma tau' (spot-checked against the
    # numeric-integral oracle); the regularization itself breaks the
    # invariance at O(eps gamma omega), so eps = 1e-4 keeps that below 1e-3
    eps = 1e-4
    spec = ff.SourceSpectrum(f0=1.0, eps=eps)
    span, n = 40.0, 2**22
    lags = ff.fft_lag_grid(span, n)
    spectra = {}
    for v in (0.0, 0.3):
        beta = v
        gamma = 1.0 / math.sqrt(1.0 - beta**2) if beta else 1.0
        corr = ff.regularized_pair_term(gamma * beta * np.abs(lags), gamma * lags, eps)
        for taup in (0.7, 1.9):
            oracle = ff.autocorr_general(tj.Inertial(v), spec, 0.3, taup)
            closed = float(ff.regularized_pair_term(gamma * beta * abs(taup), gamma * taup, eps))
            assert oracle == pytest.approx(closed, rel=1e-7)
        om, w = ff.wigner_transform_fft(corr, span)
        sel = (om >= 0.3) & (om <= 3.0)
        spectra[v] = w[sel]
    dev = np.max(np.abs(spectra[0.3] - spectra[0.0]) / spectra[0.0])
    assert dev <= 1e-3


def test_circular_autocorr_negative_and_limits():
    gamma, p = 1.5, 2.0
    taup = np.linspace(0.05, 8.0, 200)
    vals = ff.circular_autocorr(gamma, p, 1.0, taup)
    assert np.all(vals < 0)
    # gamma -> 1+ approaches the stationary singular form
    small = ff.circular_autocorr(1.0 + 1e-9, p, 1.0, 0.7)
    assert small == pytest.approx(-1.0 / (4 * math.pi**2 * 0.7**2), rel=1e-6)
    with pytest.raises(ValueError):
        ff.circular_autocorr(gamma, p, 1.0, 0.0)


def test_circular_autocorr_matches_general_quadrature():
    spec = ff.SourceSpectrum(f0=1.0, eps=1e-3)
    gamma, p = 1.5, 2.0
    for taup in (0.6, 1.9):
        oracle = ff.autocorr_general(tj.Circular(gamma, p), spec, 0.8, taup)
        closed = ff.circular_autocorr(gamma, p, 1.0, taup)
        assert oracle == pytest.approx(closed, rel=2e-3)


def test_circular_correction_even_and_supported():
    gamma = math.sqrt(1.001)
    a = ff.circular_wigner_correction(0.45, gamma)
    b = ff.circular_wigner_correction(-0.45, gamma)
    assert a == pytest.approx(b, rel=1e-12)
    peak = ff.circular_wigner_correction(0.0, gamma)
    outside = ff.circular_wigner_correction(1.4, gamma)
    assert abs(outside) < 0.05 * abs(peak)


def test_circular_small_gamma_expansion():
    gamma = math.sqrt(1.001)
    peak = ff.circular_wigner_correction_small_gamma(0.0, gamma)
    for w in (0.0, 0.3, 0.62, 0.9):
        got = ff.circular_wigner_correction(w, gamma)
        approx = ff.circular_wigner_correction_small_gamma(w, gamma)
        assert abs(got - approx) <= 0.02 * peak


def test_circular_wigner_modes():
    w_quad = ff.circular_wigner(math.sqrt(1.001), 2.0, 1.0, 1.2, mode="quadrature")
    w_cubic = ff.circular_wigner(math.sqrt(1.001), 2.0, 1.0, 1.2, mode="small_gamma")
    assert w_quad == pytest.approx(w_cubic, rel=1e-3)


def test_windowed_wigner_identity_limit():
    nu = np.linspace(0.5, 3.0, 11)
    planck = lambda x: ff.rindler_wigner(1.0, 1.0, x)
    out = ff.windowed_wigner(planck, "gaussian", 1e4, nu=nu)
    assert np.max(np.abs(out - planck(nu)) / planck(nu)) <= 1e-6


@pytest.mark.parametrize("kind", ["gaussian", "hann", "rectangular"])
def test_windowed_wigner_constant_preserved(kind):
    nu = np.linspace(0.5, 3.0, 7)
    out = ff.windowed_wigner(lambda x: np.full_like(np.asarray(x, dtype=float), 2.7), kind, 2.0, nu=nu)
    assert np.allclose(out, 2.7, rtol=1e-10)


def test_windowed_wigner_vs_direct_quadrature():
    # gaussian window of width 1/T_c = 0.05 against an independent convolution
    t_c = 20.0
    nu = np.array([0.7, 1.5, 2.8])
    planck = lambda x: ff.rindler_wigner(1.0, 1.0, x)
    out = ff.windowed_wigner(planck, "gaussian", t_c, nu=nu)
    sigma = 1.0 / t_c
    for i, v in enumerate(nu):
        direct, _ = quad(
            lambda mu: planck(v - mu) * math.exp(-(mu**2) / (2 * sigma**2)) / (sigma * math.sqrt(2 * math.pi)),
            -10 * sigma,
            10 * sigma,
            limit=400,
        )
        assert out[i] == pytest.approx(direct, rel=1e-4)


def test_windowed_wigner_grid_input():
    from rindler_probe.grids import WignerGrid

    nu = np.linspace(0.1, 4.0, 80)
    eta = np.array([0.0, 1.0])
    vals = np.tile(ff.rindler_wigner(1.0, 1.0, nu), (2, 1))
    grid = WignerGrid(eta, nu, vals)
    out = ff.windowed_wigner(grid, "gaussian", 20.0)
    assert out.values.shape == vals.shape
    assert out.window == "gaussian:20.0"
    # smoothing preserves the scale in the interior
    mid = slice(20, 60)
    assert np.allclose(out.values[0, mid], vals[0, mid], rtol=0.02)


def test_source_spectrum_validation():
    with pytest.raises(ValueError):
        ff.SourceSpectrum(f0=0.0, f1=0.0)
    with pytest.raises(ValueError):
        ff.SourceSpectrum(f0=1.0, eps=-0.1)
    s = ff.SourceSpectrum(f0=2.0, f1=0.5, eps=0.1)
    assert s.fhat(1.0) == pytest.approx(2.0 * math.exp(-0.1) + 0.5)
