"""The regularized pair terms against a 60-digit evaluation of their definition.

The reference is (f0/8pi^2)(g(dt + rho) - g(dt - rho))/rho, g(x) = x/(x^2 + eps^2),
with dt and rho taken from the world-line and its mirror image at 60 digits
(c0 = 1).  In double precision, dt - rho and the image separations cancel terms
of size cosh(eta); the closed forms must not.
"""

import math

import pytest

from rindler_probe import freefield as ff
from rindler_probe import mirror as mr
from rindler_probe import trajectories as tj

mpmath = pytest.importorskip("mpmath", reason="the high-precision arbiter needs mpmath")

ETAS = (0.0, 0.5, 3.0, 6.0, 10.0, 14.0, 20.0)
EPSS = (0.05, 1e-4)
LAGS = (0.0, 1e-6, -2e-3, 0.3, -1.7)
SCENES = [(0.0, -0.9), (math.pi / 4, -0.5), (1.2, 2.0), (0.0, 0.3)]


def _pair_60_digits(dt, rho, eps, f0=1.0):
    g = lambda x: x / (x * x + eps * eps)
    if rho == 0:
        # the rho -> 0 limit 2 g'(dt)
        return f0 / (8 * mpmath.pi**2) * 2 * (eps * eps - dt * dt) / (dt * dt + eps * eps) ** 2
    return f0 / (8 * mpmath.pi**2) * (g(dt + rho) - g(dt - rho)) / rho


def _separations_60_digits(alpha, alpha0, tau, taup):
    # dt, rho and rho_im between the events at tau +- taup/2 of the tilted
    # world-line (xi = 1, xi0 = alpha0), the second one reflected in z = 0 for rho_im
    def event(t):
        return mpmath.sinh(t), mpmath.sin(alpha) * mpmath.cosh(t), alpha0 + mpmath.cos(alpha) * mpmath.cosh(t)

    t1, x1, z1 = event(mpmath.mpf(tau) + mpmath.mpf(taup) / 2)
    t2, x2, z2 = event(mpmath.mpf(tau) - mpmath.mpf(taup) / 2)
    return t1 - t2, mpmath.hypot(x1 - x2, z1 - z2), mpmath.hypot(x1 - x2, z1 + z2)


@pytest.mark.parametrize("eps", EPSS)
def test_rindler_autocorr_regularized_at_large_eta(eps):
    with mpmath.workdps(60):
        for eta in ETAS:
            for taup in LAGS:
                dt, rho, _ = _separations_60_digits(0.0, 0.0, eta, taup)
                ref = float(_pair_60_digits(dt, rho, mpmath.mpf(eps)))
                got = ff.rindler_autocorr_regularized(1.0, 1.0, eps, eta, taup)
                assert got == pytest.approx(ref, rel=1e-12, abs=0.0), (eta, taup)


@pytest.mark.parametrize("alpha, alpha0", SCENES)
@pytest.mark.parametrize("eps", EPSS)
def test_mirror_autocorr_regularized_at_large_eta(alpha, alpha0, eps):
    scene = mr.MirrorScene(xi=1.0, xi0=alpha0, alpha=alpha)
    with mpmath.workdps(60):
        for eta in ETAS:
            for taup in LAGS:
                dt, rho, rho_im = _separations_60_digits(alpha, alpha0, eta, taup)
                e = mpmath.mpf(eps)
                ref = float(_pair_60_digits(dt, rho, e) - _pair_60_digits(dt, rho_im, e))
                got = mr.mirror_autocorr_regularized(scene, 1.0, eps, eta, taup)
                assert got == pytest.approx(ref, rel=1e-12, abs=0.0), (eta, taup)


@pytest.mark.parametrize("eta", (10.0, 14.0))
def test_autocorr_general_at_large_eta(eta):
    # rho - dt is about 1e-5 here, far below the decay rate eps of the source
    # spectrum: the regime where an oscillatory-weight quadrature returns ~0
    spectrum = ff.SourceSpectrum(f0=1.0, eps=0.05)
    with mpmath.workdps(60):
        dt, rho, _ = _separations_60_digits(0.0, 0.0, eta, 0.3)
        ref = float(_pair_60_digits(dt, rho, mpmath.mpf(0.05)))
    got = ff.autocorr_general(tj.Rindler(1.0), spectrum, eta, 0.3)
    assert got == pytest.approx(ref, rel=1e-7, abs=0.0)
