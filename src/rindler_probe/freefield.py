"""Autocorrelations and Wigner transforms in the obstacle-free medium.

Everything here follows from the far-source equilibrium covariance

    <u u'> = (1/8 pi^2) int F(omega) sinc((omega/c0)|dX|) e^{i omega dT} domega

with the two-term source spectrum F(omega) = f0 |omega| e^{-eps|omega|}
+ f1/|omega|.  For the f0 part the omega-integral has the closed form

    (f0 / 8 pi^2 rho) [ g(dT + rho) - g(dT - rho) ],   g(x) = x/(x^2 + eps^2),

with rho = |dX|/c0.  On the light-cone coordinates d_+- = dT +- rho the
difference quotient is exact algebra,

    (f0 / 4 pi^2) (eps^2 - d_+ d_-) / ((d_+^2 + eps^2)(d_-^2 + eps^2)),

with no division by rho and no rho -> 0 branch.  Every regularized closed
form here and in mirror evaluates this light-cone form, and each supplies
d_+ and d_- without cancellation.  The quadrature path (autocorr_general)
evaluates the omega-integral numerically and serves as the independent
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .core_math import QuadratureConfig, QuadratureError
from .grids import WignerGrid, window_kernel
from .trajectories import TrajectorySpec, interval_function, trajectory_points

__all__ = [
    "SourceSpectrum",
    "regularized_pair_term",
    "autocorr_general",
    "rindler_autocorr",
    "rindler_autocorr_regularized",
    "rindler_wigner",
    "rindler_wigner_planck_form",
    "rindler_wigner_regularized",
    "inertial_wigner",
    "inertial_wigner_custom",
    "circular_autocorr",
    "circular_wigner_correction",
    "circular_wigner_correction_small_gamma",
    "circular_wigner",
    "windowed_wigner",
    "windowed_dft",
    "wigner_transform_fft",
    "fft_lag_grid",
]


@dataclass(frozen=True)
class SourceSpectrum:
    """Noise power spectral density f0 |w| e^(-eps |w|) + f1 / |w|."""

    f0: float = 1.0
    f1: float = 0.0
    eps: float = 0.0

    def __post_init__(self):
        if self.f0 < 0 or self.f1 < 0:
            raise ValueError("spectral amplitudes must be >= 0")
        if self.f0 + self.f1 <= 0:
            raise ValueError("spectrum must have f0 + f1 > 0")
        if self.eps < 0:
            raise ValueError("regularization time eps must be >= 0")

    def fhat(self, omega):
        omega = np.abs(np.asarray(omega, dtype=float))
        out = self.f0 * omega * np.exp(-self.eps * omega)
        if self.f1 > 0:
            out = out + self.f1 / omega
        return out


def _light_cone_pair(d_plus, d_minus, eps: float, f0: float):
    # (f0/4pi^2)(eps^2 - d+ d-)/((d+^2 + eps^2)(d-^2 + eps^2)), as an ndarray
    if eps <= 0:
        raise ValueError("regularized pair term requires eps > 0")
    e2 = eps * eps
    den = (d_plus * d_plus + e2) * (d_minus * d_minus + e2)
    return (f0 / (4.0 * math.pi**2)) * (e2 - d_plus * d_minus) / den


def regularized_pair_term(rho, dt, eps: float, f0: float = 1.0):
    """Closed form of (f0/8pi^2) int |w| e^(-eps|w|) sinc(w rho) e^{i w dt} dw.

    rho is the spatial separation over c0 (>= 0), dt the time separation.
    Evaluated in the light-cone form at d_+- = dt +- rho, which holds at
    rho = 0 as it stands.  Vectorized over rho, dt.
    """
    rho = np.asarray(rho, dtype=float)
    dt = np.asarray(dt, dtype=float)
    out = _light_cone_pair(dt + rho, dt - rho, eps, f0)
    if out.ndim == 0:
        return float(out)
    return out


def _fourier_sin(f, a: float, wvar: float, q: QuadratureConfig, decay_length: float = math.inf) -> float:
    # int_a^inf f(w) sin(wvar * w) dw, for decaying f, any sign of wvar.  QAWF's
    # first cycle is pi/|wvar| long; at |wvar| decay_length < 0.1 it spans
    # thousands of decay lengths, its nodes miss where f lives, and it returns
    # ~0 with a ~0 error estimate.  There the phase advances by less than 0.1
    # over a decay length, and a plain quad of f(w) sin(wvar w) is accurate.
    if wvar == 0.0:
        return 0.0
    if abs(wvar) * decay_length < 0.1:
        val, err = quad(lambda w: f(w) * math.sin(wvar * w), a, np.inf,
                        epsabs=q.atol, epsrel=q.rtol, limit=q.max_subdivisions)
        if err > max(q.atol, q.rtol * abs(val)) * 100.0:
            raise QuadratureError(f"slow-oscillation tail integral did not converge (err {err:.2e})")
        return val
    val, err = quad(f, a, np.inf, weight="sin", wvar=abs(wvar), limlst=200, limit=q.max_subdivisions)
    if err > max(q.atol, q.rtol * abs(val)) * 100.0:
        raise QuadratureError(f"oscillatory tail integral did not converge (err {err:.2e})")
    return math.copysign(1.0, wvar) * val


def _fourier_cos(f, a: float, wvar: float, q: QuadratureConfig) -> float:
    if wvar == 0.0:
        val, err = quad(f, a, np.inf, limit=q.max_subdivisions)
    else:
        val, err = quad(f, a, np.inf, weight="cos", wvar=abs(wvar), limlst=200, limit=q.max_subdivisions)
    if err > max(q.atol, q.rtol * abs(val)) * 100.0:
        raise QuadratureError(f"oscillatory tail integral did not converge (err {err:.2e})")
    return val


def autocorr_general(
    spec: TrajectorySpec,
    spectrum: SourceSpectrum,
    tau: float,
    taup: float,
    q: QuadratureConfig = QuadratureConfig(),
    c0: float = 1.0,
    omega_min: float | None = None,
) -> float:
    """Numeric lagged covariance along a trajectory (quadrature oracle).

    Evaluates (1/8pi^2) int F(w) sinc((w/c0)|dX|) e^{i w dT} dw with dX, dT
    taken between the events at tau +- tau'/2.  The f0 part requires
    eps > 0; the f1 part requires an explicit infrared cutoff omega_min.
    """
    t_p, x_p = trajectory_points(spec, [tau + taup / 2.0], c0)
    t_m, x_m = trajectory_points(spec, [tau - taup / 2.0], c0)
    rho = float(np.linalg.norm(x_p[0] - x_m[0])) / c0
    dt = float(t_p[0] - t_m[0])
    tiny_rho = rho < 1e-9 * (abs(dt) + rho + spectrum.eps + 1e-30)
    if not tiny_rho:
        # the smaller of rho +- dt is D/(the larger), D = rho^2 - dt^2 taken
        # from the light-cone split; as a difference it would cancel terms of
        # size cosh(eta) on the hyperbolic world-lines
        larger = rho + abs(dt)
        smaller = interval_function(spec, tau, taup, c0) / larger
        rho_plus_dt, rho_minus_dt = (larger, smaller) if dt >= 0 else (smaller, larger)

    total = 0.0
    if spectrum.f0 > 0:
        eps = spectrum.eps
        if eps <= 0:
            raise ValueError("autocorr_general requires eps > 0 when f0 > 0")
        if tiny_rho:
            if dt == 0.0:
                part = 1.0 / eps**2
            else:
                part = _fourier_cos(lambda w: w * math.exp(-eps * w), 0.0, dt, q)
            total += spectrum.f0 / (4.0 * math.pi**2) * part
        else:
            decay = lambda w: math.exp(-eps * w)
            part = _fourier_sin(decay, 0.0, rho_plus_dt, q, 1.0 / eps)
            part += _fourier_sin(decay, 0.0, rho_minus_dt, q, 1.0 / eps)
            total += spectrum.f0 / (8.0 * math.pi**2 * rho) * part

    if spectrum.f1 > 0:
        if omega_min is None or omega_min <= 0:
            raise ValueError("missing-cutoff: the f1/|omega| part needs an infrared cutoff omega_min")
        if tiny_rho:
            if dt == 0.0:
                raise ValueError("zero-lag covariance diverges for the f1/|omega| part")
            part = _fourier_cos(lambda w: 1.0 / w, omega_min, dt, q)
            total += spectrum.f1 / (4.0 * math.pi**2) * part
        else:
            inv2 = lambda w: 1.0 / (w * w)
            part = _fourier_sin(inv2, omega_min, rho_plus_dt, q) + _fourier_sin(inv2, omega_min, rho_minus_dt, q)
            total += spectrum.f1 / (8.0 * math.pi**2 * rho) * part
    return total


def rindler_autocorr(xi: float, f0: float, taup, c0: float = 1.0):
    """-c0^2 f0 / (16 pi^2 xi^2 sinh^2(c0 tau'/(2 xi))); independent of tau."""
    taup = np.asarray(taup, dtype=float)
    if np.any(taup == 0.0):
        raise ValueError("zero-lag rejected: the unregularized autocorrelation diverges at tau' = 0")
    out = -(c0**2) * f0 / (16.0 * math.pi**2 * xi**2 * np.sinh(c0 * taup / (2.0 * xi)) ** 2)
    if out.ndim == 0:
        return float(out)
    return out


def rindler_autocorr_regularized(xi: float, f0: float, eps: float, tau, taup, c0: float = 1.0):
    """Finite-energy version of the Rindler autocorrelation (eps > 0).

    The light-cone pair term at d_+- = (2 xi/c0) sinh(eta'/2) e^{+-eta}, the
    difference identities for dt +- rho; eta = 0 needs no special case.
    """
    tau = np.asarray(tau, dtype=float)
    taup = np.asarray(taup, dtype=float)
    eta = c0 * tau / xi
    s = (2.0 * xi / c0) * np.sinh(c0 * taup / (2.0 * xi))
    out = _light_cone_pair(s * np.exp(eta), s * np.exp(-eta), eps, f0)
    if out.ndim == 0:
        return float(out)
    return out


def rindler_wigner(xi: float, f0: float, omega, c0: float = 1.0):
    """(f0/4pi) omega / tanh(pi xi omega / c0); tau-independent, even in omega."""
    omega = np.abs(np.asarray(omega, dtype=float))
    x = math.pi * xi * omega / c0
    small = x < 1e-6
    x_safe = np.where(small, 1.0, x)
    series = (c0 / (math.pi * xi)) * (1.0 + x * x / 3.0)
    out = f0 / (4.0 * math.pi) * np.where(small, series, omega / np.tanh(x_safe))
    if out.ndim == 0:
        return float(out)
    return out


def rindler_wigner_planck_form(xi: float, f0: float, omega, c0: float = 1.0):
    """(f0|omega|/4pi) (1 + 2/(e^{2 pi xi |omega|/c0} - 1)): the Planck decomposition."""
    omega = np.abs(np.asarray(omega, dtype=float))
    x = 2.0 * math.pi * xi * omega / c0
    zero = x == 0.0
    x_safe = np.where(zero, 1.0, x)
    out = f0 * omega / (4.0 * math.pi) * (1.0 + 2.0 / np.expm1(x_safe))
    out = np.where(zero, f0 * c0 / (4.0 * math.pi**2 * xi), out)
    if out.ndim == 0:
        return float(out)
    return out


def _sinh_ratio(a, b):
    # sinh(a)/sinh(b) for a, b >= 0, stable for large arguments
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    tiny = b < 1e-8
    b_safe = np.where(tiny, 1.0, b)
    val = np.exp(a - b_safe) * (-np.expm1(-2.0 * a)) / (-np.expm1(-2.0 * b_safe))
    return np.where(tiny, np.where(b == 0, np.nan, a / b_safe), val)


def rindler_wigner_regularized(xi: float, f0: float, eps: float, tau: float, omega, c0: float = 1.0):
    """Wigner transform of the eps-regularized Rindler record.

    Two-term arccos/sinh expression; reduces to rindler_wigner as eps -> 0.
    Raises a domain error when (c0 eps/xi)^2 e^{2|eta|} / 2 exceeds 2, where
    the arccos argument would leave [-1, 1].  The removable 0/0 at eta = 0 is
    evaluated just off axis (the function is even in eta and smooth; the
    clamp at |eta| = 1e-5 contributes O(1e-10) relative error).
    """
    if eps < 0:
        raise ValueError("eps must be >= 0")
    if eps == 0.0:
        return rindler_wigner(xi, f0, omega, c0)
    eta = c0 * tau / xi
    eta = math.copysign(max(abs(eta), 1e-5), eta if eta != 0 else 1.0)
    d = (c0 * eps / xi) ** 2 / 2.0
    u1 = d * math.exp(-2.0 * eta)
    u2 = d * math.exp(2.0 * eta)
    if max(u1, u2) > 2.0:
        raise ValueError(
            f"domain error: eps={eps} too large for eta={eta} (arccos argument below -1)"
        )
    omega = np.abs(np.asarray(omega, dtype=float))
    nu_t = omega * xi / c0

    def term(u):
        phi = math.acos(-1.0 + u)
        s = math.sqrt(u * (2.0 - u))
        return _sinh_ratio(nu_t * phi, nu_t * math.pi) / s

    w = term(u1) / math.expm1(2.0 * eta) + term(u2) / math.expm1(-2.0 * eta)
    out = f0 * c0 / (4.0 * math.pi * xi) * w
    if out.ndim == 0:
        return float(out)
    return out


def inertial_wigner(v: float, spectrum: SourceSpectrum, omega, c0: float = 1.0):
    """Spectrum recorded by a constant-velocity observer, |v| < c0.

    Band average of F(w)/w over [w/(gamma(1+|v|/c0)), w/(gamma(1-|v|/c0))],
    closed form for the two-term spectrum family.  Independent of v exactly
    when eps = 0 (the Lorentz-invariant family).
    """
    if not abs(v) < c0:
        raise ValueError("inertial observer requires |v| < c0")
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0):
        raise ValueError("inertial_wigner requires omega > 0")
    beta = abs(v) / c0
    if beta < 1e-9:
        out = spectrum.fhat(omega) / (4.0 * math.pi)
        return float(out) if out.ndim == 0 else out
    gamma = 1.0 / math.sqrt(1.0 - beta * beta)
    wa = omega / (gamma * (1.0 + beta))
    wb = omega / (gamma * (1.0 - beta))
    total = np.zeros_like(omega)
    if spectrum.f0 > 0:
        if spectrum.eps > 0:
            total = total + spectrum.f0 * (np.exp(-spectrum.eps * wa) - np.exp(-spectrum.eps * wb)) / spectrum.eps
        else:
            total = total + spectrum.f0 * (wb - wa)
    if spectrum.f1 > 0:
        total = total + spectrum.f1 * (1.0 / wa - 1.0 / wb)
    out = total / (8.0 * math.pi * gamma * beta)
    if out.ndim == 0:
        return float(out)
    return out


def inertial_wigner_custom(v: float, fhat1, fhat1_antiderivative, omega, c0: float = 1.0):
    """Test hook: same band average for an arbitrary F1(w) = F(w)/w.

    fhat1 is used only for the v = 0 limit F(w)/(4 pi).
    """
    if not abs(v) < c0:
        raise ValueError("inertial observer requires |v| < c0")
    omega = np.asarray(omega, dtype=float)
    beta = abs(v) / c0
    if beta < 1e-9:
        out = np.asarray(fhat1(omega)) * omega / (4.0 * math.pi)
        return float(out) if out.ndim == 0 else out
    gamma = 1.0 / math.sqrt(1.0 - beta * beta)
    wa = omega / (gamma * (1.0 + beta))
    wb = omega / (gamma * (1.0 - beta))
    out = (np.asarray(fhat1_antiderivative(wb)) - np.asarray(fhat1_antiderivative(wa))) / (
        8.0 * math.pi * gamma * beta
    )
    if out.ndim == 0:
        return float(out)
    return out


def circular_autocorr(gamma: float, p: float, f0: float, taup, c0: float = 1.0):
    """(f0/4pi^2) / (4 (gamma^2-1)/p^2 sin^2(p tau'/2) - gamma^2 tau'^2).

    Negative for every tau' != 0 (|sin x| < |x| and gamma^2 > gamma^2 - 1);
    independent of tau.  c0 cancels in the interval combination.
    """
    if gamma <= 1:
        raise ValueError("circular motion requires gamma > 1")
    taup = np.asarray(taup, dtype=float)
    if np.any(taup == 0.0):
        raise ValueError("zero-lag rejected: the autocorrelation diverges at tau' = 0")
    den = 4.0 * (gamma**2 - 1.0) / p**2 * np.sin(p * taup / 2.0) ** 2 - gamma**2 * taup**2
    out = f0 / (4.0 * math.pi**2) / den
    if out.ndim == 0:
        return float(out)
    return out


def circular_wigner_correction(w: float, gamma: float, s_max: float = 600.0,
                               q: QuadratureConfig = QuadratureConfig()) -> float:
    """Even spectral correction W_gamma(w) of the circular record, by quadrature.

    The integrand decays like 1/(gamma^2 s^2); truncation at s_max leaves a
    relative-to-peak tail of about 1/s_max at w = 0 and less elsewhere.
    """
    if gamma <= 1:
        raise ValueError("circular motion requires gamma > 1")
    g2 = gamma * gamma
    w = abs(float(w))

    def integrand(s):
        if s < 1e-6:
            return 1.0 / 3.0
        sin_s = math.sin(s)
        return (s * s - sin_s * sin_s) / (s * s * (g2 * s * s - (g2 - 1.0) * sin_s * sin_s))

    if w == 0.0:
        val, err = quad(integrand, 0.0, s_max, limit=q.max_subdivisions * 10)
    else:
        val, err = quad(integrand, 0.0, s_max, weight="cos", wvar=2.0 * w,
                        limit=q.max_subdivisions * 10)
    if err > 1e-7 + 1e-6 * abs(val):
        raise QuadratureError(f"W_gamma quadrature error estimate {err:.2e}")
    return (g2 - 1.0) / (4.0 * math.pi**2) * 2.0 * val


def circular_wigner_correction_small_gamma(w, gamma: float):
    """Leading small-(gamma^2 - 1) form: (gamma^2-1)/(6 pi) (1 - |w|)_+^3."""
    w = np.asarray(w, dtype=float)
    out = (gamma**2 - 1.0) / (6.0 * math.pi) * np.clip(1.0 - np.abs(w), 0.0, None) ** 3
    if out.ndim == 0:
        return float(out)
    return out


def circular_wigner(gamma: float, p: float, f0: float, omega, c0: float = 1.0,
                    mode: str = "quadrature", s_max: float = 600.0) -> float:
    """f0|omega|/4pi plus the scaled correction (f0 p/4pi) W_gamma(omega/p)."""
    omega = float(omega)
    if mode == "quadrature":
        corr = circular_wigner_correction(omega / p, gamma, s_max)
    elif mode == "small_gamma":
        corr = circular_wigner_correction_small_gamma(omega / p, gamma)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return f0 * abs(omega) / (4.0 * math.pi) + f0 * p / (4.0 * math.pi) * corr


def windowed_wigner(w, window_kind: str, t_c: float, xi: float = 1.0, c0: float = 1.0, nu=None):
    """Convolve a spectrum with the frequency kernel of a lag window.

    w is either a WignerGrid (returns a new grid, same lattice) or a callable
    of the dimensionless frequency nu (then nu must be given; returns an
    array).  t_c is the window width in seconds; the kernel width in nu units
    is 1/(t_c c0 / xi).  The kernel mass is renormalized on the truncated
    quadrature window, so a constant input is reproduced exactly.
    """
    t_dimless = t_c * c0 / xi
    kernel = window_kernel(window_kind, t_dimless)
    if window_kind == "gaussian":
        half = 8.0 / t_dimless
        n_nodes = 1601
    else:
        half = 200.0 / t_dimless
        n_nodes = 8001
    mu = np.linspace(-half, half, n_nodes)
    weights = kernel(mu)
    # Simpson weights
    simp = np.ones(n_nodes)
    simp[1:-1:2] = 4.0
    simp[2:-1:2] = 2.0
    simp *= (mu[1] - mu[0]) / 3.0
    weights = weights * simp
    weights /= weights.sum()

    if isinstance(w, WignerGrid):
        out = np.empty_like(w.values)
        for i in range(w.eta.size):
            row = w.values[i]
            shifted = np.interp(
                w.nu[:, None] - mu[None, :], w.nu, row, left=row[0], right=row[-1]
            )
            out[i] = shifted @ weights
        return WignerGrid(w.eta, w.nu, out, window=f"{window_kind}:{t_c}", kind=w.kind)

    if nu is None:
        raise ValueError("callable input needs an explicit nu grid")
    nu = np.asarray(nu, dtype=float)
    vals = np.asarray(w(nu[:, None] - mu[None, :]))
    return vals @ weights


def windowed_dft(values, lags, window_vals, omegas):
    """Discrete windowed lag transform sum_j chi_j C(.., j) cos(w t'_j) dt'.

    values has lags on its last axis; lags must be uniformly spaced.
    """
    lags = np.asarray(lags, dtype=float)
    dt = lags[1] - lags[0]
    omegas = np.asarray(omegas, dtype=float)
    basis = np.cos(np.outer(omegas, lags)) * np.asarray(window_vals)[None, :] * dt
    return np.asarray(values) @ basis.T


def fft_lag_grid(span: float, n: int):
    """Symmetric lag grid for wigner_transform_fft: t_j = (j - n/2) (2 span / n)."""
    return (np.arange(n) - n // 2) * (2.0 * span / n)


def wigner_transform_fft(corr_values, span: float):
    """FFT lag transform of samples on fft_lag_grid(span, n).

    Returns (omega, W) with W(omega) = sum_j C(t_j) e^{i omega t_j} dt.
    Rectangle rule: by Poisson summation the error is the sum of spectrum
    aliases at omega +- 2 pi/dt, so dt must resolve the narrowest feature.
    The samples are real, so the real part of the spectrum is even in omega:
    one real-input FFT gives the half omega >= 0, mirrored for omega < 0.
    """
    corr_values = np.asarray(corr_values, dtype=float)
    n = corr_values.size
    dt = 2.0 * span / n
    half = np.fft.rfft(np.fft.ifftshift(corr_values)).real * dt
    w = np.concatenate((half[n // 2 : 0 : -1], half[: n - n // 2]))
    omega = np.arange(-(n // 2), n - n // 2) * (1.0 / (n * dt)) * 2.0 * math.pi
    return omega, w
