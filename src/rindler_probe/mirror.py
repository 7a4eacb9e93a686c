"""Dirichlet half-space obstacle: image geometry, deformed spectra, corrections.

The observer rides the tilted hyperbolic world-line of ObliqueRindler in
z > 0 with a perfect mirror at z = 0.  The obstacle enters every second
moment through the image-source difference, and the perturbed lag covariance
collapses to a quadratic in cosh(eta'/2) with coefficients

    A = sin^2(alpha)
    B(eta) = -2 alpha0 cos(alpha) cosh(eta)
    C(eta) = -1 - alpha0^2 - cos^2(alpha) sinh^2(eta),   alpha0 = xi0/xi,

which is exactly the admissible domain of the Psi integral in core_math.
The spectral correction R(eta, nu) = -tanh(pi nu)/(2 pi nu) Psi(2 nu; A, B, C)
is Psi normalized by the free Planck spectrum.  correction_R and the pose-fit
lattice correction_lattice run core_math's two-stage Psi evaluator: stage 1
once per (alpha, alpha0, |eta|), in its normal-incidence form below
ALPHA_SWITCH, and stage 2 per nu with the R weights (1 - h, h) in place of
the Psi weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_math import _spectral_sum, _terms_general, _terms_normal, argcosh
from .freefield import _light_cone_pair, rindler_wigner
from .grids import WignerGrid
from .trajectories import ObliqueRindler

__all__ = [
    "MirrorScene",
    "AbcCoefficients",
    "abc_coefficients",
    "image_point",
    "mirror_autocorr",
    "mirror_autocorr_regularized",
    "correction_R",
    "correction_lattice",
    "correction_grid",
    "mirror_wigner",
    "near_wall_limit",
    "stationary_mirror_spectrum",
    "scene_to_dict",
    "scene_from_dict",
]

ALPHA_SWITCH = 1e-4  # below this |alpha| the normal-incidence forms take over


@dataclass(frozen=True)
class MirrorScene:
    """Obstacle geometry: tilt alpha, offset xi0, acceleration scale xi."""

    xi: float
    xi0: float
    alpha: float
    c0: float = 1.0

    def __post_init__(self):
        if self.xi <= 0:
            raise ValueError("scene: xi must be > 0")
        if self.c0 <= 0:
            raise ValueError("scene: c0 must be > 0")
        if not -math.pi / 2 < self.alpha < math.pi / 2:
            raise ValueError("scene: alpha must be in (-pi/2, pi/2)")
        if not self.xi0 > -self.xi * math.cos(self.alpha):
            raise ValueError("scene: requires xi0 > -xi cos(alpha) (trajectory stays in z > 0)")

    @property
    def alpha0(self) -> float:
        return self.xi0 / self.xi

    @property
    def degenerate(self) -> bool:
        """True for the undetectable scene alpha = 0, xi0 = 0 (correction ~ delta(nu))."""
        return abs(self.alpha) < 1e-12 and abs(self.alpha0) < 1e-12

    def trajectory(self) -> ObliqueRindler:
        return ObliqueRindler(xi=self.xi, xi0=self.xi0, alpha=self.alpha)


@dataclass(frozen=True)
class AbcCoefficients:
    A: float
    B: float
    C: float


def _abc_arrays(alpha: float, alpha0, eta):
    eta = np.asarray(eta, dtype=float)
    ca = math.cos(alpha)
    a = math.sin(alpha) ** 2
    b = -2.0 * alpha0 * ca * np.cosh(eta)
    c = -1.0 - alpha0**2 - ca**2 * np.sinh(eta) ** 2
    return a, b, c


def abc_coefficients(scene: MirrorScene, eta: float) -> AbcCoefficients:
    """Quadratic coefficients at dimensionless time eta, admissibility-checked.

    A + C + |B| = -(cos(alpha) cosh(eta) - |alpha0|)^2 is <= 0 for every
    valid scene; it reaches 0 exactly where cosh(eta) = |alpha0|/cos(alpha)
    (possible whenever |alpha0| >= cos(alpha)), where the correction formulas
    take their removable limits.  A strictly positive value can only mean an
    internal error and raises.
    """
    a, b, c = _abc_arrays(scene.alpha, scene.alpha0, eta)
    gap = a + c + abs(float(b))
    if gap > 1e-12:
        raise RuntimeError(f"admissibility violated: A + C + |B| = {gap} > 0")
    return AbcCoefficients(float(a), float(b), float(c))


def image_point(scene: MirrorScene, tau: float) -> np.ndarray:
    """Mirror image of the observer position across the plane z = 0.

    (xi cosh(c0 tau/xi) sin(alpha), 0, -xi0 - xi cosh(c0 tau/xi) cos(alpha)).
    """
    r = scene.xi * math.cosh(scene.c0 * tau / scene.xi)
    return np.array([r * math.sin(scene.alpha), 0.0, -scene.xi0 - r * math.cos(scene.alpha)])


def mirror_autocorr(scene: MirrorScene, f0: float, tau, taup):
    """Two-term closed-form lag covariance in front of the mirror.

    Free term -k/sinh^2(eta'/2) plus image term k/(A cosh^2(eta'/2)
    + B cosh(eta'/2) + C), k = c0^2 f0/(16 pi^2 xi^2).  The image term has
    simple poles at isolated real lags (principal-value structure); values
    there are +-inf.
    """
    tau = np.asarray(tau, dtype=float)
    taup = np.asarray(taup, dtype=float)
    if np.any(taup == 0.0):
        raise ValueError("zero-lag rejected: the unregularized autocorrelation diverges at tau' = 0")
    eta = scene.c0 * tau / scene.xi
    etap = scene.c0 * taup / scene.xi
    a, b, c = _abc_arrays(scene.alpha, scene.alpha0, eta)
    k = scene.c0**2 * f0 / (16.0 * math.pi**2 * scene.xi**2)
    y = np.cosh(etap / 2.0)
    with np.errstate(divide="ignore"):
        out = -k / np.sinh(etap / 2.0) ** 2 + k / (a * y**2 + b * y + c)
    if out.ndim == 0:
        return float(out)
    return out


def _image_light_cone(scene: MirrorScene, eta, s):
    """(d_+, d_-) between the observer and its image in z = 0.

    d_+ d_- = Q = (2 xi/c0)^2 (A y^2 + B y + C), the quadratic of
    mirror_autocorr in y = cosh(eta'/2) = sqrt(1 + s^2).  d_+ = p = |dt| +
    rho_im is a sum of non-negative terms, p > 0 because the observer never
    touches the mirror, and d_- = Q/p.
    """
    # |dt| = scale cosh(eta) s; rho_im is over scale too
    scale = 2.0 * scene.xi / scene.c0
    y2 = 1.0 + s * s
    y = np.sqrt(y2)
    sa, ca = math.sin(scene.alpha), math.cos(scene.alpha)
    rho_im = np.sqrt((sa * np.sinh(eta) * s) ** 2 + (scene.alpha0 + ca * np.cosh(eta) * y) ** 2)
    p = scale * (np.cosh(eta) * s + rho_im)
    a, b, c = _abc_arrays(scene.alpha, scene.alpha0, eta)
    q = (scale**2 * a) * y2 + (scale**2 * b) * y + scale**2 * c
    return p, q / p


def mirror_autocorr_regularized(scene: MirrorScene, f0: float, eps: float, tau, taup):
    """Finite-energy mirror autocorrelation: free pair term minus image pair term.

    Both are freefield's light-cone pair term, with s = sinh(|eta'|/2) the
    only transcendental per lag.  Free: d_+- = (2 xi/c0) s e^{+-eta}.
    Image: see _image_light_cone.
    """
    tau = np.asarray(tau, dtype=float)
    taup = np.asarray(taup, dtype=float)
    eta = scene.c0 * tau / scene.xi
    s = np.sinh(np.abs(taup) * (scene.c0 / (2.0 * scene.xi)))
    ds = (2.0 * scene.xi / scene.c0) * s
    out = _light_cone_pair(ds * np.exp(eta), ds * np.exp(-eta), eps, f0)
    out = out - _light_cone_pair(*_image_light_cone(scene, eta, s), eps, f0)
    if out.ndim == 0:
        return float(out)
    return out


def _h_factor(nu):
    # 1/(2 cosh^2(pi nu)) == tanh(pi nu)/sinh(2 pi nu); 1 - h == tanh(pi nu)/tanh(2 pi nu)
    return 1.0 / (2.0 * np.cosh(np.pi * nu) ** 2)


def _terms(alpha, alpha0, eta):
    """Stage 1 of core_math's Psi evaluator for tilt alpha; alpha0 and eta broadcast."""
    if abs(alpha) >= ALPHA_SWITCH:
        return _terms_general(*_abc_arrays(alpha, alpha0, eta))
    # normal incidence: B = -2 alpha0 cosh(eta) and C = -(cosh^2(eta) + alpha0^2)
    # in their two-root form; the degenerate alpha0 = 0 has no correction here
    live = np.abs(alpha0) >= 1e-12
    c_plus, x_plus, c_minus, x_minus = _terms_normal(np.cosh(eta), np.where(live, alpha0, 1.0))
    return np.where(live, c_plus, 0.0), x_plus, np.where(live, c_minus, 0.0), x_minus


def _correction(terms, nu):
    """Stage 2 at v = 2 nu with the R weights (1 - h, h), broadcast against nu >= 0."""
    h = _h_factor(nu)
    return _spectral_sum(terms, 1.0 - h, h, 2.0 * nu)


def correction_R(scene: MirrorScene, eta, nu):
    """Relative deformation R(eta, nu) of the Planck spectrum by the mirror.

    Even in eta and in nu, and invariant under alpha -> -alpha (the
    localization sign ambiguity).  The degenerate scene alpha = alpha0 = 0
    contributes only at nu = 0 and returns 0 here (see MirrorScene.degenerate).
    Broadcasts over eta and nu.
    """
    eta = np.abs(np.asarray(eta, dtype=float))
    nu = np.abs(np.asarray(nu, dtype=float))
    out = _correction(_terms(scene.alpha, scene.alpha0, eta), nu)
    if out.ndim == 0:
        return float(out)
    return out


def correction_lattice(alpha: float, alpha0s, eta, nu):
    """R for one tilt over a row of offsets, shape (len(alpha0s), len(eta), len(nu)).

    Entry [i, j, k] is correction_R of the scene (alpha, alpha0s[i]) at
    (eta[j], nu[k]), from the same two stages; stage 1 runs once per
    (alpha0, eta) pair.  Every alpha0 must satisfy alpha0 > -cos(alpha).
    """
    if not -math.pi / 2 < alpha < math.pi / 2:
        raise ValueError("alpha must be in (-pi/2, pi/2)")
    alpha0s = np.asarray(alpha0s, dtype=float)
    if alpha0s.ndim != 1 or not np.all(alpha0s > -math.cos(alpha)):
        raise ValueError("alpha0s: need a 1-D row with every alpha0 > -cos(alpha)")
    eta = np.abs(np.asarray(eta, dtype=float))
    nu = np.abs(np.asarray(nu, dtype=float))
    terms = _terms(alpha, alpha0s[:, None, None], eta[None, :, None])
    return _correction(terms, nu)


def correction_grid(scene: MirrorScene, eta, nu) -> WignerGrid:
    """R sampled on the (eta, nu) lattice as a correction-kind grid."""
    eta = np.asarray(eta, dtype=float)
    nu = np.asarray(nu, dtype=float)
    values = correction_R(scene, eta[:, None], nu[None, :])
    return WignerGrid(eta, nu, values, window="analytic", kind="correction")


def mirror_wigner(scene: MirrorScene, f0: float, tau, omega):
    """Deformed Planck spectrum W0(omega) (1 - R(c0 tau/xi, xi omega/c0)).

    Can go locally negative: R exceeds 1 for some near-wall scenes.
    """
    tau = np.asarray(tau, dtype=float)
    omega = np.asarray(omega, dtype=float)
    w0 = rindler_wigner(scene.xi, f0, omega, scene.c0)
    r = correction_R(scene, scene.c0 * tau / scene.xi, scene.xi * omega / scene.c0)
    out = w0 * (1.0 - r)
    if np.ndim(out) == 0:
        return float(out)
    return out


def near_wall_limit(alpha: float, nu):
    """Asymptotic R at closest approach with the observer grazing the wall.

    1 - 1/(2 cosh^2 pi nu) at normal incidence; the oblique form keeps a
    tilt-dependent oscillatory factor.
    """
    if not -math.pi / 2 < alpha < math.pi / 2:
        raise ValueError("alpha must be in (-pi/2, pi/2)")
    nu = np.abs(np.asarray(nu, dtype=float))
    h = _h_factor(nu)
    if abs(alpha) < 1e-12:
        out = 1.0 - h
    else:
        t2 = math.tan(alpha) ** 2
        x = argcosh(1.0 + 2.0 / t2)
        denom = 4.0 * math.sqrt(1.0 / t2 + 1.0 / t2**2)
        osc = (2.0 * x / denom) * np.sinc(2.0 * nu * x / np.pi)
        out = 1.0 - h * (1.0 - osc)
    if out.ndim == 0:
        return float(out)
    return out


def stationary_mirror_spectrum(d: float, f0: float, omega, c0: float = 1.0):
    """(f0 |omega|/4pi)(1 - sinc(2 omega d / c0)) for an observer at distance d."""
    if d <= 0:
        raise ValueError("distance d must be > 0")
    omega = np.abs(np.asarray(omega, dtype=float))
    out = f0 * omega / (4.0 * math.pi) * (1.0 - np.sinc(2.0 * omega * d / c0 / math.pi))
    if out.ndim == 0:
        return float(out)
    return out


def scene_to_dict(scene: MirrorScene) -> dict:
    return {"xi": scene.xi, "xi0": scene.xi0, "alpha": scene.alpha, "c0": scene.c0}


def scene_from_dict(doc: dict) -> MirrorScene:
    allowed = {"xi", "xi0", "alpha", "c0"}
    unknown = set(doc) - allowed
    if unknown:
        raise ValueError(f"scene object: unknown keys {sorted(unknown)}")
    missing = {"xi", "xi0", "alpha"} - set(doc)
    if missing:
        raise ValueError(f"scene object: missing keys {sorted(missing)}")
    return MirrorScene(**doc)
