"""Shared analytic kernels.

Closed-form evaluation of the oscillatory integral

    Psi(v; a, b, c) = PV int_R exp(i v s) / (a cosh^2 s + b cosh s + c) ds

on the admissible domain a in [0,1), c <= -1, a + c + |b| < 0, together with
an independent principal-value quadrature oracle, the 3-D homogeneous
Green's function, and a randomized surface-quadrature check of the
Helmholtz-Kirchhoff identity.

For a > 0 (and for a = 0, b > 0) the denominator has simple real roots at
+-argcosh of the positive root of the quadratic in cosh(s); both the closed
form and the oracle treat the integral as a principal value there.  The
closed form runs in two vectorized stages, one per (a, b, c) and one per
frequency; psi_closed and the mirror correction R (mirror.correction_R,
mirror.correction_lattice) share them and differ only in the stage-2 weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad

__all__ = [
    "QuadratureError",
    "PsiParams",
    "PsiResult",
    "QuadratureConfig",
    "sinc",
    "argcosh",
    "psi_closed",
    "psi_quadrature",
    "psi_quadrature_full",
    "green_hom",
    "hk_surface_quadrature",
    "hk_residual",
]

# Below these, a (resp. b) is treated as exactly 0: a < A_ZERO takes the a = 0
# closed form, and a = b = 0 is the delta case.
A_ZERO = 1e-10
B_ZERO = 1e-10


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge within its budget."""


def sinc(x):
    """sin(x)/x with the removable singularity at 0 filled.

    Even in x, bounded by 1 in modulus.  Accepts scalars or arrays.
    """
    # at x = 0 the floor gives sin(1e-300)/1e-300 == 1
    x = np.maximum(np.abs(np.asarray(x, dtype=float)), 1e-300)
    out = np.sin(x) / x
    if out.ndim == 0:
        return float(out)
    return out


def argcosh(x):
    """Inverse hyperbolic cosine via log(x + sqrt((x-1)(x+1))).

    Arguments that round slightly below 1 are clamped to 1 instead of
    producing NaN.
    """
    x = np.maximum(np.asarray(x, dtype=float), 1.0)
    out = np.log(x + np.sqrt((x - 1.0) * (x + 1.0)))
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class PsiParams:
    """Parameters (a, b, c) of the Psi integral denominator.

    Invariants: a in [0, 1), c <= -1, a + c + |b| < 0.  The last one is what
    keeps the quadratic a y^2 + b y + c (y = cosh s) root-separated from
    y = 1, so the integral is well defined as a principal value.
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        if not (0.0 <= self.a < 1.0):
            raise ValueError(f"invalid-params: a={self.a} not in [0, 1)")
        if not self.c <= -1.0:
            raise ValueError(f"invalid-params: c={self.c} must be <= -1")
        if not self.a + self.c + abs(self.b) < 0.0:
            raise ValueError(
                f"invalid-params: a + c + |b| = {self.a + self.c + abs(self.b)} must be < 0"
            )


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and truncation for the quadrature oracle."""

    atol: float = 1e-12
    rtol: float = 1e-10
    half_width: float = 40.0
    max_subdivisions: int = 400

    def __post_init__(self):
        if self.atol <= 0 or self.rtol <= 0:
            raise ValueError("tolerances must be > 0")
        if self.half_width <= 0:
            raise ValueError("half_width must be > 0")


class PsiResult(NamedTuple):
    value: float
    is_delta: bool


# Psi is evaluated in two stages.  Stage 1 depends only on (a, b, c) and
# reduces the residues at the two roots of the quadratic in cosh(s) to two
# terms (c+, x+) and (c-, x-); stage 2 adds the frequency,
#
#     Psi(v) = w+(v) c+ sinc(v x+) + w-(v) c- sinc(v x-),
#     w+ = -pi v / tanh(pi v),   w- = -pi v / sinh(pi v).
#
# mirror.correction_R runs the same two stages with its own weights, so the
# roots, logarithms and square roots are computed once per (a, b, c).


def _lead(x):
    # x / sinh x, removable at x = 0 (-> 1)
    small = x < 1e-8
    x_safe = np.where(small, 1.0, x)
    return np.where(small, 1.0 - x * x / 6.0, x / np.sinh(x_safe))


def _terms_general(a, b, c):
    """Stage 1 for a > 0: (c+, x+, c-, x-) from the quadratic coefficients.

    Covers b = 0 exactly, where the roots are +-sqrt(-c/a).  Broadcasts.
    """
    sq = np.sqrt(b * b - 4.0 * a * c)
    # large-magnitude root by the non-cancelling branch, the other by Vieta
    neg_b = b < 0
    root_big = np.where(neg_b, (-b + sq) / (2.0 * a), (-b - sq) / (2.0 * a))
    root_other = c / (a * root_big)
    x_plus = argcosh(np.where(neg_b, root_big, root_other))
    x_minus = argcosh(-np.where(neg_b, root_other, root_big))
    scale = 2.0 / sq
    return scale * _lead(x_plus), x_plus, scale * _lead(x_minus), x_minus


def _terms_normal(u, w):
    """Stage 1 for a = 0, with b = -2uw and c = -(u^2 + w^2), u > 0 and w != 0.

    Then x+ = x- = |log(u/|w|)| = argcosh(|c/b|), and only the + term
    (w < 0, so b > 0) or the - term (w > 0) is live.  Broadcasts.
    """
    q = np.abs(np.log(u / np.abs(w)))
    s = np.abs(u * u - w * w)
    # 2 q / s with the grazing degeneracy q, s -> 0 (q/s -> 1/(2 w^2))
    tiny = s < 1e-12 * (u * u + w * w)
    ratio = np.where(tiny, 1.0 / (w * w), 2.0 * q / np.where(tiny, 1.0, s))
    return np.where(w < 0, ratio, 0.0), q, np.where(w > 0, ratio, 0.0), q


def _spectral_sum(terms, w_plus, w_minus, v):
    """Stage 2: w+ c+ sinc(v x+) + w- c- sinc(v x-), broadcast against v >= 0."""
    c_plus, x_plus, c_minus, x_minus = terms
    return w_plus * c_plus * sinc(v * x_plus) + w_minus * c_minus * sinc(v * x_minus)


def psi_closed(v: float, p: PsiParams) -> PsiResult:
    """Closed-form Psi(v; a, b, c) from the residues at the two roots.

    Returns a (value, is_delta) pair.  The degenerate a = b = 0 case is a
    pure point mass at v = 0: the value is 0 for every v != 0 and the
    is_delta flag is set (the mass 2 pi / c is not representable as a
    number at a point).

    The result is even in v by construction (evaluated at |v|), finite and
    real everywhere on the admissible parameter domain.
    """
    a, b, c = p.a, p.b, p.c
    v = abs(float(v))
    if a >= A_ZERO:
        terms = _terms_general(a, b, c)
    elif abs(b) >= B_ZERO:
        # b = -2uw, c = -(u^2 + w^2): u + |w| = sqrt(|b| - c), u - |w| = sqrt(-c - |b|)
        pq = math.sqrt(abs(b) - c) + math.sqrt(-c - abs(b))
        terms = _terms_normal(pq / 2.0, -b / pq)
    elif v == 0.0:
        raise ValueError("delta case: Psi(0; 0, 0, c) is a point mass, not a number")
    else:
        return PsiResult(0.0, True)
    y = math.pi * v
    # both weights tend to -1 as v -> 0
    w_plus, w_minus = (-y / math.tanh(y), -y / math.sinh(y)) if y > 0.0 else (-1.0, -1.0)
    return PsiResult(float(_spectral_sum(terms, w_plus, w_minus, v)), False)


def _real_poles(p: PsiParams):
    """Positive real roots s0 of a cosh^2 s + b cosh s + c = 0."""
    a, b, c = p.a, p.b, p.c
    if a >= A_ZERO:
        sq = math.sqrt(b * b - 4.0 * a * c)
        if b < 0:
            c_plus = (-b + sq) / (2.0 * a)
        else:
            c_plus = c / (a * (-b - sq) / (2.0 * a))
        if c_plus > 1.0:
            return [argcosh(c_plus)]
        return []
    if b > B_ZERO and -p.c / b > 1.0:
        return [argcosh(-p.c / b)]
    return []


def psi_quadrature_full(v: float, p: PsiParams, q: QuadratureConfig = QuadratureConfig()) -> complex:
    """Psi(v; a, b, c) by adaptive principal-value quadrature over [-S, S].

    Independent oracle for psi_closed.  Real poles are handled by
    symmetrizing the integrand around each pole (the odd singular part
    cancels exactly); the remaining panels use plain adaptive quadrature.
    Returns the full complex value; the imaginary part is a self-check and
    should sit at the tolerance floor.
    """
    a, b, c = p.a, p.b, p.c
    S = q.half_width

    # analytic tail bound of the truncated integrand
    if a >= A_ZERO:
        tail = 8.0 * math.exp(-2.0 * S) / a
    elif abs(b) > B_ZERO:
        tail = 4.0 * math.exp(-S) / abs(b)
    else:
        tail = 2.0 * math.exp(-S) / abs(c)
    if tail > 0.1 * q.atol:
        raise ValueError(f"truncation half_width {S} too small: tail bound {tail:.3e}")

    def f_re(s):
        return math.cos(v * s) / (a * math.cosh(s) ** 2 + b * math.cosh(s) + c)

    def f_im(s):
        return math.sin(v * s) / (a * math.cosh(s) ** 2 + b * math.cosh(s) + c)

    def panel(f, lo, hi):
        val, err = quad(f, lo, hi, epsabs=q.atol, epsrel=q.rtol, limit=q.max_subdivisions)
        if err > max(q.atol, q.rtol * abs(val)) * 50.0:
            raise QuadratureError(
                f"quadrature on [{lo}, {hi}] did not converge: error estimate {err:.3e}"
            )
        return val

    poles = _real_poles(p)
    total_re = 0.0
    total_im = 0.0
    if not poles:
        total_re = panel(f_re, -S, S)
        total_im = panel(f_im, -S, S)
    else:
        s0 = poles[0]
        d = 0.5 * min(s0, S - s0)
        for f, acc in ((f_re, "re"), (f_im, "im")):
            def sym_pos(u, f=f):
                return f(s0 + u) + f(s0 - u)

            def sym_neg(u, f=f):
                return f(-s0 + u) + f(-s0 - u)

            val = panel(sym_pos, 0.0, d) + panel(sym_neg, 0.0, d)
            val += panel(f, -s0 + d, s0 - d)
            val += panel(f, s0 + d, S) + panel(f, -S, -s0 - d)
            if acc == "re":
                total_re = val
            else:
                total_im = val
    return complex(total_re, total_im)


def psi_quadrature(v: float, p: PsiParams, q: QuadratureConfig = QuadratureConfig()) -> float:
    """Real part of the quadrature oracle, after the imaginary self-check."""
    z = psi_quadrature_full(v, p, q)
    if abs(z.imag) > max(q.atol * 100.0, q.rtol * abs(z.real) * 10.0):
        raise QuadratureError(f"imaginary residue {z.imag:.3e} above tolerance")
    return z.real


def green_hom(omega: float, x, y, c0: float = 1.0) -> complex:
    """3-D homogeneous Green's function exp(i (omega/c0) |x-y|) / (4 pi |x-y|)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = float(np.linalg.norm(x - y))
    if r == 0.0:
        raise ValueError("coincident-points: green_hom requires x != y")
    return np.exp(1j * omega / c0 * r) / (4.0 * math.pi * r)


def _uniform_sphere(rng, n):
    g = rng.standard_normal((n, 3))
    return g / np.linalg.norm(g, axis=1)[:, None]


def _fibonacci_sphere(n):
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    phi = 2.0 * math.pi * i * (2.0 / (1.0 + math.sqrt(5.0)))
    r = np.sqrt(1.0 - z * z)
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def hk_surface_quadrature(
    omega: float,
    x1,
    x2,
    L: float,
    n_nodes: int,
    c0: float = 1.0,
    seed: int = 0,
    lattice: bool = False,
) -> complex:
    """Surface quadrature of conj(G(x1, .)) G(x2, .) over the sphere |y| = L.

    Default: n_nodes uniform random nodes from a Philox stream keyed by the
    seed (deterministic given (seed, n_nodes)), with O(n^-1/2) sampling error.
    lattice=True replaces them with a Fibonacci lattice (seed ignored), whose
    quadrature error is negligible for these smooth integrands; useful to
    isolate the deterministic finite-L residual.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    k = omega / c0
    total = 0.0 + 0.0j
    rng = None if lattice else np.random.Generator(np.random.Philox(key=seed))
    chunk = 1_000_000
    done = 0
    while done < n_nodes:
        m = min(chunk, n_nodes - done)
        if lattice:
            dirs = _fibonacci_sphere(n_nodes)[done : done + m]
        else:
            dirs = _uniform_sphere(rng, m)
        y = L * dirs
        r1 = np.linalg.norm(y - x1, axis=1)
        r2 = np.linalg.norm(y - x2, axis=1)
        vals = np.exp(1j * k * (r2 - r1)) / (16.0 * math.pi**2 * r1 * r2)
        total += vals.sum()
        done += m
    return total * (4.0 * math.pi * L**2 / n_nodes)


def hk_residual(
    omega: float, x1, x2, L: float, n_nodes: int, c0: float = 1.0, seed: int = 0
) -> float:
    """Relative error of the Helmholtz-Kirchhoff identity at sphere radius L.

    Compares Im G(omega, x1, x2) = (omega / 4 pi c0) sinc(omega |x1-x2| / c0)
    against (omega/c0) times the surface quadrature.  Expected to decay like
    O(1/L) with an O(n_nodes^-1/2) Monte-Carlo floor.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    r = float(np.linalg.norm(x1 - x2))
    lhs = omega / (4.0 * math.pi * c0) * sinc(omega * r / c0)
    rhs = (omega / c0) * hk_surface_quadrature(omega, x1, x2, L, n_nodes, c0, seed)
    return float(abs(lhs - rhs) / abs(lhs))
