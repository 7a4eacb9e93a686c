"""Observer world-lines parameterized by proper time.

Every variant satisfies the relativistic clock constraint
t_dot^2 - |x_dot|^2 / c0^2 = 1 (checked numerically by proper_time_defect),
except the deliberately non-stationary quadratic probe, whose laboratory
time is obtained by integrating the constraint.

The stationarity diagnostics work on the centered interval function

    D(tau, tau') = |x(tau + tau'/2) - x(tau - tau'/2)|^2 / c0^2
                   - (t(tau + tau'/2) - t(tau - tau'/2))^2,

which is independent of tau exactly when the recorded noise (for a source
spectrum proportional to |omega|) is statistically stationary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "SpacetimeEvent",
    "Stationary",
    "Inertial",
    "Rindler",
    "ObliqueRindler",
    "Circular",
    "HelicoidConstant",
    "HelicoidAccelerated",
    "TestQuadratic",
    "TrajectorySpec",
    "evaluate",
    "trajectory_points",
    "proper_time_defect",
    "interval_function",
    "stationarity_defect",
    "acceleration_invariant",
    "trajectory_to_dict",
    "trajectory_from_dict",
]


@dataclass(frozen=True)
class SpacetimeEvent:
    """Laboratory time plus 3-D position."""

    t: float
    x: float
    y: float
    z: float

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


@dataclass(frozen=True)
class Stationary:
    """Observer at rest at x0 (laboratory time equals proper time)."""

    x0: tuple = (0.0, 0.0, 0.0)
    kind = "stationary"


@dataclass(frozen=True)
class Inertial:
    """Constant velocity v along the z-axis, |v| < c0."""

    v: float
    kind = "inertial"


@dataclass(frozen=True)
class Rindler:
    """Constant proper acceleration c0^2/xi along the z-axis."""

    xi: float
    kind = "rindler"

    def __post_init__(self):
        if self.xi <= 0:
            raise ValueError("rindler: xi must be > 0")


@dataclass(frozen=True)
class ObliqueRindler:
    """Rindler world-line tilted by alpha, closest approach at tau = 0.

    Position: (0, 0, xi0) + xi cosh(c0 tau / xi) (sin alpha, 0, cos alpha),
    constrained to the half-space z > 0 by xi0 > -xi cos(alpha).
    """

    xi: float
    xi0: float
    alpha: float
    kind = "oblique_rindler"

    def __post_init__(self):
        if self.xi <= 0:
            raise ValueError("oblique_rindler: xi must be > 0")
        if not -math.pi / 2 < self.alpha < math.pi / 2:
            raise ValueError("oblique_rindler: alpha must be in (-pi/2, pi/2)")
        if not self.xi0 > -self.xi * math.cos(self.alpha):
            raise ValueError("oblique_rindler: requires xi0 > -xi cos(alpha)")


@dataclass(frozen=True)
class Circular:
    """Uniform circular motion with Lorentz factor gamma and proper angular rate p."""

    gamma: float
    p: float
    kind = "circular"

    def __post_init__(self):
        if self.gamma <= 1:
            raise ValueError("circular: gamma must be > 1")
        if self.p <= 0:
            raise ValueError("circular: p must be > 0")


@dataclass(frozen=True)
class HelicoidConstant:
    """Helix at constant speed: circular motion mixed with a z-drift.

    alpha_mix in [0, 1] splits the kinetic budget between the circular part
    (alpha_mix) and the drift (1 - alpha_mix).
    """

    gamma: float
    p: float
    alpha_mix: float
    kind = "helicoid_constant"

    def __post_init__(self):
        if self.gamma <= 1:
            raise ValueError("helicoid_constant: gamma must be > 1")
        if self.p <= 0:
            raise ValueError("helicoid_constant: p must be > 0")
        if not 0.0 <= self.alpha_mix <= 1.0:
            raise ValueError("helicoid_constant: alpha_mix must be in [0, 1]")


@dataclass(frozen=True)
class HelicoidAccelerated:
    """Helix around a uniformly accelerated z-motion."""

    A: float
    xi: float
    p: float
    kind = "helicoid_accelerated"

    def __post_init__(self):
        if self.xi <= 0:
            raise ValueError("helicoid_accelerated: xi must be > 0")
        if self.p <= 0:
            raise ValueError("helicoid_accelerated: p must be > 0")


@dataclass(frozen=True)
class TestQuadratic:
    """Non-stationary control: z(tau) = beta tau^2."""

    beta: float
    kind = "test_quadratic"

    def __post_init__(self):
        if self.beta == 0:
            raise ValueError("test_quadratic: beta must be nonzero")


TrajectorySpec = Union[
    Stationary,
    Inertial,
    Rindler,
    ObliqueRindler,
    Circular,
    HelicoidConstant,
    HelicoidAccelerated,
    TestQuadratic,
]

_QUADRATIC_STEPS = 10_000


def _quadratic_lab_time(beta: float, tau: np.ndarray, c0: float) -> np.ndarray:
    # fixed-step RK4 on dt/dsigma = sqrt(1 + (2 beta sigma / c0)^2), from 0 to tau
    h = tau / _QUADRATIC_STEPS

    def f(sigma):
        return np.sqrt(1.0 + (2.0 * beta * sigma / c0) ** 2)

    t = np.zeros_like(tau)
    sigma = np.zeros_like(tau)
    for _ in range(_QUADRATIC_STEPS):
        k1 = f(sigma)
        k23 = f(sigma + 0.5 * h)
        k4 = f(sigma + h)
        t = t + h / 6.0 * (k1 + 4.0 * k23 + k4)
        sigma = sigma + h
    return t


def trajectory_points(spec: TrajectorySpec, tau, c0: float = 1.0):
    """Vectorized evaluation: returns (t, xyz) with xyz of shape (n, 3)."""
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    n = tau.shape[0]
    xyz = np.zeros((n, 3))

    if isinstance(spec, Stationary):
        t = tau.copy()
        xyz[:] = np.asarray(spec.x0, dtype=float)
    elif isinstance(spec, Inertial):
        if not abs(spec.v) < c0:
            raise ValueError("inertial: |v| must be < c0")
        gamma = 1.0 / math.sqrt(1.0 - (spec.v / c0) ** 2)
        t = gamma * tau
        xyz[:, 2] = gamma * spec.v * tau
    elif isinstance(spec, Rindler):
        eta = c0 * tau / spec.xi
        t = (spec.xi / c0) * np.sinh(eta)
        xyz[:, 2] = spec.xi * np.cosh(eta)
    elif isinstance(spec, ObliqueRindler):
        eta = c0 * tau / spec.xi
        t = (spec.xi / c0) * np.sinh(eta)
        r = spec.xi * np.cosh(eta)
        xyz[:, 0] = r * math.sin(spec.alpha)
        xyz[:, 2] = spec.xi0 + r * math.cos(spec.alpha)
    elif isinstance(spec, Circular):
        radius = c0 * math.sqrt(spec.gamma**2 - 1.0) / spec.p
        t = spec.gamma * tau
        xyz[:, 0] = radius * np.cos(spec.p * tau)
        xyz[:, 1] = radius * np.sin(spec.p * tau)
    elif isinstance(spec, HelicoidConstant):
        speed = c0 * math.sqrt(spec.gamma**2 - 1.0)
        radius = speed * math.sqrt(spec.alpha_mix) / spec.p
        t = spec.gamma * tau
        xyz[:, 0] = radius * np.cos(spec.p * tau)
        xyz[:, 1] = radius * np.sin(spec.p * tau)
        xyz[:, 2] = speed * math.sqrt(1.0 - spec.alpha_mix) * tau
    elif isinstance(spec, HelicoidAccelerated):
        eta = c0 * tau / spec.xi
        amp = math.sqrt(spec.A**2 + 1.0)
        t = amp * (spec.xi / c0) * np.sinh(eta)
        xyz[:, 0] = (c0 * spec.A / spec.p) * np.cos(spec.p * tau)
        xyz[:, 1] = (c0 * spec.A / spec.p) * np.sin(spec.p * tau)
        xyz[:, 2] = spec.xi * amp * np.cosh(eta)
    elif isinstance(spec, TestQuadratic):
        t = _quadratic_lab_time(spec.beta, tau, c0)
        xyz[:, 2] = spec.beta * tau**2
    else:
        raise TypeError(f"unknown trajectory spec {spec!r}")
    return t, xyz


def evaluate(spec: TrajectorySpec, tau: float, c0: float = 1.0) -> SpacetimeEvent:
    """Exact analytic evaluation of the world-line at one proper time."""
    t, xyz = trajectory_points(spec, [tau], c0)
    return SpacetimeEvent(float(t[0]), float(xyz[0, 0]), float(xyz[0, 1]), float(xyz[0, 2]))


def proper_time_defect(spec: TrajectorySpec, tau_grid, c0: float = 1.0) -> float:
    """max over the grid of |t_dot^2 - |x_dot|^2/c0^2 - 1| (central differences)."""
    tau = np.asarray(tau_grid, dtype=float)
    h = 1e-5 * (tau.max() - tau.min())
    t_p, x_p = trajectory_points(spec, tau + h, c0)
    t_m, x_m = trajectory_points(spec, tau - h, c0)
    t_dot = (t_p - t_m) / (2.0 * h)
    v = (x_p - x_m) / (2.0 * h)
    defect = t_dot**2 - np.sum(v**2, axis=1) / c0**2 - 1.0
    return float(np.max(np.abs(defect)))


def interval_function(spec: TrajectorySpec, tau, taup, c0: float = 1.0):
    """Centered interval D(tau, tau') between the events at tau +- tau'/2.

    Split along the light cone of the world-line's boost axis n,
    D = |dx_perp|^2 / c0^2 - d_minus d_plus with d_-+ = dt -+ (n . dx) / c0
    and dx_perp the part of dx normal to n.  Along the hyperbolic
    world-lines (t, n . x / c0) = amp (xi / c0) (sinh, cosh)(c0 tau / xi), so
    d_-+ = 2 amp (xi / c0) sinh(c0 tau' / 2 xi) e^{-+c0 tau / xi} by the
    difference identities; formed from dt and n . dx instead, the product
    cancels terms of size cosh^2(c0 tau / xi).
    """
    tau = np.asarray(tau, dtype=float)
    taup = np.asarray(taup, dtype=float)
    tau_b, taup_b = np.broadcast_arrays(tau, taup)
    shape = tau_b.shape
    tau_b, taup_b = tau_b.ravel(), taup_b.ravel()
    t_p, x_p = trajectory_points(spec, tau_b + taup_b / 2.0, c0)
    t_m, x_m = trajectory_points(spec, tau_b - taup_b / 2.0, c0)
    alpha = spec.alpha if isinstance(spec, ObliqueRindler) else 0.0
    n = np.array([math.sin(alpha), 0.0, math.cos(alpha)])
    dx_n = (x_p - x_m) @ n
    dx_perp = (x_p - x_m) - dx_n[:, None] * n
    if isinstance(spec, (Rindler, ObliqueRindler, HelicoidAccelerated)):
        amp = math.sqrt(spec.A**2 + 1.0) if isinstance(spec, HelicoidAccelerated) else 1.0
        s = 2.0 * amp * (spec.xi / c0) * np.sinh(c0 * taup_b / (2.0 * spec.xi))
        d_minus = s * np.exp(-c0 * tau_b / spec.xi)
        d_plus = s * np.exp(c0 * tau_b / spec.xi)
    else:
        d_minus = (t_p - t_m) - dx_n / c0
        d_plus = (t_p - t_m) + dx_n / c0
    d = np.sum(dx_perp**2, axis=1) / c0**2 - d_minus * d_plus
    if shape == ():
        return float(d[0])
    return d.reshape(shape)


def stationarity_defect(spec: TrajectorySpec, tau_grid, taup_grid, c0: float = 1.0) -> float:
    """tau-variation of D(tau, tau'), normalized by max |D| over the grids.

    Zero exactly when the recorded signal is stationary for a source
    spectrum proportional to |omega|.
    """
    tau = np.asarray(tau_grid, dtype=float)
    taup = np.asarray(taup_grid, dtype=float)
    d = interval_function(spec, tau[:, None], taup[None, :], c0)
    scale = np.max(np.abs(d))
    if scale == 0.0:
        return 0.0
    spread = np.max(d, axis=0) - np.min(d, axis=0)
    return float(np.max(spread) / scale)


def acceleration_invariant(spec: TrajectorySpec, tau: float, c0: float = 1.0, h: float = 1e-4) -> float:
    """|V_dot|^2 - (V . V_dot)^2 / (1 + |V|^2) with V = x_dot / c0.

    Constant in tau for every stationary world-line implemented here; the
    converse is conjectural and is not asserted anywhere.
    """
    _, x_p = trajectory_points(spec, [tau + h], c0)
    _, x_0 = trajectory_points(spec, [tau], c0)
    _, x_m = trajectory_points(spec, [tau - h], c0)
    v = (x_p[0] - x_m[0]) / (2.0 * h * c0)
    vdot = (x_p[0] - 2.0 * x_0[0] + x_m[0]) / (h**2 * c0)
    v2 = float(v @ v)
    return float(vdot @ vdot - (v @ vdot) ** 2 / (1.0 + v2))


_KINDS = {
    "stationary": Stationary,
    "inertial": Inertial,
    "rindler": Rindler,
    "oblique_rindler": ObliqueRindler,
    "circular": Circular,
    "helicoid_constant": HelicoidConstant,
    "helicoid_accelerated": HelicoidAccelerated,
    "test_quadratic": TestQuadratic,
}

_FIELDS = {
    "stationary": ("x0",),
    "inertial": ("v",),
    "rindler": ("xi",),
    "oblique_rindler": ("xi", "xi0", "alpha"),
    "circular": ("gamma", "p"),
    "helicoid_constant": ("gamma", "p", "alpha_mix"),
    "helicoid_accelerated": ("A", "xi", "p"),
    "test_quadratic": ("beta",),
}


def trajectory_to_dict(spec: TrajectorySpec) -> dict:
    out = {"kind": spec.kind}
    for name in _FIELDS[spec.kind]:
        value = getattr(spec, name)
        out[name] = list(value) if isinstance(value, tuple) else value
    return out


def trajectory_from_dict(doc: dict) -> TrajectorySpec:
    if "kind" not in doc:
        raise ValueError("trajectory object needs a 'kind' key")
    kind = doc["kind"]
    if kind not in _KINDS:
        raise ValueError(f"unknown trajectory kind {kind!r}")
    expected = set(_FIELDS[kind])
    given = set(doc) - {"kind"}
    if given != expected:
        raise ValueError(f"trajectory {kind!r}: expected fields {sorted(expected)}, got {sorted(given)}")
    kwargs = {k: (tuple(v) if k == "x0" else v) for k, v in doc.items() if k != "kind"}
    return _KINDS[kind](**kwargs)
