"""Inverse problem: recover the obstacle pose from an observed correction grid.

The observed R(eta, nu) surface is fit by least squares against the closed
form, over the tilt |alpha| and the offset ratio alpha0 = xi0/xi.  The
acceleration scale xi is known to the observer and is not fitted.  R is
invariant under alpha -> -alpha, so only the non-negative representative is
identifiable; results always report alpha_hat >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from numbers import Integral, Real

import numpy as np
from scipy.optimize import minimize

from .grids import WignerGrid
from .mirror import MirrorScene, correction_lattice, correction_R

__all__ = [
    "FitConfig",
    "LocalizationResult",
    "DistanceFitResult",
    "objective",
    "fit_scene",
    "fit_distance_stationary",
]

_STDERR_FLOOR = 1e-6
_PENALTY = 1e30
_KINDS = {"int": Integral, "float": Real, "str": str}  # FitConfig field types


@dataclass(frozen=True)
class FitConfig:
    n_alpha: int = 60
    n_alpha0: int = 60
    alpha0_max: float = 10.0
    refinement_tol: float = 1e-16
    max_evaluations: int = 8000
    weight_mode: str = "auto"  # uniform | inverse-variance | auto
    no_obstacle_residual: float = 1e-4  # threshold on per-point mean-square mismatch

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _KINDS[f.type]):
                raise TypeError(f"{f.name} must be of type {f.type}, got {value!r}")
        if self.n_alpha < 2 or self.n_alpha0 < 2:
            raise ValueError("grid resolutions must be >= 2")
        # the coarse offsets run from -1 + 2/n_alpha0 up to alpha0_max
        start = -1.0 + 2.0 / self.n_alpha0
        if not self.alpha0_max > start:
            raise ValueError(
                f"alpha0_max={self.alpha0_max} must exceed the first coarse offset "
                f"-1 + 2/n_alpha0 = {start} (n_alpha0={self.n_alpha0})"
            )
        if self.weight_mode not in ("uniform", "inverse-variance", "auto"):
            raise ValueError(f"unknown weight mode {self.weight_mode!r}")


@dataclass
class LocalizationResult:
    alpha_hat: float
    alpha0_hat: float
    residual: float
    evaluations: int
    trace: list = field(default_factory=list)
    no_obstacle: bool = False
    budget_exhausted: bool = False

    def to_dict(self) -> dict:
        return {
            "alpha_hat": self.alpha_hat,
            "alpha0_hat": self.alpha0_hat,
            "residual": self.residual,
            "evaluations": self.evaluations,
            "no_obstacle": self.no_obstacle,
            "budget_exhausted": self.budget_exhausted,
            "sign_ambiguity": "R is even in alpha; -alpha_hat fits equally well",
            "trace": [[a, b, f] for (a, b, f) in self.trace],
        }


@dataclass
class DistanceFitResult:
    d_hat: float
    residual: float
    evaluations: int
    at_boundary: bool = False
    no_obstacle: bool = False

    def to_dict(self) -> dict:
        return {
            "d_hat": self.d_hat,
            "residual": self.residual,
            "evaluations": self.evaluations,
            "at_boundary": self.at_boundary,
            "no_obstacle": self.no_obstacle,
        }


def _weights_for(r_obs: WignerGrid, mode: str):
    if mode == "auto":
        mode = "inverse-variance" if r_obs.stderr is not None else "uniform"
    if mode == "inverse-variance":
        if r_obs.stderr is None:
            raise ValueError("inverse-variance weighting needs a stderr grid")
        return 1.0 / np.maximum(r_obs.stderr, _STDERR_FLOOR) ** 2
    return np.ones_like(r_obs.values)


def _folded_eta(r_obs: WignerGrid):
    # R is even in eta: the model is evaluated on the distinct |eta| and
    # gathered back onto the observed rows through the inverse index
    return np.unique(np.abs(r_obs.eta), return_inverse=True)


def objective(r_obs: WignerGrid, alpha: float, alpha0: float, xi: float = 1.0,
              c0: float = 1.0, weights=None) -> float:
    """Weighted squared mismatch between the observed and model corrections."""
    if not -math.pi / 2 < alpha < math.pi / 2:
        raise ValueError("inadmissible: |alpha| must be < pi/2")
    if not alpha0 > -math.cos(alpha):
        raise ValueError("inadmissible: alpha0 must exceed -cos(alpha)")
    if weights is None:
        weights = np.ones_like(r_obs.values)
    scene = MirrorScene(xi=xi, xi0=alpha0 * xi, alpha=alpha, c0=c0)
    eta, inverse = _folded_eta(r_obs)
    model = correction_R(scene, eta[:, None], r_obs.nu[None, :])[inverse]
    return float(np.sum(weights * (r_obs.values - model) ** 2))


def fit_scene(r_obs: WignerGrid, xi: float = 1.0, c0: float = 1.0,
              cfg: FitConfig = FitConfig()) -> LocalizationResult:
    """Coarse grid search plus simplex refinement of (alpha, alpha0).

    The coarse grid is scored one alpha row per correction_lattice call.
    The refinement is the reflection-contraction simplex (Nelder-Mead),
    stopped when the simplex objective spread falls below refinement_tol or
    the evaluation budget runs out (then the best-so-far is returned with
    budget_exhausted set).
    """
    weights = _weights_for(r_obs, cfg.weight_mode)
    trace = []
    state = {"evals": 0}

    def penalized(x):
        alpha, alpha0 = x
        alpha = abs(alpha)
        if alpha >= math.pi / 2 - 1e-9 or alpha0 <= -math.cos(alpha) + 1e-9:
            return _PENALTY
        if alpha0 > cfg.alpha0_max:
            return _PENALTY
        state["evals"] += 1
        val = objective(r_obs, alpha, alpha0, xi, c0, weights)
        trace.append((alpha, alpha0, val))
        return val

    # coarse lattice, one alpha row per model evaluation; the points kept
    # lie inside the penalized domain, so each row is scored directly
    alphas = np.linspace(0.0, math.pi / 2 * (1.0 - 1.0 / cfg.n_alpha), cfg.n_alpha)
    alpha0s = np.linspace(-1.0 + 2.0 / cfg.n_alpha0, cfg.alpha0_max, cfg.n_alpha0)
    eta, inverse = _folded_eta(r_obs)
    best = None
    for a in alphas:
        row = alpha0s[alpha0s > -math.cos(a) + 1e-6]
        if row.size == 0:
            continue
        model = correction_lattice(a, row, eta, r_obs.nu)[:, inverse, :]
        vals = np.sum(weights * (r_obs.values - model) ** 2, axis=(1, 2))
        state["evals"] += row.size
        for b, val in zip(row, vals):
            val = float(val)
            trace.append((a, b, val))
            if best is None or val < best[2]:
                best = (a, b, val)
    if best is None:
        raise ValueError("no-admissible-point: the search grids miss the admissible region")

    budget = max(cfg.max_evaluations - state["evals"], 10)
    res = minimize(
        penalized,
        x0=np.array(best[:2]),
        method="Nelder-Mead",
        options={
            "fatol": cfg.refinement_tol,
            "xatol": 1e-12,
            "maxfev": budget,
            "initial_simplex": _initial_simplex(best[0], best[1], alphas, alpha0s),
        },
    )
    alpha_hat = abs(float(res.x[0]))
    alpha0_hat = float(res.x[1])
    residual = float(res.fun)
    exhausted = not res.success and res.nfev >= budget
    per_point = residual / r_obs.values.size
    no_obstacle = per_point < cfg.no_obstacle_residual and alpha0_hat >= 0.98 * cfg.alpha0_max
    return LocalizationResult(
        alpha_hat=alpha_hat,
        alpha0_hat=alpha0_hat,
        residual=residual,
        evaluations=state["evals"],
        trace=trace,
        no_obstacle=no_obstacle,
        budget_exhausted=exhausted,
    )


def _initial_simplex(a: float, b: float, alphas, alpha0s):
    da = max(0.5 * (alphas[1] - alphas[0]), 1e-3)
    db = max(0.5 * (alpha0s[1] - alpha0s[0]), 1e-3)
    if a + da >= math.pi / 2:
        da = -da
    return np.array([[a, b], [a + da, b], [a, b + db]])


def fit_distance_stationary(omega, w_values, f0: float, c0: float = 1.0) -> DistanceFitResult:
    """Least-squares distance of a stationary observer from its spectrum.

    Fits (f0 |w|/4pi)(1 - sinc(2 w d/c0)) over a log-spaced d grid spanning
    what the sampled band can resolve, then refines by golden section.
    """
    omega = np.asarray(omega, dtype=float)
    w_values = np.asarray(w_values, dtype=float)
    if omega.size < 8:
        raise ValueError("band-too-narrow: need at least 8 spectral samples")
    band = float(np.max(omega) - np.min(omega))
    d_omega = float(np.max(np.diff(np.sort(omega))))
    # >= 4 samples per sinc period pi c0/d limits d from above; at least one
    # oscillation across the band limits it from below
    d_max = math.pi * c0 / (4.0 * d_omega)
    d_min = math.pi * c0 / band
    if not d_max > 2.0 * d_min:
        raise ValueError("band-too-narrow: sampled band cannot bracket the distance")

    base = f0 * np.abs(omega) / (4.0 * math.pi)

    def mismatch(d):
        model = base * (1.0 - np.sinc(2.0 * omega * d / c0 / math.pi))
        return float(np.sum((w_values - model) ** 2))

    d_grid = np.geomspace(d_min, d_max, 400)
    vals = np.array([mismatch(d) for d in d_grid])
    i = int(np.argmin(vals))
    lo = d_grid[max(i - 1, 0)]
    hi = d_grid[min(i + 1, d_grid.size - 1)]
    evals = d_grid.size

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = mismatch(x1), mismatch(x2)
    evals += 2
    for _ in range(80):
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = mismatch(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = mismatch(x2)
        evals += 1
    d_hat = float(0.5 * (lo + hi))
    residual = mismatch(d_hat)
    at_boundary = bool(d_hat >= 0.98 * d_max or d_hat <= 1.02 * d_min)
    scale = float(np.sum(base**2)) + 1e-300
    return DistanceFitResult(
        d_hat=d_hat,
        residual=residual,
        evaluations=evals,
        at_boundary=at_boundary,
        no_obstacle=bool(at_boundary and residual / scale < 1e-3),
    )
