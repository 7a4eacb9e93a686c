"""Monte-Carlo synthesis of the ambient noise field and record estimators.

The field is a finite superposition of uncorrelated plane waves

    u(t, x) = 2 Re sum_j a_j exp[i(k_j . x - c0|k_j| t)]

with circular complex Gaussian amplitudes of variance A(|k_j|) V_j, where
V_j is the importance-sampling weight of mode j.  Directions are uniform on
the sphere and |k| follows the exact radial law of the regularized spectrum,
a Gamma(2, 1/(eps c0)) draw, under which A(|k_j|) V_j is constant:
f0 / (8 pi^2 eps^2 N) per mode.  In half-space mode each wave carries its
image partner (e^{i k.x} - e^{i k.x^s}) with the variance halved, which
reproduces the Dirichlet covariance exactly at the ensemble level.

Realization r of a run with master seed s draws from a Philox stream with
key (s mod 2^64) | ((r+1) << 64): counter-based splitting, so any
realization is reproducible in isolation and results do not depend on how
realizations are scheduled across workers.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import kernels
from .freefield import SourceSpectrum, regularized_pair_term, windowed_dft
from .grids import CorrelationGrid, WignerGrid, window_function
from .trajectories import SpacetimeEvent, TrajectorySpec, trajectory_points

__all__ = [
    "PlaneWaveEnsemble",
    "EstimatorConfig",
    "realization_key",
    "sample_ensemble",
    "field_at",
    "estimate_autocorr",
    "estimate_wigner",
    "covariance_residual",
]

_MASK64 = (1 << 64) - 1
_CHUNK = 32  # realizations per reduction chunk (fixed: determinism contract)


@dataclass(frozen=True)
class PlaneWaveEnsemble:
    """One realization of the plane-wave synthesis."""

    k: np.ndarray        # (N, 3) wave vectors
    omega: np.ndarray    # (N,) temporal frequencies c0 |k|
    amp: np.ndarray      # (N,) complex amplitudes
    weights: np.ndarray  # (N,) importance-sampling stratum volumes V_j
    seed: int
    half_space: bool
    c0: float

    @property
    def n_waves(self) -> int:
        return self.omega.size


@dataclass(frozen=True)
class EstimatorConfig:
    """Realization count, sampling grids, lag window, and master seed."""

    m_realizations: int
    tau_grid: np.ndarray
    taup_grid: np.ndarray
    window: str = "gaussian"
    t_c: float = 2.5
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "tau_grid", np.asarray(self.tau_grid, dtype=float))
        object.__setattr__(self, "taup_grid", np.asarray(self.taup_grid, dtype=float))
        if self.m_realizations < 1:
            raise ValueError("m_realizations must be >= 1")
        for name in ("tau_grid", "taup_grid"):
            g = getattr(self, name)
            if np.any(np.diff(g) <= 0):
                raise ValueError(f"{name} must be strictly increasing")
        # windowed_dft takes the first lag step as the spacing of every lag
        steps = np.diff(self.taup_grid)
        if steps.size < 1:
            raise ValueError("taup_grid needs at least 2 points")
        if np.any(np.abs(steps - steps[0]) > 1e-9 * steps[0]):
            raise ValueError("taup_grid must be uniformly spaced")


def realization_key(seed: int, r: int) -> int:
    """128-bit Philox key for realization r under master seed."""
    return (int(seed) & _MASK64) | ((r + 1) << 64)


def sample_ensemble(
    spectrum: SourceSpectrum, n_waves: int, seed: int, half_space: bool = False, c0: float = 1.0
) -> PlaneWaveEnsemble:
    """Draw one plane-wave ensemble; deterministic given (seed, n_waves)."""
    if spectrum.eps <= 0 or spectrum.f1 != 0:
        raise ValueError(
            "unsupported-spectrum: sampling needs the finite-energy model (eps > 0, f1 = 0)"
        )
    rng = np.random.Generator(np.random.Philox(key=seed))
    g = rng.standard_normal((n_waves, 3))
    dirs = g / np.linalg.norm(g, axis=1)[:, None]
    rate = spectrum.eps * c0
    kmag = rng.gamma(2.0, 1.0 / rate, n_waves)
    k = kmag[:, None] * dirs
    # stratum volume V_j = 1 / (N p3(k_j)), p3 = radial gamma pdf / (4 pi k^2)
    pdf_radial = rate**2 * kmag * np.exp(-rate * kmag)
    weights = 4.0 * math.pi * kmag**2 / (n_waves * pdf_radial)
    # A(k) V_j collapses to the constant f0 / (8 pi^2 eps^2 N); halved with images
    var = spectrum.f0 / (8.0 * math.pi**2 * spectrum.eps**2 * n_waves)
    if half_space:
        var /= 2.0
    sigma = math.sqrt(var / 2.0)
    amp = sigma * (rng.standard_normal(n_waves) + 1j * rng.standard_normal(n_waves))
    return PlaneWaveEnsemble(k, c0 * kmag, amp, weights, seed, half_space, c0)


def field_at(ensemble: PlaneWaveEnsemble, events, xyz=None):
    """Field value(s) at spacetime event(s).

    Accepts a single SpacetimeEvent, or arrays (t, xyz) with xyz of shape
    (n, 3).
    """
    if isinstance(events, SpacetimeEvent):
        t = np.array([events.t])
        pos = events.position[None, :]
        scalar = True
    else:
        t = np.asarray(events, dtype=float)
        pos = np.asarray(xyz, dtype=float)
        scalar = False
    out = kernels.field_sum(
        np.ascontiguousarray(t, dtype=float),
        np.ascontiguousarray(pos, dtype=float),
        np.ascontiguousarray(ensemble.k, dtype=float),
        np.ascontiguousarray(ensemble.omega, dtype=float),
        np.ascontiguousarray(ensemble.amp.real, dtype=float),
        np.ascontiguousarray(ensemble.amp.imag, dtype=float),
        ensemble.half_space,
    )
    if scalar:
        return float(out[0])
    return out


def _default_threads() -> int:
    env = os.environ.get("RINDLER_PROBE_THREADS")
    if not env:
        return 1
    try:
        return max(1, int(env))
    except ValueError:
        raise ValueError(f"RINDLER_PROBE_THREADS must be an integer, got {env!r}") from None


def _sample_times(tau_grid, taup_grid):
    """Unique proper times tau_i +- tau'_j/2 plus (plus, minus) index maps."""
    plus = tau_grid[:, None] + taup_grid[None, :] / 2.0
    minus = tau_grid[:, None] - taup_grid[None, :] / 2.0
    allt = np.concatenate([plus.ravel(), minus.ravel()])
    scale = max(1.0, np.max(np.abs(allt)))
    keys = np.round(allt / (1e-12 * scale)).astype(np.int64)
    uniq_keys, inverse = np.unique(keys, return_inverse=True)
    uniq = np.empty(uniq_keys.size)
    uniq[inverse] = allt  # representative value per key
    n = plus.size
    idx_plus = inverse[:n].reshape(plus.shape)
    idx_minus = inverse[n:].reshape(minus.shape)
    return uniq, idx_plus, idx_minus


def _accumulate(spectrum, traj, cfg, n_waves, half_space, c0, reducers, threads=None):
    """Mean and stderr of per-realization reducer outputs, fixed-order reduction.

    Each reducer maps the (n_tau, n_taup) lag-product matrix of one
    realization to an arbitrary array.  Each fixed-size chunk of realizations
    is reduced in realization order to its mean and sum of squared
    deviations (Welford); the chunks are merged in chunk order (Chan, Golub &
    LeVeque 1979), so the result does not depend on the worker count and the
    variance has no cancellation when |mean| >> stderr.
    """
    n_threads = threads if threads is not None else _default_threads()
    times, idx_plus, idx_minus = _sample_times(cfg.tau_grid, cfg.taup_grid)
    t_lab, xyz = trajectory_points(traj, times, c0)
    if half_space and np.any(xyz[:, 2] <= 0):
        raise ValueError("trajectory-exits-domain: sample points must stay in z > 0")
    t_lab = np.ascontiguousarray(t_lab)
    xyz = np.ascontiguousarray(xyz)

    m = cfg.m_realizations
    chunks = [(lo, min(lo + _CHUNK, m)) for lo in range(0, m, _CHUNK)]

    def run_chunk(bounds):
        lo, hi = bounds
        partial = None
        for r in range(lo, hi):
            ens = sample_ensemble(spectrum, n_waves, realization_key(cfg.seed, r), half_space, c0)
            u = field_at(ens, t_lab, xyz)
            prod = u[idx_plus] * u[idx_minus]
            vals = [np.asarray(red(prod), dtype=float) for red in reducers]
            if partial is None:
                partial = [(v.copy(), np.zeros_like(v)) for v in vals]
            else:
                for (mean, m2), v in zip(partial, vals):
                    delta = v - mean
                    mean += delta / (r - lo + 1)
                    m2 += delta * (v - mean)
        return hi - lo, partial

    if n_threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            partials = list(pool.map(run_chunk, chunks))
    else:
        partials = [run_chunk(c) for c in chunks]

    results = []
    for i in range(len(reducers)):
        n, mean, m2 = 0, 0.0, 0.0
        for count, partial in partials:
            chunk_mean, chunk_m2 = partial[i]
            delta = chunk_mean - mean
            mean = mean + delta * (count / (n + count))
            m2 = m2 + chunk_m2 + delta * delta * (n * count / (n + count))
            n += count
        stderr = np.sqrt(m2 / ((m - 1) * m)) if m > 1 else np.full_like(mean, np.nan)
        results.append((mean, stderr))
    return results


def _identity(prod):
    return prod


def _correlation_grid(cfg, n_waves, mean, stderr) -> CorrelationGrid:
    return CorrelationGrid(
        cfg.tau_grid,
        cfg.taup_grid,
        mean,
        stderr,
        meta={"m": cfg.m_realizations, "n_waves": n_waves, "seed": cfg.seed},
    )


def estimate_autocorr(
    spectrum: SourceSpectrum,
    traj: TrajectorySpec,
    cfg: EstimatorConfig,
    n_waves: int,
    half_space: bool = False,
    c0: float = 1.0,
    threads: int | None = None,
) -> CorrelationGrid:
    """Ensemble-averaged lag products along the trajectory, with stderr."""
    (result,) = _accumulate(spectrum, traj, cfg, n_waves, half_space, c0, [_identity], threads)
    return _correlation_grid(cfg, n_waves, *result)


def estimate_wigner(
    spectrum: SourceSpectrum,
    traj: TrajectorySpec,
    cfg: EstimatorConfig,
    n_waves: int,
    omegas,
    half_space: bool = False,
    c0: float = 1.0,
    threads: int | None = None,
) -> tuple[CorrelationGrid, WignerGrid]:
    """Autocorrelation and its windowed discrete lag transform, from one pass.

    Both estimates reduce the same per-realization lag products, so the
    autocorrelation equals estimate_autocorr's bit for bit.  The spectrum
    axes are scaled by the trajectory's xi (1 when it has none).  The
    comparison target for the spectrum is the analytic autocorrelation
    pushed through the same window and lag grid (equivalently, the analytic
    Wigner transform convolved with the window kernel).
    """
    omegas = np.asarray(omegas, dtype=float)
    chi = window_function(cfg.window, cfg.t_c)(cfg.taup_grid)

    def to_wigner(prod):
        return windowed_dft(prod, cfg.taup_grid, chi, omegas)

    corr, (mean, stderr) = _accumulate(
        spectrum, traj, cfg, n_waves, half_space, c0, [_identity, to_wigner], threads
    )
    xi = getattr(traj, "xi", 1.0)
    wigner = WignerGrid(
        eta=c0 * cfg.tau_grid / xi,
        nu=xi * omegas / c0,
        values=mean,
        stderr=stderr,
        window=f"{cfg.window}:{cfg.t_c}",
    )
    return _correlation_grid(cfg, n_waves, *corr), wigner


def covariance_residual(
    spectrum: SourceSpectrum,
    n_waves: int,
    m_realizations: int,
    event1: SpacetimeEvent,
    event2: SpacetimeEvent,
    half_space: bool = False,
    seed: int = 0,
    c0: float = 1.0,
) -> float:
    """Relative deviation of the Monte-Carlo two-point covariance.

    Compares against the closed-form regularized covariance (free space: one
    pair term; half-space: direct minus image pair term), normalized by the
    free-space single-point variance f0 / (4 pi^2 eps^2).
    """
    t = np.array([event1.t, event2.t])
    xyz = np.vstack([event1.position, event2.position])
    total = 0.0
    for r in range(m_realizations):
        ens = sample_ensemble(spectrum, n_waves, realization_key(seed, r), half_space, c0)
        u = field_at(ens, t, xyz)
        total += u[0] * u[1]
    mc = total / m_realizations

    dt = event1.t - event2.t
    rho = float(np.linalg.norm(event1.position - event2.position)) / c0
    target = regularized_pair_term(rho, dt, spectrum.eps, spectrum.f0)
    if half_space:
        mirrored = event1.position * np.array([1.0, 1.0, -1.0])
        rho_im = float(np.linalg.norm(mirrored - event2.position)) / c0
        target = target - regularized_pair_term(rho_im, dt, spectrum.eps, spectrum.f0)
    variance = spectrum.f0 / (4.0 * math.pi**2 * spectrum.eps**2)
    return float(abs(mc - target) / variance)
