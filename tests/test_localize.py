import math

import numpy as np
import pytest

from rindler_probe import localize as lc
from rindler_probe import mirror as mr

ETA = np.linspace(-3.0, 3.0, 25)
NU = np.linspace(0.2, 4.0, 40)


def test_objective_zero_at_truth():
    scene = mr.MirrorScene(xi=1.0, xi0=-0.5, alpha=math.pi / 4)
    r_obs = mr.correction_grid(scene, ETA, NU)
    assert lc.objective(r_obs, math.pi / 4, -0.5) == 0.0


def test_objective_sign_symmetry_exact():
    scene = mr.MirrorScene(xi=1.0, xi0=-0.5, alpha=math.pi / 4)
    r_obs = mr.correction_grid(scene, ETA, NU)
    assert lc.objective(r_obs, 0.31, -0.2) == lc.objective(r_obs, -0.31, -0.2)


def test_objective_positive_off_orbit():
    scene = mr.MirrorScene(xi=1.0, xi0=-0.5, alpha=math.pi / 4)
    r_obs = mr.correction_grid(scene, ETA, NU)
    assert lc.objective(r_obs, math.pi / 4 + 0.2, -0.3) > 1e-4


def test_objective_rejects_inadmissible():
    scene = mr.MirrorScene(xi=1.0, xi0=-0.5, alpha=0.0)
    r_obs = mr.correction_grid(scene, ETA, NU)
    with pytest.raises(ValueError):
        lc.objective(r_obs, 0.0, -1.2)
    with pytest.raises(ValueError):
        lc.objective(r_obs, 1.6, 0.0)


def test_fit_scene_noiseless_recovery():
    scene = mr.MirrorScene(xi=1.0, xi0=-0.5, alpha=math.pi / 4)
    res = lc.fit_scene(mr.correction_grid(scene, ETA, NU))
    assert abs(res.alpha_hat - math.pi / 4) <= 1e-3
    assert abs(res.alpha0_hat + 0.5) <= 1e-3
    assert res.alpha_hat >= 0.0
    assert res.evaluations == len(res.trace)
    assert not res.no_obstacle


def test_fit_scene_trace_monotone_refinement():
    scene = mr.MirrorScene(xi=1.0, xi0=0.3, alpha=0.9)
    res = lc.fit_scene(mr.correction_grid(scene, ETA, NU))
    best = np.minimum.accumulate([f for (_, _, f) in res.trace])
    assert np.all(np.diff(best) <= 0)
    assert res.residual == pytest.approx(best[-1], abs=1e-30)


def test_fit_scene_budget_flag():
    scene = mr.MirrorScene(xi=1.0, xi0=-0.5, alpha=math.pi / 4)
    cfg = lc.FitConfig(n_alpha=10, n_alpha0=10, max_evaluations=120, refinement_tol=0.0)
    res = lc.fit_scene(mr.correction_grid(scene, ETA, NU), cfg=cfg)
    assert res.budget_exhausted


def test_fit_scene_zero_grid_flags_no_obstacle():
    grid = mr.correction_grid(mr.MirrorScene(xi=1.0, xi0=5.0, alpha=0.0), ETA, NU)
    grid.values = np.zeros_like(grid.values)
    res = lc.fit_scene(grid)
    assert res.alpha0_hat >= 0.98 * lc.FitConfig().alpha0_max
    assert res.no_obstacle


def test_fit_scene_inverse_variance_weights():
    scene = mr.MirrorScene(xi=1.0, xi0=-0.5, alpha=math.pi / 4)
    grid = mr.correction_grid(scene, ETA, NU)
    grid.stderr = np.full_like(grid.values, 0.01)
    res = lc.fit_scene(grid, cfg=lc.FitConfig(weight_mode="inverse-variance"))
    assert abs(res.alpha_hat - math.pi / 4) <= 1e-3


def test_result_serialization():
    scene = mr.MirrorScene(xi=1.0, xi0=2.0, alpha=1.2)
    res = lc.fit_scene(mr.correction_grid(scene, ETA, NU))
    doc = res.to_dict()
    assert set(doc) >= {"alpha_hat", "alpha0_hat", "residual", "evaluations", "trace"}
    assert len(doc["trace"]) == res.evaluations


def test_fit_distance_recovery_and_scaling():
    omega = np.linspace(0.1, 20.0, 400)
    res = lc.fit_distance_stationary(omega, mr.stationary_mirror_spectrum(1.7, 1.0, omega), 1.0)
    assert abs(res.d_hat - 1.7) / 1.7 <= 1e-3
    res2 = lc.fit_distance_stationary(omega, mr.stationary_mirror_spectrum(3.4, 1.0, omega), 1.0)
    assert res2.d_hat == pytest.approx(2.0 * res.d_hat, rel=1e-6)


def test_fit_distance_flat_spectrum_flagged():
    omega = np.linspace(0.1, 20.0, 400)
    res = lc.fit_distance_stationary(omega, omega / (4 * math.pi), 1.0)
    assert res.at_boundary
    assert res.no_obstacle


def test_fit_distance_band_too_narrow():
    # a huge sampling gap starves the resolvable-distance range
    omega = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 20.0])
    with pytest.raises(ValueError):
        lc.fit_distance_stationary(omega, np.ones(omega.size), 1.0)
    with pytest.raises(ValueError):
        lc.fit_distance_stationary(omega[:4], np.ones(4), 1.0)


def _coarse_points(cfg):
    alphas = np.linspace(0.0, math.pi / 2 * (1.0 - 1.0 / cfg.n_alpha), cfg.n_alpha)
    alpha0s = np.linspace(-1.0 + 2.0 / cfg.n_alpha0, cfg.alpha0_max, cfg.n_alpha0)
    return [(a, b) for a in alphas for b in alpha0s if -math.cos(a) + 1e-6 < b]  # the admissible set


def _noisy(grid, seed):
    rng = np.random.default_rng(seed)
    grid.stderr = 0.01 * np.abs(grid.values)
    grid.values = grid.values + grid.stderr * rng.standard_normal(grid.values.shape)
    return grid


def _unfolded_objective(r_obs, alpha, alpha0, weights):
    scene = mr.MirrorScene(xi=1.0, xi0=alpha0, alpha=alpha)
    model = mr.correction_R(scene, r_obs.eta[:, None], r_obs.nu[None, :])
    return float(np.sum(weights * (r_obs.values - model) ** 2))


def _check_coarse_trace(res, r_obs, cfg, reference):
    points = _coarse_points(cfg)
    coarse = res.trace[: len(points)]
    assert [(a, b) for a, b, _ in coarse] == points  # alpha-major order, same admissible set
    assert res.evaluations == len(res.trace) > len(points)
    weights = lc._weights_for(r_obs, cfg.weight_mode)
    for a, b, val in coarse:
        assert val == pytest.approx(reference(r_obs, a, b, weights), rel=1e-12, abs=0.0)
    # the simplex starts from the first strict minimum of the coarse values
    first_min = int(np.argmin([val for _, _, val in coarse]))
    assert res.trace[len(points)][:2] == coarse[first_min][:2]


# the benchmark's four localize scenes: (alpha, alpha0, noisy)
@pytest.mark.parametrize("alpha, alpha0, noisy",
                         [(0.0, -0.9, False), (0.0, 0.5, False), (math.pi / 4, -0.5, True), (1.2, 2.0, True)])
def test_coarse_trace_matches_objective(alpha, alpha0, noisy):
    r_obs = mr.correction_grid(mr.MirrorScene(xi=1.0, xi0=alpha0, alpha=alpha), ETA, NU)
    if noisy:
        r_obs = _noisy(r_obs, seed=11)
    cfg = lc.FitConfig(max_evaluations=0)  # the coarse lattice, then a 10-step simplex
    res = lc.fit_scene(r_obs, cfg=cfg)

    def reference(grid, a, b, weights):
        return lc.objective(grid, a, b, weights=weights)

    _check_coarse_trace(res, r_obs, cfg, reference)


def test_fit_config_rejects_alpha0_max_below_lattice_start():
    # the coarse offsets run from -1 + 2/n_alpha0 up to alpha0_max; at or
    # below that start they would run downwards past alpha0_max
    for alpha0_max in (-0.8, -0.75):
        with pytest.raises(ValueError, match=rf"alpha0_max={alpha0_max}.*-0\.75.*n_alpha0=8"):
            lc.FitConfig(n_alpha0=8, alpha0_max=alpha0_max)
    assert lc.FitConfig(n_alpha0=8, alpha0_max=-0.7).alpha0_max == -0.7


def test_fit_config_rejects_wrong_types():
    for kwargs in ({"n_alpha": "ten"}, {"n_alpha0": 10.5}, {"max_evaluations": True},
                   {"alpha0_max": "10"}, {"refinement_tol": None}, {"weight_mode": 1}):
        with pytest.raises(TypeError, match=next(iter(kwargs))):
            lc.FitConfig(**kwargs)
    assert lc.FitConfig(alpha0_max=3, n_alpha=np.int64(5)).alpha0_max == 3


def test_fit_scene_asymmetric_eta_grid_with_zero_nu():
    # eta rows not symmetric about 0, nu = 0 included: the folded model must
    # gather back onto the right rows and take the removable limits
    eta = np.linspace(-1.0, 3.0, 17)
    nu = np.concatenate([[0.0], np.linspace(0.1, 4.0, 20)])
    scene = mr.MirrorScene(xi=1.0, xi0=-0.3, alpha=0.6)
    r_obs = _noisy(mr.correction_grid(scene, eta, nu), seed=5)
    cfg = lc.FitConfig(n_alpha=12, n_alpha0=15, max_evaluations=0)
    res = lc.fit_scene(r_obs, cfg=cfg)
    _check_coarse_trace(res, r_obs, cfg, _unfolded_objective)
    weights = lc._weights_for(r_obs, "auto")
    for a, b in [(0.0, -0.5), (0.0, 0.7), (0.6, -0.3), (1.1, 3.0)]:
        assert lc.objective(r_obs, a, b, weights=weights) == pytest.approx(
            _unfolded_objective(r_obs, a, b, weights), rel=1e-12, abs=0.0)
