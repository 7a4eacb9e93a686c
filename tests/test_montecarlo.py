import math
import shutil
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import stats

from rindler_probe import freefield as ff
from rindler_probe import mirror as mr
from rindler_probe import montecarlo as mc
from rindler_probe import trajectories as tj
from rindler_probe import kernels

SPECTRUM = ff.SourceSpectrum(f0=1.0, eps=0.05)


def test_sample_ensemble_requires_finite_energy():
    with pytest.raises(ValueError):
        mc.sample_ensemble(ff.SourceSpectrum(f0=1.0, eps=0.0), 128, seed=0)
    with pytest.raises(ValueError):
        mc.sample_ensemble(ff.SourceSpectrum(f0=1.0, f1=0.5, eps=0.1), 128, seed=0)


def test_amplitudes_zero_mean():
    ens = mc.sample_ensemble(SPECTRUM, 10_000, seed=5)
    sigma = np.std(ens.amp.real)
    for comp in (ens.amp.real, ens.amp.imag):
        assert abs(np.mean(comp)) <= 3.0 * sigma / math.sqrt(comp.size)


def test_radial_law_is_gamma():
    ens = mc.sample_ensemble(SPECTRUM, 100_000, seed=11)
    kmag = ens.omega / ens.c0
    ks = stats.kstest(kmag, stats.gamma(a=2.0, scale=1.0 / (SPECTRUM.eps * 1.0)).cdf)
    # 1% critical value 1.628/sqrt(n)
    assert ks.statistic <= 1.628 / math.sqrt(kmag.size)


def test_total_power_and_zero_mean():
    target = SPECTRUM.f0 / (4.0 * math.pi**2 * SPECTRUM.eps**2)
    samples = []
    for r in range(300):
        ens = mc.sample_ensemble(SPECTRUM, 4096, mc.realization_key(3, r))
        samples.append(mc.field_at(ens, tj.SpacetimeEvent(0.0, 0.0, 0.0, 0.5)))
    samples = np.array(samples)
    vals = samples**2
    se = np.std(vals) / math.sqrt(vals.size)
    assert abs(np.mean(vals) - target) <= 3.0 * se
    assert abs(np.mean(samples)) <= 3.0 * np.std(samples) / math.sqrt(samples.size)


def test_dirichlet_plane_is_exactly_zero():
    ens = mc.sample_ensemble(SPECTRUM, 512, seed=9, half_space=True)
    vals = mc.field_at(ens, np.array([0.3, -1.2]), np.array([[0.4, -0.2, 0.0], [3.0, 1.0, 0.0]]))
    assert np.all(vals == 0.0)


def test_field_linearity_and_single_wave():
    ens = mc.sample_ensemble(SPECTRUM, 64, seed=21)
    e1 = mc.sample_ensemble(SPECTRUM, 64, seed=22)
    t = np.array([0.4])
    x = np.array([[0.1, 0.2, 0.3]])
    combined = mc.PlaneWaveEnsemble(
        np.vstack([ens.k, e1.k]),
        np.concatenate([ens.omega, e1.omega]),
        np.concatenate([ens.amp, e1.amp]),
        np.concatenate([ens.weights, e1.weights]),
        0,
        False,
        1.0,
    )
    assert mc.field_at(combined, t, x)[0] == pytest.approx(
        mc.field_at(ens, t, x)[0] + mc.field_at(e1, t, x)[0], rel=1e-12
    )
    # single wave with unit amplitude: u = 2 cos(k.x - w t)
    k = np.array([[1.0, 2.0, -0.5]])
    single = mc.PlaneWaveEnsemble(
        k, np.array([np.linalg.norm(k)]), np.array([1.0 + 0.0j]), np.ones(1), 0, False, 1.0
    )
    expected = 2.0 * math.cos(k[0] @ x[0] - single.omega[0] * t[0])
    assert mc.field_at(single, t, x)[0] == pytest.approx(expected, rel=1e-12)


def test_kernel_backends_agree():
    rng = np.random.default_rng(2)
    t = rng.normal(size=100)
    xyz = rng.normal(size=(100, 3))
    k = rng.normal(size=(256, 3))
    om = np.abs(rng.normal(size=256))
    ar, ai = rng.normal(size=256), rng.normal(size=256)
    for hs in (False, True):
        a = kernels.field_sum(t, xyz, k, om, ar, ai, hs)
        b = kernels.field_sum_numpy(t, xyz, k, om, ar, ai, hs)
        assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b))


def _kernel_args(n_events, n_waves, seed):
    rng = np.random.default_rng(seed)
    return (
        rng.normal(size=n_events),
        rng.normal(size=(n_events, 3)),
        rng.normal(size=(n_waves, 3)),
        np.abs(rng.normal(size=n_waves)),
        rng.normal(size=n_waves),
        rng.normal(size=n_waves),
    )


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler `cc` on PATH")
def test_compiled_kernel_selected_when_cc_exists():
    assert kernels.BACKEND == "c"


@pytest.mark.parametrize("half_space", [False, True])
def test_kernel_agrees_with_numpy_at_benchmark_shape(half_space):
    args = _kernel_args(481, 4096, 5)
    a = kernels.field_sum(*args, half_space)
    b = kernels.field_sum_numpy(*args, half_space)
    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def test_kernel_reads_strided_and_integer_inputs():
    rng = np.random.default_rng(6)
    t = rng.integers(-3, 4, 20).astype(float)
    xyz = rng.integers(-3, 4, (20, 3)).astype(float)
    k = rng.normal(size=(64, 3))
    om = np.linalg.norm(k, axis=1)
    ar, ai = rng.integers(-2, 3, 64).astype(float), rng.normal(size=64)
    for hs in (False, True):
        ref = kernels.field_sum(t, xyz, k, om, ar, ai, hs)
        wide = np.repeat(k, 2, axis=1)  # k is wide[:, ::2], a strided view
        variants = [
            (np.repeat(t, 2)[::2], xyz, k, om, ar, ai),
            (t.astype(int), np.asfortranarray(xyz), wide[:, ::2], om, ar.astype(int), ai),
            (t, xyz.astype(np.int32), np.asfortranarray(k), np.repeat(om, 3)[::3], ar, ai),
        ]
        for args in variants:
            np.testing.assert_array_equal(kernels.field_sum(*args, hs), ref)


def test_backend_selected_once_under_threads(monkeypatch):
    loads = []

    def slow_load():
        loads.append(None)
        time.sleep(0.05)
        return kernels.field_sum_numpy

    monkeypatch.setattr(kernels, "_impl", None)
    monkeypatch.setattr(kernels, "_load", slow_load)
    args = _kernel_args(10, 20, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(kernels.field_sum, *args, False) for _ in range(32)]
            results = [f.result(timeout=30) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert len(loads) == 1
    for r in results:
        np.testing.assert_array_equal(r, results[0])


@pytest.mark.parametrize(
    "command, cache",
    [
        (("no-such-cc", *kernels._COMMAND[1:]), "cache"),  # no compiler
        (("false", *kernels._COMMAND[1:]), "cache"),  # the build fails
        (kernels._COMMAND, "file/cache"),  # the cache cannot be made
    ],
)
def test_failed_build_warns_and_uses_numpy(tmp_path, command, cache):
    (tmp_path / "file").write_text("")
    with pytest.warns(RuntimeWarning, match=command[0]):
        impl = kernels._load(command, tmp_path / cache)
    args = _kernel_args(30, 50, 7)
    for hs in (False, True):
        np.testing.assert_array_equal(impl(*args, hs), kernels.field_sum_numpy(*args, hs))


def test_image_mode_cross_terms():
    # fixed wave vector: the conditional covariance is the four-term expansion,
    # two of which pair up because reflection preserves distances
    rng = np.random.default_rng(4)
    k = np.array([0.7, -0.3, 1.1])
    omega = np.linalg.norm(k)
    x1, t1 = np.array([0.2, 0.5, 0.8]), 0.3
    x2, t2 = np.array([-0.4, 0.1, 1.3]), -0.2
    flip = np.array([1.0, 1.0, -1.0])
    x1s, x2s = x1 * flip, x2 * flip
    assert np.linalg.norm(x1s - x2s) == pytest.approx(np.linalg.norm(x1 - x2))
    assert np.linalg.norm(x1 - x2s) == pytest.approx(np.linalg.norm(x1s - x2))
    sigma2 = 0.37

    def mode(x, t):
        return (np.exp(1j * k @ x) - np.exp(1j * k @ (x * flip))) * np.exp(-1j * omega * t)

    analytic = 2.0 * sigma2 * np.real(mode(x1, t1) * np.conj(mode(x2, t2)))
    expansion = (
        2.0
        * sigma2
        * (
            math.cos(k @ (x1 - x2) - omega * (t1 - t2))
            - math.cos(k @ (x1 - x2s) - omega * (t1 - t2))
            - math.cos(k @ (x1s - x2) - omega * (t1 - t2))
            + math.cos(k @ (x1s - x2s) - omega * (t1 - t2))
        )
    )
    assert analytic == pytest.approx(expansion, rel=1e-12)
    # amplitude-draw Monte Carlo over the circular Gaussian amplitude
    draws = (rng.standard_normal(200_000) + 1j * rng.standard_normal(200_000)) * math.sqrt(
        sigma2 / 2.0
    )
    u1 = 2.0 * np.real(draws * mode(x1, t1))
    u2 = 2.0 * np.real(draws * mode(x2, t2))
    assert np.mean(u1 * u2) == pytest.approx(analytic, abs=4.0 * np.std(u1 * u2) / math.sqrt(u1.size))


def test_image_mode_direction_average_gives_sinc_difference():
    # averaging the four-term expansion over the sphere collapses to
    # sinc(k d12) - sinc(k d12s), the image-source covariance structure
    kmag = 2.3
    x1 = np.array([0.2, 0.0, 0.9])
    x2 = np.array([-0.3, 0.4, 0.6])
    flip = np.array([1.0, 1.0, -1.0])
    rng = np.random.default_rng(8)
    g = rng.standard_normal((400_000, 3))
    dirs = g / np.linalg.norm(g, axis=1)[:, None]

    def avg_cos(d):
        return np.mean(np.cos(kmag * dirs @ d))

    lhs = (
        avg_cos(x1 - x2)
        - avg_cos(x1 - x2 * flip)
        - avg_cos(x1 * flip - x2)
        + avg_cos(x1 * flip - x2 * flip)
    )
    rhs = 2.0 * (
        np.sinc(kmag * np.linalg.norm(x1 - x2) / np.pi)
        - np.sinc(kmag * np.linalg.norm(x1 - x2 * flip) / np.pi)
    )
    assert lhs == pytest.approx(rhs, abs=5e-3)


def test_covariance_residual_examples():
    # coincident events: the variance estimator's relative noise is
    # sqrt(2/M) (a chi-square of one Gaussian sample per realization)
    e = tj.SpacetimeEvent(0.0, 0.1, -0.2, 0.7)
    assert mc.covariance_residual(SPECTRUM, 2048, 500, e, e, seed=31) <= 3.5 * math.sqrt(2.0 / 500)
    on_plane = tj.SpacetimeEvent(0.0, 0.4, 0.2, 0.0)
    assert mc.covariance_residual(SPECTRUM, 256, 5, on_plane, on_plane, half_space=True, seed=32) == 0.0
    e1 = tj.SpacetimeEvent(0.0, 0.0, 0.0, 1.0)
    e2 = tj.SpacetimeEvent(0.1, 0.2, 0.0, 0.8)
    assert mc.covariance_residual(SPECTRUM, 4096, 500, e1, e2, seed=33) <= 0.05
    assert mc.covariance_residual(SPECTRUM, 4096, 1500, e1, e2, half_space=True, seed=34) <= 0.05


def test_covariance_translation_rotation_invariance():
    # congruent event pairs share the analytic covariance exactly; both
    # Monte-Carlo estimates agree with it within noise
    dt, sep = 0.3, 0.9
    pair_a = (tj.SpacetimeEvent(0.0, 0.0, 0.0, 0.0), tj.SpacetimeEvent(dt, sep, 0.0, 0.0))
    pair_b = (tj.SpacetimeEvent(5.0, 1.0, 2.0, -3.0), tj.SpacetimeEvent(5.0 + dt, 1.0, 2.0 - sep, -3.0))
    for pair in (pair_a, pair_b):
        assert mc.covariance_residual(SPECTRUM, 2048, 800, *pair, seed=35) <= 0.1


def test_determinism_and_isolation():
    cfg = mc.EstimatorConfig(
        m_realizations=40,
        tau_grid=np.array([0.0]),
        taup_grid=np.linspace(-2.0, 2.0, 17),
        seed=77,
    )
    g1 = mc.estimate_autocorr(SPECTRUM, tj.Rindler(1.0), cfg, 256)
    g2 = mc.estimate_autocorr(SPECTRUM, tj.Rindler(1.0), cfg, 256)
    g3 = mc.estimate_autocorr(SPECTRUM, tj.Rindler(1.0), cfg, 256, threads=4)
    assert np.array_equal(g1.values, g2.values)
    assert np.array_equal(g1.values, g3.values)
    # the one-pass estimator's autocorrelation is estimate_autocorr's, bit for bit
    omegas = np.linspace(0.5, 2.0, 4)
    for threads in (1, 4):
        corr, _ = mc.estimate_wigner(SPECTRUM, tj.Rindler(1.0), cfg, 256, omegas, threads=threads)
        assert np.array_equal(corr.values, g1.values)
        assert np.array_equal(corr.stderr, g1.stderr)
    # realization reproducible in isolation through its key
    ens = mc.sample_ensemble(SPECTRUM, 256, mc.realization_key(77, 17))
    again = mc.sample_ensemble(SPECTRUM, 256, mc.realization_key(77, 17))
    assert np.array_equal(ens.k, again.k) and np.array_equal(ens.amp, again.amp)


def test_stderr_has_no_cancellation_at_large_mean():
    # a reducer offset by 1e8 leaves the stderr unchanged; a raw
    # sum-of-squares variance loses it to cancellation at this offset
    cfg = mc.EstimatorConfig(
        m_realizations=40,  # two reduction chunks
        tau_grid=np.array([0.0]),
        taup_grid=np.linspace(-1.0, 1.0, 5),
        seed=13,
    )

    def accumulate(offset):
        reducer = lambda prod: offset + 1e-3 * prod[0]
        ((mean, stderr),) = mc._accumulate(SPECTRUM, tj.Rindler(1.0), cfg, 64, False, 1.0, [reducer])
        return mean, stderr

    mean0, stderr0 = accumulate(0.0)
    mean8, stderr8 = accumulate(1e8)
    assert np.all(stderr0 > 0)
    np.testing.assert_allclose(mean8 - 1e8, mean0, rtol=0, atol=1e-7)
    np.testing.assert_allclose(stderr8, stderr0, rtol=1e-4)


def test_estimate_autocorr_matches_analytic():
    cfg = mc.EstimatorConfig(
        m_realizations=500,
        tau_grid=np.array([0.0]),
        taup_grid=np.arange(-100, 101) * 0.05,
        seed=42,
    )
    grid = mc.estimate_autocorr(SPECTRUM, tj.Rindler(1.0), cfg, 2048)
    target = ff.rindler_autocorr_regularized(1.0, 1.0, SPECTRUM.eps, 0.0, grid.tau_prime)
    z = (grid.values[0] - target) / grid.stderr[0]
    assert np.mean(np.abs(z) <= 3.0) >= 0.95


def test_stationary_estimate_depends_on_lag_only():
    cfg = mc.EstimatorConfig(
        m_realizations=400,
        tau_grid=np.array([-2.0, 0.0, 2.0]),
        taup_grid=np.linspace(-2.0, 2.0, 21),
        seed=19,
    )
    grid = mc.estimate_autocorr(SPECTRUM, tj.Stationary(), cfg, 1024)
    for i in (1, 2):
        diff = grid.values[i] - grid.values[0]
        se = np.sqrt(grid.stderr[i] ** 2 + grid.stderr[0] ** 2)
        assert np.mean(np.abs(diff) <= 3.0 * se) >= 0.9


def test_mirror_estimate_matches_deformed_autocorr():
    scene = mr.MirrorScene(xi=1.0, xi0=-0.5, alpha=math.pi / 4)
    cfg = mc.EstimatorConfig(
        m_realizations=600,
        tau_grid=np.array([0.0]),
        taup_grid=np.arange(-60, 61) * 0.05,
        seed=57,
    )
    grid = mc.estimate_autocorr(SPECTRUM, scene.trajectory(), cfg, 2048, half_space=True)
    target = mr.mirror_autocorr_regularized(scene, 1.0, SPECTRUM.eps, 0.0, grid.tau_prime)
    z = (grid.values[0] - target) / grid.stderr[0]
    assert np.mean(np.abs(z) <= 3.0) >= 0.95


def test_mirror_wigner_dip_structure():
    # near-wall scene: the windowed spectrum estimate reproduces the deformed
    # form W0(1-R) (through the same lags and window) within 3 SE
    from rindler_probe.grids import window_function

    scene = mr.MirrorScene(xi=1.0, xi0=-0.9, alpha=0.0)
    cfg = mc.EstimatorConfig(
        m_realizations=600,
        tau_grid=np.array([0.0]),
        taup_grid=np.arange(-200, 201) * 0.05,
        window="gaussian",
        t_c=2.5,
        seed=2718,
    )
    omegas = np.linspace(0.5, 3.0, 11)
    _, grid = mc.estimate_wigner(SPECTRUM, scene.trajectory(), cfg, 2048, omegas, half_space=True)
    chi = window_function(cfg.window, cfg.t_c)(cfg.taup_grid)
    target = ff.windowed_dft(
        mr.mirror_autocorr_regularized(scene, 1.0, SPECTRUM.eps, 0.0, cfg.taup_grid),
        cfg.taup_grid,
        chi,
        omegas,
    )
    z = (grid.values[0] - target) / grid.stderr[0]
    assert np.mean(np.abs(z) <= 3.0) >= 0.9
    # the dip is real: the deformed spectrum sits well below the free one
    free = ff.windowed_dft(
        ff.rindler_autocorr_regularized(1.0, 1.0, SPECTRUM.eps, 0.0, cfg.taup_grid),
        cfg.taup_grid,
        chi,
        omegas,
    )
    assert np.all(target < 0.6 * free)


def test_trajectory_must_stay_in_half_space():
    cfg = mc.EstimatorConfig(
        m_realizations=2,
        tau_grid=np.array([0.0]),
        taup_grid=np.linspace(-1.0, 1.0, 5),
        seed=1,
    )
    with pytest.raises(ValueError):
        mc.estimate_autocorr(SPECTRUM, tj.Stationary((0.0, 0.0, -1.0)), cfg, 64, half_space=True)


def test_estimate_wigner_shapes_and_window_tag():
    cfg = mc.EstimatorConfig(
        m_realizations=50,
        tau_grid=np.array([0.0, 1.0]),
        taup_grid=np.arange(-40, 41) * 0.1,
        window="gaussian",
        t_c=1.5,
        seed=3,
    )
    omegas = np.linspace(0.5, 2.5, 9)
    corr, grid = mc.estimate_wigner(SPECTRUM, tj.Rindler(1.0), cfg, 512, omegas)
    assert corr.values.shape == corr.stderr.shape == (2, 81)
    assert grid.values.shape == (2, 9)
    assert grid.stderr.shape == (2, 9)
    assert grid.window == "gaussian:1.5"
    assert np.allclose(grid.nu, omegas)


def test_taup_grid_must_be_uniform():
    for taup in ([-1.0, -0.5, 0.0, 1.0, 2.5], [0.0]):
        with pytest.raises(ValueError):
            mc.EstimatorConfig(m_realizations=2, tau_grid=[0.0], taup_grid=taup)
    for taup in (np.linspace(-10.0, 10.0, 401), np.arange(-560, 561) * 0.0125):
        mc.EstimatorConfig(m_realizations=2, tau_grid=[0.0], taup_grid=taup)
