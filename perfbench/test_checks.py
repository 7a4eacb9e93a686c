"""Each benchmark check passes on real output and fails on a corrupted copy.

    python3 -m pytest perfbench -q
"""

import dataclasses
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from rindler_probe import core_math, validate
from rindler_probe import freefield as ff
from rindler_probe import mirror as mr
from rindler_probe import montecarlo as mc

import checks
import workloads

SMALL_GRIDS = {"eta": [-1.0, 1.0, 3], "nu": [0.5, 3.0, 11], "tau_prime": [-4.0, 4.0, 81]}


def simulate_outputs(tmp_path, scene=None):
    doc = workloads.simulate_doc(SMALL_GRIDS, 256, 16, scene)
    sim = workloads.Simulate(5, tmp_path, doc)
    run, check = sim.operation(0, 0)
    run()
    assert check(None) == []
    out = tmp_path / "op0"
    tau, taup, corr = checks.read_csv(out / "sim_autocorr.csv")
    corr_se = checks.read_csv(out / "sim_autocorr_stderr.csv")[2]
    _, nu, wig = checks.read_csv(out / "sim_wigner_est.csv")
    wig_se = checks.read_csv(out / "sim_wigner_est_stderr.csv")[2]
    target = ff.rindler_autocorr_regularized(1.0, 1.0, workloads.EPS, tau[:, None], taup[None, :])
    w_target = checks.windowed_target(target, taup, nu, 2.5)
    return corr, corr_se, target, wig, wig_se, w_target


def test_estimator_checks_fail_on_bias_and_wrong_stderr(tmp_path):
    corr, corr_se, target, wig, wig_se, w_target = simulate_outputs(tmp_path)
    ac = (checks.AUTOCORR_RMS, checks.AUTOCORR_COVER)
    wg = (checks.WIGNER_RMS, checks.WIGNER_COVER)
    assert checks.estimate("c", corr + 3 * corr_se, corr_se, target, *ac)
    assert checks.estimate("c", corr, 0.5 * corr_se, target, *ac)
    assert checks.estimate("c", corr, 2.0 * corr_se, target, *ac)
    assert checks.estimate("w", wig + 3 * wig_se, wig_se, w_target, *wg)
    assert checks.estimate("w", wig, 0.3 * wig_se, w_target, *wg)
    assert checks.estimate("w", wig, 6.0 * wig_se, w_target, *wg)
    tilted = wig.copy()
    tilted[0] += 5 * np.hypot(wig_se[0], wig_se[1])
    assert checks.flatness(tilted, wig_se)


def test_mirror_simulate_passes(tmp_path):
    simulate_outputs(tmp_path, {"xi": 1.0, "xi0": -0.5, "alpha": math.pi / 4})


@pytest.mark.parametrize("half_space", [False, True])
def test_kernel_spot_check_fails_on_corrupted_field(half_space):
    spectrum = ff.SourceSpectrum(f0=1.0, eps=workloads.EPS)
    ens = mc.sample_ensemble(spectrum, 256, mc.realization_key(3, 0), half_space)
    tau = np.linspace(-5.0, 5.0, 6)
    t, xyz = np.sinh(tau), np.zeros((6, 3))
    xyz[:, 2] = np.cosh(tau)
    std = math.sqrt(1.0 / (4 * math.pi**2 * workloads.EPS**2))
    u = mc.field_at(ens, t, xyz)
    ref = checks.field_reference(ens, t, xyz)
    assert checks.kernel(u, ref, std) == []
    bumped = u.copy()
    bumped[2] += 1e-6 * std
    assert checks.kernel(bumped, ref, std)
    if half_space:  # the field without its image term
        free = mc.field_at(dataclasses.replace(ens, half_space=False), t, xyz)
        assert checks.kernel(free, ref, std)


def test_spectrum_checks_fail_on_corrupted_grids(tmp_path):
    loc = workloads.Localize(2, tmp_path)
    run, check = loc.operation(0, 2)
    assert check(run()) == []
    out = tmp_path / "op2"
    _, nu, planck = checks.read_csv(out / "scene2_planck.csv")
    planck[3, 4] *= 1 + 1e-9
    assert checks.planck(nu, planck, 1.0, 1.0, 1.0)
    eta, nu, corr = checks.read_csv(out / "scene2_correction.csv")
    points = [(eta[3], nu[5], corr[3, 5]), (eta[10], nu[20], corr[10, 20] + 1e-6)]
    assert checks.correction(math.pi / 4, -0.5, points)
    assert checks.pose(math.pi / 4 + 2e-3, -0.5, math.pi / 4, -0.5, noisy=False)
    assert checks.pose(math.pi / 4, -0.5 + 6e-2, math.pi / 4, -0.5, noisy=True)


def test_oracle_checks_fail_on_corrupted_transform():
    scene = mr.MirrorScene(xi=1.0, xi0=0.3, alpha=math.pi / 4)
    lags = ff.fft_lag_grid(workloads.ORACLE_SPAN, workloads.ORACLE_LAGS)
    corr = mr.mirror_autocorr_regularized(scene, 1.0, workloads.ORACLE_EPS, 0.3, lags)
    omega, w = ff.wigner_transform_fft(corr, workloads.ORACLE_SPAN)
    band = (omega >= 0.2) & (omega <= 3.0)
    w0 = ff.rindler_wigner(1.0, 1.0, omega[band])
    r = mr.correction_R(scene, 0.3, omega[band])
    assert checks.oracle(checks.fft_deviation(w[band], w0, r), 0.0) == []
    assert checks.oracle(checks.fft_deviation(1.01 * w[band], w0, r), 0.0)
    v, a, b, c = validate.psi_parameter_strata()[7]
    p = core_math.PsiParams(a, b, c)
    quad = core_math.psi_quadrature(v, p)
    closed = core_math.psi_closed(v, p).value * (1 + 1e-6)
    assert checks.oracle(0.0, abs(closed - quad) / abs(quad))


def test_run_fails_without_program_sources(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-fft", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
