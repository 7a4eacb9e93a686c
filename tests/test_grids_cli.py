import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rindler_probe import cli
from rindler_probe import mirror as mr
from rindler_probe import montecarlo as mc
from rindler_probe.grids import (
    CorrelationGrid,
    WignerGrid,
    read_grid_csv,
    read_spectrum_csv,
    read_wigner_csv,
    window_function,
    window_kernel,
    write_grid_csv,
    write_spectrum_csv,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, cwd=None, **env_overrides):
    env = dict(os.environ, **env_overrides)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "rindler_probe.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def test_wigner_grid_csv_round_trip(tmp_path):
    eta = np.linspace(-2, 2, 7)
    nu = np.linspace(0.1, 3.0, 11)
    values = np.sin(eta[:, None] * 3.7) * np.cos(nu[None, :] * 1.9) + 1.0 / 3.0
    grid = WignerGrid(eta, nu, values, window="gaussian:2.5", kind="correction")
    path = tmp_path / "grid.csv"
    write_grid_csv(path, grid)
    back = read_wigner_csv(path)
    assert np.array_equal(back.eta, eta)
    assert np.array_equal(back.nu, nu)
    assert np.array_equal(back.values, values)
    assert back.window == "gaussian:2.5"
    assert back.kind == "correction"


def test_correlation_grid_csv_round_trip(tmp_path):
    tau = np.array([0.0, 1.0])
    taup = np.linspace(-1, 1, 9)
    values = np.outer([1.0, 2.0], np.sinh(taup + 0.3))
    grid = CorrelationGrid(tau, taup, values, meta={"m": 10})
    path = tmp_path / "corr.csv"
    write_grid_csv(path, grid)
    meta, rows, cols, data = read_grid_csv(path)
    assert meta["kind"] == "correlation"
    assert meta["_row_label"] == "tau/tau_prime"
    assert np.array_equal(rows, tau)
    assert np.array_equal(cols, taup)
    assert np.array_equal(data, values)


def test_spectrum_csv_round_trip(tmp_path):
    omega = np.linspace(0.1, 5, 20)
    vals = mr.stationary_mirror_spectrum(1.3, 1.0, omega)
    path = tmp_path / "spec.csv"
    write_spectrum_csv(path, omega, vals)
    om2, v2 = read_spectrum_csv(path)
    assert np.array_equal(om2, omega)
    assert np.array_equal(v2, vals)


@pytest.mark.parametrize(
    "kind,tol", [("gaussian", 1e-10), ("hann", 1e-4), ("rectangular", 5e-3)]
)
def test_window_functions_and_kernels(kind, tol):
    # rectangular kernel mass converges only like 1/mu_max (sinc tails)
    chi = window_function(kind, 2.0)
    assert chi(0.0) == pytest.approx(1.0)
    kernel = window_kernel(kind, 2.0)
    mu = np.linspace(-80.0, 80.0, 400_001)
    mass = np.trapezoid(kernel(mu), mu)
    assert mass == pytest.approx(1.0, abs=tol)


def write_config(path, **overrides):
    cfg = {
        "spectrum": {"f0": 1.0, "eps": 0.05},
        "trajectory": {"kind": "rindler", "xi": 1.0},
        "grids": {"eta": [-3.0, 3.0, 13], "nu": [0.0, 3.0, 16], "tau_prime": [-6.0, 6.0, 121]},
        "estimator": {"N": 256, "M": 40, "seed": 11, "window": "gaussian", "Tc": 2.0},
        "output": {"directory": str(path.parent), "prefix": "t"},
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return cfg


def test_cli_spectrum_near_wall(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, scene={"xi": 1.0, "xi0": -0.99, "alpha": 0.0})
    result = run_cli("spectrum", "--config", str(cfg_path), "--out", str(tmp_path))
    assert result.returncode == 0, result.stderr
    grid = read_wigner_csv(tmp_path / "t_correction.csv")
    assert grid.kind == "correction"
    row0 = grid.values[np.argmin(np.abs(grid.eta))]
    target = 1.0 - 1.0 / (2.0 * np.cosh(np.pi * grid.nu) ** 2)
    assert np.max(np.abs(row0 - target)) <= 0.05
    # deformed spectrum file present
    assert (tmp_path / "t_wigner.csv").exists()


def test_cli_spectrum_no_scene_rows_identical(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    result = run_cli("spectrum", "--config", str(cfg_path), "--out", str(tmp_path))
    assert result.returncode == 0, result.stderr
    grid = read_wigner_csv(tmp_path / "t_planck.csv")
    assert np.all(grid.values == grid.values[0])
    assert not (tmp_path / "t_correction.csv").exists()


def test_cli_spectrum_far_scene_correction_negligible(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, scene={"xi": 1.0, "xi0": 1000.0, "alpha": 0.0})
    result = run_cli("spectrum", "--config", str(cfg_path), "--out", str(tmp_path))
    assert result.returncode == 0, result.stderr
    grid = read_wigner_csv(tmp_path / "t_correction.csv")
    sel = grid.nu >= 0.2
    assert np.max(np.abs(grid.values[:, sel])) <= 1e-4


def test_cli_simulate_reproducible_bytes(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        result = run_cli("simulate", "--config", str(cfg_path), "--out", str(out))
        assert result.returncode == 0, result.stderr
    for name in ("t_autocorr.csv", "t_autocorr_stderr.csv", "t_wigner_est.csv", "t_run.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    meta = json.loads((out1 / "t_run.json").read_text())
    assert meta["seed"] == 11 and meta["n_waves"] == 256
    assert meta["backend"] in ("c", "numpy") and meta["threads"] == mc._default_threads()
    assert meta["versions"]["numpy"] == np.__version__


def test_cli_simulate_draws_each_realization_once(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg = write_config(cfg_path)
    draws = []
    sample = mc.sample_ensemble

    def counting(*args, **kwargs):
        draws.append(args)
        return sample(*args, **kwargs)

    monkeypatch.setattr(mc, "sample_ensemble", counting)
    cli.cmd_simulate(cli.load_config(cfg_path), tmp_path / "out")
    assert len(draws) == cfg["estimator"]["M"]


def test_cli_rejects_non_integer_thread_count(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    result = run_cli(
        "simulate", "--config", str(cfg_path), "--out", str(tmp_path), RINDLER_PROBE_THREADS="two"
    )
    assert result.returncode == 2
    assert result.stderr.startswith("error:") and "RINDLER_PROBE_THREADS" in result.stderr


def test_cli_simulate_seed_override_changes_output(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    r1 = run_cli("simulate", "--config", str(cfg_path), "--out", str(tmp_path / "a"))
    r2 = run_cli("simulate", "--config", str(cfg_path), "--out", str(tmp_path / "b"), "--seed", "99")
    assert r1.returncode == 0 and r2.returncode == 0
    a = (tmp_path / "a" / "t_autocorr.csv").read_bytes()
    b = (tmp_path / "b" / "t_autocorr.csv").read_bytes()
    assert a != b
    meta = json.loads((tmp_path / "b" / "t_run.json").read_text())
    assert meta["seed"] == 99


def test_cli_localize_round_trip(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(
        cfg_path,
        scene={"xi": 1.0, "xi0": -0.5, "alpha": math.pi / 4},
        grids={"eta": [-3.0, 3.0, 25], "nu": [0.2, 4.0, 40], "tau_prime": [-6.0, 6.0, 121]},
    )
    result = run_cli("spectrum", "--config", str(cfg_path), "--out", str(tmp_path))
    assert result.returncode == 0, result.stderr
    result = run_cli(
        "localize", str(tmp_path / "t_correction.csv"), "--config", str(cfg_path), "--out", str(tmp_path)
    )
    assert result.returncode == 0, result.stderr
    doc = json.loads((tmp_path / "t_localization.json").read_text())
    assert abs(doc["alpha_hat"] - math.pi / 4) <= 1e-3
    assert abs(doc["alpha0_hat"] + 0.5) <= 1e-3


def test_cli_localize_stationary(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(
        cfg_path,
        trajectory={"kind": "stationary", "x0": [0.0, 0.0, 1.7]},
        scene={"xi": 1.0, "xi0": 0.5, "alpha": 0.0},
        grids={"eta": [-3.0, 3.0, 13], "nu": [0.1, 20.0, 400], "tau_prime": [-6.0, 6.0, 121]},
    )
    result = run_cli("spectrum", "--config", str(cfg_path), "--out", str(tmp_path))
    assert result.returncode == 0, result.stderr
    result = run_cli(
        "localize",
        str(tmp_path / "t_spectrum.csv"),
        "--config",
        str(cfg_path),
        "--stationary",
        "--out",
        str(tmp_path),
    )
    assert result.returncode == 0, result.stderr
    doc = json.loads((tmp_path / "t_localization.json").read_text())
    assert abs(doc["d_hat"] - 1.7) / 1.7 <= 1e-3


def test_cli_rejects_unknown_config_keys(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg = write_config(cfg_path)
    cfg["bogus"] = 1
    cfg_path.write_text(json.dumps(cfg))
    result = run_cli("spectrum", "--config", str(cfg_path))
    assert result.returncode == 2
    assert "unknown top-level keys" in result.stderr

    cfg.pop("bogus")
    cfg["spectrum"] = {"f0": 1.0, "amplitude": 2.0}
    cfg_path.write_text(json.dumps(cfg))
    result = run_cli("spectrum", "--config", str(cfg_path))
    assert result.returncode == 2
    assert "spectrum" in result.stderr


def test_cli_rejects_bad_trajectory(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg = write_config(cfg_path, trajectory={"kind": "warp", "factor": 2})
    cfg_path.write_text(json.dumps(cfg))
    result = run_cli("spectrum", "--config", str(cfg_path))
    assert result.returncode == 2


def test_cli_validate_unknown_suite():
    result = run_cli("validate", "--suite", "nope")
    assert result.returncode == 2


def test_cli_validate_quick_suite(tmp_path):
    result = run_cli("validate", "--suite", "stationarity", "--out", str(tmp_path), cwd=str(tmp_path))
    assert result.returncode == 0, result.stdout + result.stderr
    report = json.loads((tmp_path / "validate_stationarity.json").read_text())
    assert report[0]["suite"] == "stationarity"
    assert report[0]["passed"]
    assert "PASS" in result.stdout
