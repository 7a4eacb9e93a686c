"""Command-line front end.

Subcommands:
    spectrum   analytic Planck / deformed-spectrum / correction tables -> CSV
    simulate   Monte-Carlo estimator run -> CSV estimates + stderr + JSON sidecar
    localize   least-squares obstacle pose (or --stationary distance) -> JSON
    validate   run a named validation suite -> table + JSON, nonzero exit on failure

All commands are driven by a JSON config (unknown keys rejected) and are
byte-reproducible for a fixed config and seed.  Exit codes: 0 success,
1 validation failure, 2 config error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from . import freefield as ff
from . import kernels
from . import localize as lc
from . import mirror as mr
from . import montecarlo as mc
from . import validate as vd
from .grids import (
    WignerGrid,
    read_spectrum_csv,
    read_wigner_csv,
    write_grid_csv,
    write_spectrum_csv,
)
from .trajectories import Stationary, trajectory_from_dict, trajectory_to_dict


class ConfigError(ValueError):
    pass


_DEFAULTS = {
    "units": {"c0": 1.0},
    "spectrum": {"f0": 1.0, "f1": 0.0, "eps": 0.05},
    "trajectory": {"kind": "rindler", "xi": 1.0},
    "scene": None,
    "grids": {"eta": [-3.0, 3.0, 25], "nu": [0.1, 4.0, 40], "tau_prime": [-10.0, 10.0, 401]},
    "estimator": {"N": 4096, "M": 2000, "seed": 0, "window": "gaussian", "Tc": 2.5},
    "fit": {},
    "output": {"directory": ".", "prefix": "run"},
}

_ALLOWED = {
    "units": {"c0"},
    "spectrum": {"f0", "f1", "eps"},
    "grids": {"eta", "nu", "tau_prime"},
    "estimator": {"N", "M", "seed", "window", "Tc"},
    "fit": {"n_alpha", "n_alpha0", "alpha0_max", "refinement_tol", "max_evaluations", "weight_mode"},
    "output": {"directory", "prefix"},
}


def _merge_section(name, given):
    base = dict(_DEFAULTS[name])
    unknown = set(given) - _ALLOWED[name]
    if unknown:
        raise ConfigError(f"config section {name!r}: unknown keys {sorted(unknown)}")
    base.update(given)
    return base


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - set(_DEFAULTS)
    if unknown:
        raise ConfigError(f"config: unknown top-level keys {sorted(unknown)}")
    cfg = {}
    for name in ("units", "spectrum", "grids", "estimator", "output", "fit"):
        given = raw.get(name, {})
        if not isinstance(given, dict):
            raise ConfigError(f"config section {name!r} must be an object")
        if name == "fit":
            allowed = _ALLOWED["fit"]
            bad = set(given) - allowed
            if bad:
                raise ConfigError(f"config section 'fit': unknown keys {sorted(bad)}")
            cfg["fit"] = given
        else:
            cfg[name] = _merge_section(name, given)
    try:
        cfg["trajectory"] = trajectory_from_dict(raw.get("trajectory", _DEFAULTS["trajectory"]))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"config trajectory: {exc}") from exc
    scene_doc = raw.get("scene")
    if scene_doc is None:
        cfg["scene"] = None
    else:
        try:
            cfg["scene"] = mr.scene_from_dict(scene_doc)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"config scene: {exc}") from exc
    for axis in ("eta", "nu", "tau_prime"):
        spec = cfg["grids"][axis]
        if not (isinstance(spec, (list, tuple)) and len(spec) == 3 and spec[2] >= 2):
            raise ConfigError(f"config grids.{axis}: expected [min, max, n>=2]")
    return cfg


def _axis(cfg, name):
    lo, hi, n = cfg["grids"][name]
    return np.linspace(float(lo), float(hi), int(n))


def _outdir(cfg, override):
    path = Path(override) if override else Path(cfg["output"]["directory"])
    path.mkdir(parents=True, exist_ok=True)
    return path


def _xi_of(traj, scene):
    if scene is not None:
        return scene.xi
    return getattr(traj, "xi", 1.0)


def cmd_spectrum(cfg, out_override=None) -> list:
    c0 = cfg["units"]["c0"]
    f0 = cfg["spectrum"]["f0"]
    eta = _axis(cfg, "eta")
    nu = _axis(cfg, "nu")
    scene = cfg["scene"]
    traj = cfg["trajectory"]
    xi = _xi_of(traj, scene)
    out = _outdir(cfg, out_override)
    prefix = cfg["output"]["prefix"]
    written = []

    w0 = ff.rindler_wigner(xi, f0, nu * c0 / xi, c0)
    planck = WignerGrid(eta, nu, np.tile(w0, (eta.size, 1)), window="analytic", kind="wigner")
    path = out / f"{prefix}_planck.csv"
    write_grid_csv(path, planck)
    written.append(path)

    if scene is not None:
        rgrid = mr.correction_grid(scene, eta, nu)
        path = out / f"{prefix}_correction.csv"
        write_grid_csv(path, rgrid)
        written.append(path)

        deformed = WignerGrid(
            eta, nu, w0[None, :] * (1.0 - rgrid.values), window="analytic", kind="wigner"
        )
        path = out / f"{prefix}_wigner.csv"
        write_grid_csv(path, deformed)
        written.append(path)

        if isinstance(traj, Stationary):
            d = traj.x0[2]
            omega = nu * c0 / scene.xi
            path = out / f"{prefix}_spectrum.csv"
            write_spectrum_csv(path, omega, mr.stationary_mirror_spectrum(d, f0, omega, c0))
            written.append(path)
    return written


def cmd_simulate(cfg, out_override=None, seed_override=None) -> list:
    c0 = cfg["units"]["c0"]
    sp = cfg["spectrum"]
    if sp["eps"] <= 0:
        raise ConfigError("simulate requires spectrum.eps > 0")
    spectrum = ff.SourceSpectrum(f0=sp["f0"], f1=sp["f1"], eps=sp["eps"])
    scene = cfg["scene"]
    traj = cfg["trajectory"]
    xi = _xi_of(traj, scene)
    est = cfg["estimator"]
    seed = int(seed_override) if seed_override is not None else int(est["seed"])
    ecfg = mc.EstimatorConfig(
        m_realizations=int(est["M"]),
        tau_grid=_axis(cfg, "eta") * xi / c0,
        taup_grid=_axis(cfg, "tau_prime"),
        window=est["window"],
        t_c=float(est["Tc"]),
        seed=seed,
    )
    omegas = _axis(cfg, "nu") * c0 / xi
    half_space = scene is not None
    if half_space:
        traj = scene.trajectory()

    corr, wig = mc.estimate_wigner(spectrum, traj, ecfg, int(est["N"]), omegas, half_space, c0)

    out = _outdir(cfg, out_override)
    prefix = cfg["output"]["prefix"]
    written = []
    for name, grid in (("autocorr", corr), ("wigner_est", wig)):
        path = out / f"{prefix}_{name}.csv"
        write_grid_csv(path, grid)
        written.append(path)
        if grid.stderr is not None:
            err_grid = (
                WignerGrid(grid.eta, grid.nu, grid.stderr, window=grid.window, kind=grid.kind)
                if isinstance(grid, WignerGrid)
                else type(grid)(grid.tau, grid.tau_prime, grid.stderr, meta=grid.meta)
            )
            path = out / f"{prefix}_{name}_stderr.csv"
            write_grid_csv(path, err_grid)
            written.append(path)

    meta = {
        "seed": seed,
        "n_waves": int(est["N"]),
        "m_realizations": int(est["M"]),
        "window": est["window"],
        "Tc": est["Tc"],
        "c0": c0,
        "spectrum": {"f0": sp["f0"], "f1": sp["f1"], "eps": sp["eps"]},
        "trajectory": trajectory_to_dict(traj),
        "scene": mr.scene_to_dict(scene) if scene is not None else None,
        "backend": kernels.BACKEND,
        "threads": mc._default_threads(),
        "versions": {"rindler_probe": __version__, "numpy": np.__version__, "scipy": scipy.__version__},
    }
    path = out / f"{prefix}_run.json"
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(path)
    return written


def cmd_localize(input_path, cfg, stationary=False, out_override=None) -> Path:
    c0 = cfg["units"]["c0"]
    out = _outdir(cfg, out_override)
    prefix = cfg["output"]["prefix"]
    if stationary:
        omega, values = read_spectrum_csv(input_path)
        result = lc.fit_distance_stationary(omega, values, cfg["spectrum"]["f0"], c0)
        doc = result.to_dict()
    else:
        stem = Path(input_path)
        err_path = stem.with_name(stem.stem + "_stderr.csv")
        grid = read_wigner_csv(input_path, err_path if err_path.exists() else None)
        if grid.kind != "correction":
            raise ConfigError(f"{input_path}: expected a correction-kind grid, got {grid.kind!r}")
        xi = _xi_of(cfg["trajectory"], cfg["scene"])
        fit_cfg = lc.FitConfig(**cfg["fit"]) if cfg["fit"] else lc.FitConfig()
        result = lc.fit_scene(grid, xi, c0, fit_cfg)
        doc = result.to_dict()
    path = out / f"{prefix}_localization.json"
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _print_suite(result) -> None:
    print(f"suite: {result['suite']}  ->  {'PASS' if result['passed'] else 'FAIL'}")
    width = max(len(c["name"]) for c in result["checks"])
    for c in result["checks"]:
        status = "pass" if c["passed"] else "FAIL"
        print(f"  [{status}] {c['name']:<{width}}  value={c['value']:.4g}  threshold={c['threshold']:.4g}")
        if c["detail"]:
            print(f"         {c['detail']}")


def cmd_validate(suite_name, out_dir=None) -> int:
    names = sorted(vd.SUITES) if suite_name == "all" else [suite_name]
    if any(n not in vd.SUITES for n in names):
        raise ConfigError(f"unknown suite {suite_name!r}; choose from {sorted(vd.SUITES)} or 'all'")
    results = []
    for name in names:
        results.append(vd.run_suite(name))
        _print_suite(results[-1])
    out = Path(out_dir) if out_dir else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"validate_{suite_name}.json"
    with open(path, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"report: {path}")
    return 0 if all(r["passed"] for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rindler-probe",
        description="Spectra perceived by accelerated observers in ambient noise",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("spectrum", "simulate"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        if name == "simulate":
            p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("localize")
    p.add_argument("input")
    p.add_argument("--config", required=True)
    p.add_argument("--stationary", action="store_true")
    p.add_argument("--out", default=None)

    p = sub.add_parser("validate")
    p.add_argument("--suite", required=True)
    p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "spectrum":
            for path in cmd_spectrum(load_config(args.config), args.out):
                print(path)
            return 0
        if args.command == "simulate":
            for path in cmd_simulate(load_config(args.config), args.out, args.seed):
                print(path)
            return 0
        if args.command == "localize":
            print(cmd_localize(args.input, load_config(args.config), args.stationary, args.out))
            return 0
        if args.command == "validate":
            return cmd_validate(args.suite, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
