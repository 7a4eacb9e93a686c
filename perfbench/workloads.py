"""The four workloads: inputs made from the seed, timed operations, checks.

A workload object writes its configs when it is built (that is set-up).
``operation(r, k)`` returns the k-th operation of round r as a pair
``(run, check)``: ``run()`` is timed and returns what ``check(result)``
needs; ``check`` returns a list of failure messages and is not timed.
Every input of an operation comes from ``(seed, r, k)``.
"""

from __future__ import annotations

import json
import math

import numpy as np
from rindler_probe import cli, core_math, validate
from rindler_probe import freefield as ff
from rindler_probe import mirror as mr
from rindler_probe import montecarlo as mc
from rindler_probe.grids import WignerGrid

import checks

XI, C0, F0, EPS = 1.0, 1.0, 1.0, 0.05


def _rng(seed, r, k):
    return np.random.default_rng([seed, r, k])


class Simulate:
    """One `simulate` per operation, each with its own Monte-Carlo seed."""

    ops_per_round = 2

    def __init__(self, seed, workdir, doc):
        self.seed = seed
        self.workdir = workdir
        self.doc = doc
        self.config = workdir / "simulate.json"
        self.config.write_text(json.dumps(doc))

    def operation(self, r, k):
        rng = _rng(self.seed, r, k)
        mc_seed = int(rng.integers(2**62))
        out = self.workdir / f"op{k}"

        def run():
            return cli.cmd_simulate(cli.load_config(self.config), out, mc_seed)

        return run, lambda _: self.check(out, mc_seed, rng)

    def events(self, tau):
        """Observer events at proper times tau, from the world-line formulas."""
        r = XI * np.cosh(C0 * tau / XI)
        xyz = np.zeros((tau.size, 3))
        scene = self.doc.get("scene")
        if scene is None:
            xyz[:, 2] = r
        else:
            xyz[:, 0] = r * math.sin(scene["alpha"])
            xyz[:, 2] = scene["xi0"] + r * math.cos(scene["alpha"])
        return (XI / C0) * np.sinh(C0 * tau / XI), xyz

    def check(self, out, mc_seed, rng):
        est = self.doc["estimator"]
        scene = self.doc.get("scene")
        tau, taup, corr = checks.read_csv(out / "sim_autocorr.csv")
        corr_se = checks.read_csv(out / "sim_autocorr_stderr.csv")[2]
        _, nu, wig = checks.read_csv(out / "sim_wigner_est.csv")
        wig_se = checks.read_csv(out / "sim_wigner_est_stderr.csv")[2]
        if scene is None:
            target = ff.rindler_autocorr_regularized(XI, F0, EPS, tau[:, None], taup[None, :], C0)
        else:
            target = mr.mirror_autocorr_regularized(
                mr.MirrorScene(**scene), F0, EPS, tau[:, None], taup[None, :]
            )
        w_target = checks.windowed_target(target, taup, nu * C0 / XI, est["Tc"])
        failures = checks.estimate(
            "autocorr", corr, corr_se, target, checks.AUTOCORR_RMS, checks.AUTOCORR_COVER
        )
        failures += checks.estimate(
            "wigner", wig, wig_se, w_target, checks.WIGNER_RMS, checks.WIGNER_COVER
        )
        if scene is None:
            failures += checks.flatness(wig, wig_se)

        ens = mc.sample_ensemble(
            ff.SourceSpectrum(f0=F0, eps=EPS), est["N"], mc.realization_key(mc_seed, 0),
            scene is not None, C0,
        )
        reach = np.max(np.abs(tau)) + np.max(np.abs(taup)) / 2.0
        t, xyz = self.events(rng.uniform(-reach, reach, 6))
        field_std = math.sqrt(F0 / (4.0 * math.pi**2 * EPS**2))
        failures += checks.kernel(mc.field_at(ens, t, xyz), checks.field_reference(ens, t, xyz), field_std)
        return failures


def simulate_doc(grids, n_waves, m_realizations, scene=None):
    doc = {
        "units": {"c0": C0},
        "spectrum": {"f0": F0, "eps": EPS},
        "trajectory": {"kind": "rindler", "xi": XI},
        "grids": grids,
        "estimator": {"N": n_waves, "M": m_realizations, "window": "gaussian", "Tc": 2.5},
        "output": {"prefix": "sim"},
    }
    if scene is not None:
        doc["scene"] = scene
    return doc


def simulate_rindler(seed, workdir):
    # 3 tau rows x 401 lags: 481 unique events; free-space kernel branch
    grids = {"eta": [-1.0, 1.0, 3], "nu": [0.5, 3.0, 26], "tau_prime": [-10.0, 10.0, 401]}
    return Simulate(seed, workdir, simulate_doc(grids, 4096, 16))


def simulate_mirror(seed, workdir):
    # 25 eta rows x 201 lags: 441 unique events; half-space branch, ObliqueRindler
    grids = {"eta": [-3.0, 3.0, 25], "nu": [0.2, 3.0, 29], "tau_prime": [-5.0, 5.0, 201]}
    scene = {"xi": XI, "xi0": -0.5 * XI, "alpha": math.pi / 4}
    return Simulate(seed, workdir, simulate_doc(grids, 1024, 32, scene))


# (alpha, alpha0, noisy).  Noisy grids carry 1% Gaussian noise and a stderr
# CSV.  They are fitted with refinement_tol 1e-9: at the default 1e-16 the
# inverse-variance simplex runs out of its evaluation budget on about half
# of the noise draws, so the fit time would depend on the seed.
LOCALIZE_SCENES = [
    (0.0, -0.9, False),
    (0.0, 0.5, False),
    (math.pi / 4, -0.5, True),
    (1.2, 2.0, True),
]
NOISE = 0.01


class Localize:
    """`spectrum` then `localize` for one scene per operation."""

    ops_per_round = len(LOCALIZE_SCENES)

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.configs = []
        for k, (alpha, alpha0, noisy) in enumerate(LOCALIZE_SCENES):
            doc = {
                "units": {"c0": C0},
                "spectrum": {"f0": F0},
                "trajectory": {"kind": "rindler", "xi": XI},
                "scene": {"xi": XI, "xi0": alpha0 * XI, "alpha": alpha},
                "grids": {"eta": [-3.0, 3.0, 25], "nu": [0.2, 4.0, 40]},
                "output": {"prefix": f"scene{k}"},
            }
            if noisy:
                doc["fit"] = {"refinement_tol": 1e-9}
            path = workdir / f"scene{k}.json"
            path.write_text(json.dumps(doc))
            self.configs.append(path)

    def operation(self, r, k):
        alpha, alpha0, noisy = LOCALIZE_SCENES[k]
        rng = _rng(self.seed, r, k)
        out = self.workdir / f"op{k}"
        prefix = f"scene{k}"

        def run():
            cfg = cli.load_config(self.configs[k])
            cli.cmd_spectrum(cfg, out)
            grid_path = out / f"{prefix}_correction.csv"
            if noisy:
                grid = cli.read_wigner_csv(grid_path)
                stderr = NOISE * np.abs(grid.values)
                grid.values = grid.values + stderr * rng.standard_normal(stderr.shape)
                grid_path = out / f"{prefix}_noisy.csv"
                cli.write_grid_csv(grid_path, grid)
                cli.write_grid_csv(
                    out / f"{prefix}_noisy_stderr.csv",
                    WignerGrid(grid.eta, grid.nu, stderr, kind="correction"),
                )
            return cli.cmd_localize(grid_path, cfg, out_override=out)

        def check(fit_path):
            _, nu, planck = checks.read_csv(out / f"{prefix}_planck.csv")
            failures = checks.planck(nu * C0 / XI, planck, XI, F0, C0)
            eta, nu, corr = checks.read_csv(out / f"{prefix}_correction.csv")
            rows, cols = rng.integers(eta.size, size=6), rng.integers(nu.size, size=6)
            points = [(eta[i], nu[j], corr[i, j]) for i, j in zip(rows, cols)]
            failures += checks.correction(alpha, alpha0, points)
            fit = json.loads(fit_path.read_text())
            failures += checks.pose(fit["alpha_hat"], fit["alpha0_hat"], alpha, alpha0, noisy)
            return failures

        return run, check


# At 2^21 lags over +-20 the rectangle rule resolves the eps = 1e-4 peak of
# the lag covariance (width eps / cosh eta) for |eta| <= 0.5 with the
# mirror-oracle bound met (worst 5.5e-4 against 1e-3); the validation
# suite's 2^22 lags reach |eta| = 1 at twice the memory.
ORACLE_SPAN, ORACLE_LAGS, ORACLE_EPS, ORACLE_ETA = 20.0, 2**21, 1e-4, 0.5
ORACLE_SCENES = [
    mr.MirrorScene(xi=XI, xi0=alpha0 * XI, alpha=alpha, c0=C0)
    for alpha in (0.0, math.pi / 4, 1.2)
    for alpha0 in (-0.9, -0.5, 0.3, 2.0)
    if alpha0 > -math.cos(alpha)
]


class Oracle:
    """FFT of the mirror autocorrelation against W0(1 - R), plus Psi quadrature.

    The Psi tuples are the psi-oracle suite's stratified set, dealt out over
    the operations of a round.  They do not depend on the seed: on other
    draws from the same strata the relative bound fails where |Psi| ~ 1e-10
    (see CHANGES.md).
    """

    ops_per_round = len(ORACLE_SCENES)

    def __init__(self, seed, workdir):
        self.seed = seed
        self.lags = ff.fft_lag_grid(ORACLE_SPAN, ORACLE_LAGS)
        self.tuples = validate.psi_parameter_strata()

    def operation(self, r, k):
        scene = ORACLE_SCENES[k]
        rng = _rng(self.seed, r, k)
        eta = rng.uniform(-ORACLE_ETA, ORACLE_ETA)
        tuples = self.tuples[k :: self.ops_per_round]

        def run():
            corr = mr.mirror_autocorr_regularized(scene, F0, ORACLE_EPS, eta * XI / C0, self.lags)
            omega, w = ff.wigner_transform_fft(corr, ORACLE_SPAN)
            band = (omega >= 0.2) & (omega <= 3.0)
            w0 = ff.rindler_wigner(XI, F0, omega[band], C0)
            r_band = mr.correction_R(scene, eta, omega[band] * XI / C0)
            psi_dev = 0.0
            for v, a, b, c in tuples:
                p = core_math.PsiParams(a, b, c)
                quad = core_math.psi_quadrature(v, p)
                psi_dev = max(psi_dev, abs(core_math.psi_closed(v, p).value - quad) / abs(quad))
            return checks.fft_deviation(w[band], w0, r_band), psi_dev

        return run, lambda result: checks.oracle(*result)


WORKLOADS = {
    "simulate-rindler": simulate_rindler,
    "simulate-mirror": simulate_mirror,
    "localize-pose": Localize,
    "oracle-fft": Oracle,
}
