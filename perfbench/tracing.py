"""Spans around the program's layers, and the per-layer metrics made from them.

Spans are recorded by replacing, in this process only and only while a
traced round runs, the module attributes that rindler-probe looks up at
call time.  No file of the program changes.  A span is (name, start, end,
parent index, work count); the runner opens one root span per operation.
The parent stack assumes one thread, which is the program's default
(RINDLER_PROBE_THREADS unset).
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np
from rindler_probe import cli, core_math, freefield, kernels, localize, mirror, montecarlo


def _cos_evals(args, kwargs, out):
    t, _, _, omega, _, _, half_space = args
    return len(t) * len(omega) * (2 if half_space else 1)


def _size(args, kwargs, out):
    return int(np.size(out))


# (module, attribute, span name, work count of one call or None)
TARGETS = [
    (kernels, "field_sum", "kernels.field_sum", _cos_evals),
    (montecarlo, "sample_ensemble", "montecarlo.sample_ensemble", None),
    (montecarlo, "trajectory_points", "trajectories.trajectory_points",
     lambda a, k, out: len(out[0])),
    (montecarlo, "windowed_dft", "freefield.windowed_dft", None),
    (montecarlo, "estimate_autocorr", "montecarlo.estimate_autocorr", None),
    (montecarlo, "estimate_wigner", "montecarlo.estimate_wigner", None),
    (cli, "load_config", "cli.load_config", None),
    (cli, "write_grid_csv", "grids.write_grid_csv", lambda a, k, out: os.path.getsize(a[0])),
    (cli, "read_wigner_csv", "grids.read_wigner_csv", None),
    (mirror, "correction_R", "mirror.correction_R", _size),
    (localize, "correction_R", "mirror.correction_R", _size),
    (localize, "objective", "localize.objective", None),
    (localize, "minimize", "localize.minimize", None),
    (localize, "fit_scene", "localize.fit_scene", None),
    (mirror, "mirror_autocorr_regularized", "mirror.mirror_autocorr_regularized", _size),
    (freefield, "wigner_transform_fft", "freefield.wigner_transform_fft",
     lambda a, k, out: int(np.size(out[1]))),
    (core_math, "psi_quadrature", "core_math.psi_quadrature", None),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name):
        idx = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, name, start, 0)

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx, name, start, work):
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, start, end, parent, work)

    def _wrap(self, fn, name, work):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open()
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx, name, start, 0)
            if work is not None:
                self.spans[idx] = self.spans[idx][:4] + (work(args, kwargs, out),)
            return out

        return wrapper

    @contextmanager
    def installed(self):
        saved = []
        for module, attr, name, work in TARGETS:
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, work))
        try:
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def write(self, path):
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent,work\n")
            for i, (name, start, end, parent, work) in enumerate(self.spans):
                fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent},{work}\n")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, n_ops):
    """Per-operation figures of every layer; a layer that did not run reads 0."""
    calls = defaultdict(int)
    busy = defaultdict(float)
    work = defaultdict(int)
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    reduce_self = coarse = simplex_evals = 0.0
    for i, (name, start, end, parent, count) in enumerate(spans):
        calls[name] += 1
        busy[name] += end - start
        work[name] += count
        if name.startswith("montecarlo.estimate_"):
            reduce_self += end - start - child_time[i]
        if name == "localize.fit_scene":
            coarse += end - start
        if name == "localize.minimize":
            coarse -= end - start
        if name == "localize.objective" and parent >= 0 and spans[parent][0] == "localize.minimize":
            simplex_evals += 1
    per_op = {
        "trajectories.points_s": busy["trajectories.trajectory_points"],
        "trajectories.events": work["trajectories.trajectory_points"],
        "montecarlo.draws": calls["montecarlo.sample_ensemble"],
        "montecarlo.draw_s": busy["montecarlo.sample_ensemble"],
        "kernels.calls": calls["kernels.field_sum"],
        "kernels.cos_evals": work["kernels.field_sum"],
        "kernels.field_sum_s": busy["kernels.field_sum"],
        "montecarlo.estimate_calls": calls["montecarlo.estimate_autocorr"]
        + calls["montecarlo.estimate_wigner"],
        "montecarlo.reduce_self_s": reduce_self,
        "freefield.windowed_dft_calls": calls["freefield.windowed_dft"],
        "freefield.windowed_dft_s": busy["freefield.windowed_dft"],
        "cli.load_config_s": busy["cli.load_config"],
        "grids.write_s": busy["grids.write_grid_csv"],
        "grids.bytes_written": work["grids.write_grid_csv"],
        "grids.read_s": busy["grids.read_wigner_csv"],
        "mirror.correction_points": work["mirror.correction_R"],
        "mirror.correction_s": busy["mirror.correction_R"],
        "localize.fits": calls["localize.fit_scene"],
        "localize.objective_calls": calls["localize.objective"],
        "localize.coarse_s": coarse,
        "localize.simplex_s": busy["localize.minimize"],
        "localize.simplex_evals": simplex_evals,
        "mirror.autocorr_reg_s": busy["mirror.mirror_autocorr_regularized"],
        "mirror.autocorr_reg_points": work["mirror.mirror_autocorr_regularized"],
        "freefield.fft_s": busy["freefield.wigner_transform_fft"],
        "freefield.fft_points": work["freefield.wigner_transform_fft"],
        "core_math.psi_quadrature_calls": calls["core_math.psi_quadrature"],
        "core_math.psi_quadrature_ms": 1e3 * busy["core_math.psi_quadrature"],
    }
    out = {name: value / n_ops for name, value in per_op.items()}
    out["kernels.ns_per_cos"] = 1e9 * _ratio(busy["kernels.field_sum"], work["kernels.field_sum"])
    out["mirror.points_per_s"] = _ratio(work["mirror.correction_R"], busy["mirror.correction_R"])
    out["localize.objective_us"] = 1e6 * _ratio(busy["localize.objective"], calls["localize.objective"])
    return out


def kernel_bench(n_events=481, n_waves=4096, repeats=5):
    """Both field-kernel backends on synthetic input: ns per cosine, and agreement.

    The selected backend is the one `kernels.BACKEND` names; with the NumPy
    fallback selected the two rows coincide and the agreement is 0.
    """
    rng = np.random.default_rng(0)
    args = (
        rng.normal(size=n_events), rng.normal(size=(n_events, 3)),
        rng.normal(size=(n_waves, 3)), np.abs(rng.normal(size=n_waves)),
        rng.normal(size=n_waves), rng.normal(size=n_waves),
    )

    def ns_per_cos(fn, half_space):
        fn(*args, half_space)  # warm up
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn(*args, half_space)
            times.append(time.perf_counter() - start)
        return 1e9 * statistics.median(times) / (n_events * n_waves * (2 if half_space else 1))

    out = {"kernels.bench_backend_agreement": 0.0}
    for half_space, label in ((False, "free"), (True, "half")):
        numpy_ns = ns_per_cos(kernels.field_sum_numpy, half_space)
        out[f"kernels.bench_numpy_ns_per_cos_{label}"] = numpy_ns
        if kernels.field_sum is kernels.field_sum_numpy:
            out[f"kernels.bench_ns_per_cos_{label}"] = numpy_ns
            continue
        out[f"kernels.bench_ns_per_cos_{label}"] = ns_per_cos(kernels.field_sum, half_space)
        a = kernels.field_sum(*args, half_space)
        b = kernels.field_sum_numpy(*args, half_space)
        out["kernels.bench_backend_agreement"] = max(
            out["kernels.bench_backend_agreement"], float(np.max(np.abs(a - b)) / np.max(np.abs(b)))
        )
    return out
