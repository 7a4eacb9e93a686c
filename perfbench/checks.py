"""Correctness checks on the outputs of the timed operations.

Every check compares an output with a computation made apart from the code
path that produced it, or with a property the method must have.  Each one
returns a list of failure messages; an empty list means the output passed.
The bounds below were set from the seeds listed in README.md.
"""

from __future__ import annotations

import math

import numpy as np
from rindler_probe.core_math import PsiParams, psi_quadrature

# Monte-Carlo estimates at M = 16..32 realizations, per operation.  The
# autocorrelation grid has many nearly independent lags, so its RMS of
# (estimate - target)/stderr sits in a narrow band.  The Wigner grid is
# smooth in nu (a window of width 1/Tc), so a few excursions cover whole
# blocks of points: its RMS and coverage vary more between seeds, and so
# does the pairwise row agreement (0.87 was seen once in 40 operations).
AUTOCORR_RMS = (0.8, 1.4)
AUTOCORR_COVER = 0.95
WIGNER_RMS = (0.2, 2.5)
WIGNER_COVER = 0.7
FLAT_COVER = 0.7
KERNEL_TOL = 1e-9      # spot-check error relative to the field's standard deviation
PLANCK_TOL = 1e-12     # relative
CORRECTION_TOL = 1e-8  # on max(1, |R|)
POSE_TOL_NOISELESS = 1e-3
POSE_TOL_NOISY = 5e-2  # the bound of the localize validation suite under 1% noise
FFT_TOL = 1e-3         # the bound of the mirror-oracle validation suite
PSI_TOL = 1e-7         # the bound of the psi-oracle validation suite


def read_csv(path):
    """Rows, column values and matrix of a grid CSV, read with NumPy alone."""
    with open(path) as fh:
        header = [line for line in fh if line.startswith("#")][-1]
    cols = np.array(header[1:].split(",")[1:], dtype=float)
    data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    return data[:, 0], cols, data[:, 1:]


def field_reference(ens, t, xyz):
    """2 Re sum_j a_j e^{i(k.x - w t)}, minus the image point (x, y, -z) in half-space."""
    t = np.asarray(t, dtype=float)
    xyz = np.asarray(xyz, dtype=float)
    phase = np.exp(1j * (xyz @ ens.k.T - np.outer(t, ens.omega)))
    out = 2.0 * (phase @ ens.amp).real
    if ens.half_space:
        image = xyz * np.array([1.0, 1.0, -1.0])
        out -= 2.0 * (np.exp(1j * (image @ ens.k.T - np.outer(t, ens.omega))) @ ens.amp).real
    return out


def kernel(u_kernel, u_reference, field_std):
    err = float(np.max(np.abs(np.asarray(u_kernel) - u_reference))) / field_std
    if not err <= KERNEL_TOL:
        return [f"kernel spot check: max error {err:.3e} x field std > {KERNEL_TOL:.0e}"]
    return []


def estimate(label, values, stderr, target, rms_range, min_cover):
    """3-SE coverage and RMS of (estimate - target)/stderr around 1."""
    z = (values - target) / stderr
    cover = float(np.mean(np.abs(z) <= 3.0))
    rms = float(np.sqrt(np.mean(z**2)))
    out = []
    if not cover >= min_cover:
        out.append(f"{label}: 3-SE coverage {cover:.3f} < {min_cover}")
    if not rms_range[0] <= rms <= rms_range[1]:
        out.append(f"{label}: RMS z {rms:.3f} outside {rms_range}")
    return out


def flatness(values, stderr):
    """Rows of a stationary record's Wigner estimate agree within 3 SE pairwise."""
    hits = []
    for i in range(values.shape[0]):
        for j in range(i + 1, values.shape[0]):
            bound = 3.0 * np.hypot(stderr[i], stderr[j])
            hits.append(np.abs(values[i] - values[j]) <= bound)
    cover = float(np.mean(hits))
    if not cover >= FLAT_COVER:
        return [f"tau-flatness: pairwise 3-SE coverage {cover:.3f} < {FLAT_COVER}"]
    return []


def windowed_target(corr, taup, omegas, t_c):
    """Closed-form autocorrelation rows through the Gaussian window and lag grid."""
    chi = np.exp(-(taup**2) / (2.0 * t_c**2))
    dt = (taup[-1] - taup[0]) / (taup.size - 1)
    return (corr * chi) @ np.cos(np.outer(omegas, taup)).T * dt


def planck(omega, values, xi, f0, c0):
    """Planck CSV rows against (f0/4pi) w / tanh(pi xi w / c0)."""
    expected = f0 / (4.0 * math.pi) * omega / np.tanh(math.pi * xi * omega / c0)
    err = float(np.max(np.abs(values - expected[None, :]) / np.abs(expected)[None, :]))
    if not err <= PLANCK_TOL:
        return [f"planck: max relative error {err:.3e} > {PLANCK_TOL:.0e}"]
    return []


def correction_by_quadrature(alpha, alpha0, eta, nu):
    """R(eta, nu) = -tanh(pi nu)/(2 pi nu) Psi(2 nu; A, B(eta), C(eta)) by PV quadrature."""
    a = math.sin(alpha) ** 2
    b = -2.0 * alpha0 * math.cos(alpha) * math.cosh(eta)
    c = -1.0 - alpha0**2 - math.cos(alpha) ** 2 * math.sinh(eta) ** 2
    if a + c + abs(b) > -1e-6:
        return None  # the quadratic touches cosh = 1: Psi's removable limit, no oracle
    psi = psi_quadrature(2.0 * nu, PsiParams(a, b, c))
    return -math.tanh(math.pi * nu) / (2.0 * math.pi * nu) * psi


def correction(alpha, alpha0, points):
    """Sampled (eta, nu, R from the CSV) points against the PV-quadrature identity."""
    worst = 0.0
    for eta, nu, value in points:
        oracle = correction_by_quadrature(alpha, alpha0, eta, nu)
        if oracle is not None:
            worst = max(worst, abs(value - oracle) / max(1.0, abs(oracle)))
    if not worst <= CORRECTION_TOL:
        return [f"correction grid vs PV quadrature: max error {worst:.3e} > {CORRECTION_TOL:.0e}"]
    return []


def pose(alpha_hat, alpha0_hat, alpha, alpha0, noisy):
    tol = POSE_TOL_NOISY if noisy else POSE_TOL_NOISELESS
    err = max(abs(alpha_hat - abs(alpha)), abs(alpha0_hat - alpha0))
    if not err <= tol:
        return [f"pose ({alpha:.4f}, {alpha0:.4f}): recovery error {err:.3e} > {tol:.0e}"]
    return []


def fft_deviation(w_fft, w0, r):
    """max |FFT - W0 (1 - R)| / W0 over the compared band."""
    return float(np.max(np.abs(w_fft - w0 * (1.0 - r)) / w0))


def oracle(fft_dev, psi_dev):
    out = []
    if not fft_dev <= FFT_TOL:
        out.append(f"FFT vs W0(1-R): deviation {fft_dev:.3e} > {FFT_TOL:.0e}")
    if not psi_dev <= PSI_TOL:
        out.append(f"psi_closed vs quadrature: deviation {psi_dev:.3e} > {PSI_TOL:.0e}")
    return out
