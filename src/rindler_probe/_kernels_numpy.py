"""NumPy fallback for the plane-wave field summation kernel."""

import numpy as np


def polar(a_re, a_im):
    """(2|a|, arg a) of the complex amplitudes a = a_re + i a_im, as float64."""
    a_re = np.asarray(a_re, dtype=float)
    a_im = np.asarray(a_im, dtype=float)
    return 2.0 * np.hypot(a_re, a_im), np.arctan2(a_im, a_re)


def field_sum(t, xyz, kvec, omega, a_re, a_im, half_space):
    """Real field 2 Re sum_j a_j (e^{i k_j . x} [- e^{i k_j . x^s}]) e^{-i w_j t}.

    t: (E,), xyz: (E, 3), kvec: (N, 3), omega/a_re/a_im: (N,).
    Uses 2 Re[a e^{i phi}] = 2|a| cos(phi + arg a), one cosine per mode.
    Chunked over events to bound the (chunk, N) phase temporaries.
    """
    t = np.ascontiguousarray(t, dtype=float)
    xyz = np.ascontiguousarray(xyz, dtype=float)
    n_events = t.shape[0]
    n_waves = omega.shape[0]
    amp2, theta = polar(a_re, a_im)
    out = np.empty(n_events)
    chunk = max(1, 4_000_000 // max(n_waves, 1))
    for lo in range(0, n_events, chunk):
        hi = min(lo + chunk, n_events)
        ph = xyz[lo:hi] @ kvec.T - np.outer(t[lo:hi], omega) + theta[None, :]
        acc = np.cos(ph) @ amp2
        if half_space:
            # image point flips z, so the image phase is ph - 2 z k_z
            ph -= 2.0 * np.outer(xyz[lo:hi, 2], kvec[:, 2])
            acc -= np.cos(ph) @ amp2
        out[lo:hi] = acc
    return out
