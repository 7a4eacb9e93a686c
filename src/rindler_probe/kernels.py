"""Field-kernel backend: the compiled C kernel if it builds and loads, else NumPy.

The first call to field_sum compiles _field_kernel.c with the system C
compiler (command in _COMMAND), caches the shared library under
$XDG_CACHE_HOME/rindler-probe/ (default ~/.cache), and loads it with ctypes;
a call releases the GIL.  When there is no compiler, the build fails or the
cache is not writable, one warning names the command and every call uses
the NumPy kernel, field_sum_numpy, which is also the compiled kernel's
oracle.  BACKEND ("c" or "numpy") says which is in use; reading it before
the first call selects the backend.  The traced benchmark run
(perfbench/run.py --trace 1) times both and reports their agreement.
"""

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np

from . import _kernels_numpy

field_sum_numpy = _kernels_numpy.field_sum

_SOURCE = Path(__file__).with_name("_field_kernel.c")
# {out} and {src} are filled in per build; the cache name hashes the rest
_COMMAND = ("cc", "-O3", "-fno-math-errno", "-fopenmp-simd", "-shared", "-fPIC",
            "-o", "{out}", "{src}", "-lmvec", "-lm")

_lock = threading.Lock()
_impl = None


def _cache_dir():
    return Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "rindler-probe"


def _build(command, cache):
    """Path of the library that `command` builds from _SOURCE, built if not cached."""
    source = _SOURCE.read_bytes()
    digest = hashlib.sha256(source + "\0".join(command).encode()).hexdigest()[:16]
    lib = cache / f"field_kernel-{digest}.so"
    if lib.exists():
        return lib
    cache.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=lib.stem, suffix=".tmp", dir=cache)
    os.close(fd)
    try:
        argv = [word.format(out=tmp, src=_SOURCE) for word in command]
        subprocess.run(argv, check=True, capture_output=True, text=True)
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


def _load(command=_COMMAND, cache=None):
    """The compiled field_sum, or field_sum_numpy after one warning."""
    try:
        lib = ctypes.CDLL(str(_build(command, cache or _cache_dir())))
    except (OSError, subprocess.CalledProcessError) as exc:
        shown = " ".join(command).format(out="<library>", src=_SOURCE)
        detail = str(getattr(exc, "stderr", None) or exc).strip()
        warnings.warn(
            f"field kernel: `{shown}` failed ({detail}); using the NumPy kernel",
            RuntimeWarning,
            stacklevel=4,  # the caller of field_sum
        )
        return field_sum_numpy
    double_p = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    c_sum = lib.field_sum
    c_sum.restype = None
    c_sum.argtypes = [ctypes.c_ssize_t, ctypes.c_ssize_t, *[double_p] * 6, ctypes.c_int, double_p]

    def field_sum_c(t, xyz, kvec, omega, a_re, a_im, half_space):
        t = np.ascontiguousarray(t, dtype=np.float64)
        xyz = np.ascontiguousarray(xyz, dtype=np.float64)
        kvec_t = np.ascontiguousarray(np.asarray(kvec, dtype=np.float64).T)
        omega = np.ascontiguousarray(omega, dtype=np.float64)
        amp2, theta = _kernels_numpy.polar(a_re, a_im)
        n_events, n_waves = t.shape[0], omega.shape[0]
        if xyz.shape != (n_events, 3) or kvec_t.shape != (3, n_waves) or amp2.shape != (n_waves,):
            raise ValueError("field_sum: shapes must be t (E,), xyz (E, 3), kvec (N, 3), "
                             "omega, a_re and a_im (N,)")
        out = np.empty(n_events)
        c_sum(n_events, n_waves, t, xyz, kvec_t, omega, amp2, theta, bool(half_space), out)
        return out

    return field_sum_c


def _selected():
    global _impl
    with _lock:
        if _impl is None:
            _impl = _load()
        return _impl


def field_sum(t, xyz, kvec, omega, a_re, a_im, half_space):
    """Real field 2 Re sum_j a_j (e^{i k_j . x} [- e^{i k_j . x^s}]) e^{-i w_j t}.

    t: (E,), xyz: (E, 3), kvec: (N, 3), omega/a_re/a_im: (N,).
    """
    return (_impl or _selected())(t, xyz, kvec, omega, a_re, a_im, half_space)


def __getattr__(name):
    if name == "BACKEND":
        return "numpy" if _selected() is field_sum_numpy else "c"
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
