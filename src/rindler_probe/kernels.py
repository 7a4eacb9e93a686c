"""Field-kernel backend selection.

At import time the compiled Cython kernel is preferred; the NumPy fallback
is used when the extension is not built or when RINDLER_PROBE_FORCE_NUMPY
is set.  Both implement the same field_sum contract; the traced benchmark
run (perfbench/run.py --trace 1) times both and reports their agreement.
"""

import os

from . import _kernels_numpy

field_sum_numpy = _kernels_numpy.field_sum

if os.environ.get("RINDLER_PROBE_FORCE_NUMPY"):
    field_sum = field_sum_numpy
    BACKEND = "numpy"
else:
    try:
        from . import _field_kernel

        field_sum = _field_kernel.field_sum
        BACKEND = "cython"
    except ImportError:
        field_sum = field_sum_numpy
        BACKEND = "numpy"
