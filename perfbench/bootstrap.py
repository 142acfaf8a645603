"""Process set-up shared by the benchmark's scripts.

Call :func:`prepare` before anything imports numpy: it pins BLAS to one
thread (the reference machine has two cores and the benchmark runs one
closed-loop client) and puts the checkout's ``src/`` first on ``sys.path``,
so the package under test is the one built from this checkout.
"""

from __future__ import annotations

import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def prepare():
    if "numpy" in sys.modules:
        raise RuntimeError("bootstrap.prepare() must run before numpy is imported")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "micpkit", "__init__.py")):
        sys.exit(f"perfbench: no micpkit package under {SRC}")
    sys.path.insert(0, SRC)
