"""Process set-up shared by the benchmark's entry point and its set-up probe."""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_environment():
    """One BLAS/OpenMP thread, and no seed override; call before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("BLINDDELEGATE_SEED", None)


def check_sources():
    if not os.path.isfile(os.path.join(SRC, "blinddelegate", "__init__.py")):
        raise SystemExit(f"error: no blinddelegate sources under {SRC}")


def import_program():
    """Import blinddelegate from this checkout's sources, never from elsewhere."""
    check_sources()
    sys.path.insert(0, SRC)
    import blinddelegate

    if not os.path.abspath(blinddelegate.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: blinddelegate imported from {blinddelegate.__file__}")
    return blinddelegate
