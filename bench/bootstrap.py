"""Process set-up that has to happen before numpy is imported.

BLAS reads its thread count once, when numpy loads, so the benchmark
pins it here first. The package under test is always the checkout's own
``src/wristkin``; an installed copy elsewhere must never be measured.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class SourceMissing(RuntimeError):
    """The checkout holds no importable wristkin package."""


def pin_blas_threads() -> None:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def use_checkout_source():
    """Import wristkin from ``<checkout>/src`` and return the module."""
    if not (SRC / "wristkin" / "__init__.py").is_file():
        raise SourceMissing(f"no wristkin package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import wristkin

    if not Path(wristkin.__file__).resolve().is_relative_to(SRC):
        raise SourceMissing(f"wristkin was imported from {wristkin.__file__}, not {SRC}")
    return wristkin
