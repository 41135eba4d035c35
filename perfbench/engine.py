"""Locate and import the engine from the checkout this benchmark sits in.

The benchmark always measures the source tree next to it (``<root>/src``),
never an installed copy: if that tree is absent the import fails and the
benchmark exits without a result.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One process, at most two threads: BLAS may not add threads of its own.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def limit_threads() -> None:
    """Pin BLAS to one thread; call before numpy is imported."""
    for var in _THREAD_VARS:
        os.environ[var] = "1"


def load():
    """Import ``vasicek_barrier`` from ``<root>/src`` and return the package."""
    package_dir = SRC / "vasicek_barrier"
    if not (package_dir / "__init__.py").is_file():
        raise ImportError(f"engine source not found at {package_dir}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import vasicek_barrier
    from vasicek_barrier import cli  # noqa: F401  (the CLI is a measured layer)

    if Path(vasicek_barrier.__file__).resolve().parent != package_dir:
        raise ImportError(f"imported {vasicek_barrier.__file__}, not the tree at {package_dir}")
    return vasicek_barrier
