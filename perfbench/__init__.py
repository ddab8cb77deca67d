"""Seeded end-to-end and per-layer benchmark of the bipart solver.

Run from the repository root, for example::

    python3 -m perfbench --workload sparse-dfs --seed 0 --seconds 30 --trace 0

The package puts the checkout's own ``src`` directory first on the import
path, so the solver under test is always the one next to this directory.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"

if (SRC / "bipart" / "__init__.py").is_file() and str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def solver_present() -> bool:
    """Whether the checkout holds the solver sources the benchmark measures."""
    return (SRC / "bipart" / "__init__.py").is_file()
