"""Locate the program under test: the strandprover sources of this checkout.

The benchmark never uses an installed copy.  It imports the package from
`src/` next to its own directory, and refuses to run when that is missing.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def load() -> None:
    """Put the checkout's sources first on sys.path and import them."""
    if not (SRC / "strandprover" / "__init__.py").is_file():
        raise SystemExit(f"strandbench: no strandprover sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import strandprover

    if Path(strandprover.__file__).resolve().parent != SRC / "strandprover":
        raise SystemExit(f"strandbench: imported {strandprover.__file__}, not the checkout's sources")
