"""Where the benchmark sits in a checkout, and how it finds the program.

``repro`` is not installed: the benchmark measures the source tree it was
checked out with, so ``src/`` goes on ``sys.path`` by position. A
directory holding only the benchmark (no ``src/repro``) is an error, not
something to work around — there is nothing to measure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
SRC = ROOT / "src"
#: Scratch for rendezvous sockets and reports; listed in .gitignore.
RUN_DIR = BENCH_DIR / ".run"
OUT_DIR = BENCH_DIR / "out"


def add_src_to_path() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"callpath: {SRC / 'repro'} not found — the benchmark measures the "
            "checkout it lives in and needs the program's source beside it"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_contract() -> dict:
    """The root BENCHMARK.json: workload and metric names, units, bounds."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)
