"""Repo-level pytest configuration.

Puts ``src/`` on ``sys.path`` so the test and benchmark suites run in a
fresh checkout even when the package is not installed (this offline
environment lacks ``wheel``, making ``pip install -e .`` unavailable; use
``python setup.py develop`` instead — see README).

Also prunes stale ``__pycache__`` directories under ``tests/``: bytecode
compiled under pytest's legacy prepend import mode records absolute
``__file__`` paths, and a leftover cache for a basename shared by two
test directories makes collection fail with an import-file mismatch.
"""

import shutil
import sys
from pathlib import Path

_ROOT = Path(__file__).parent
_SRC = _ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
# The repo root itself is importable too, so test modules can reach the
# shared factory library (``from tests.conftest import build_pair``).
if str(_ROOT) not in sys.path:
    sys.path.insert(1, str(_ROOT))


def _prune_stale_bytecode() -> None:
    for directory in ("tests", "benchmarks"):
        base = _ROOT / directory
        if not base.is_dir():
            continue
        for cache in base.rglob("__pycache__"):
            shutil.rmtree(cache, ignore_errors=True)


_prune_stale_bytecode()
