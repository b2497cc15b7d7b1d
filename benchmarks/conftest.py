"""Benchmark-suite configuration.

Every benchmark regenerates one paper table at the *quick* experiment
scale (see ``repro.experiments.config``) and prints it, so running

    pytest benchmarks/bench_table*.py --benchmark-only -s

reproduces the shape of Tables I–VII end to end on a laptop CPU.  Each
experiment runs exactly once (``pedantic`` with one round) — these are
minutes-long training pipelines, not microbenchmarks.

Environment knobs:
    REPRO_SCALE=paper        run at full publication scale (hours).
    REPRO_DATA_CACHE=DIR     persistent label-cache directory (default: a
                             session tmp dir, so tables regenerated in one
                             run share labels; point it at a fixed path to
                             make labels survive across runs).
    REPRO_DATA_WORKERS=N     data-factory pool size (0 = serial).
"""

import os
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


@pytest.fixture(scope="session")
def scale(tmp_path_factory):
    """The experiment scale, with its data factory wired for the session.

    Every table driver labels circuits through :mod:`repro.data`; giving
    the whole benchmark session one cache directory means e.g. Tables V,
    VI and VII build the pre-training corpus labels exactly once.
    """
    from dataclasses import replace

    from repro.experiments.config import get_scale

    base = get_scale(os.environ.get("REPRO_SCALE", "quick"))
    cache_dir = os.environ.get("REPRO_DATA_CACHE") or str(
        tmp_path_factory.mktemp("label-cache")
    )
    workers_env = os.environ.get("REPRO_DATA_WORKERS")
    return replace(
        base,
        data_cache_dir=cache_dir,
        data_workers=int(workers_env) if workers_env else None,
    )


def run_once(benchmark, fn, *args, **kwargs):
    """Run a table driver exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
