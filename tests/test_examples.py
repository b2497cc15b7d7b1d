"""Smoke tests for the example scripts.

``quickstart`` and ``batched_inference`` run end to end (they are
small); the heavier examples are compile-checked and their mains
imported — the full runs live in the benchmark suite's territory.
"""

import py_compile
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"
ALL_EXAMPLES = sorted(EXAMPLES.glob("*.py"))


class TestExamples:
    def test_examples_present(self):
        names = {p.name for p in ALL_EXAMPLES}
        assert {
            "quickstart.py",
            "power_estimation.py",
            "reliability_analysis.py",
            "train_deepseq.py",
            "family_classification.py",
            "serve_deepseq.py",
        } <= names

    @pytest.mark.parametrize("path", ALL_EXAMPLES, ids=lambda p: p.name)
    def test_examples_compile(self, path):
        py_compile.compile(str(path), doraise=True)

    def test_quickstart_runs(self):
        result = subprocess.run(
            [sys.executable, str(EXAMPLES / "quickstart.py")],
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert result.returncode == 0, result.stderr
        assert "avg prediction error" in result.stdout
        assert "circuit:" in result.stdout

    def test_batched_inference_runs(self):
        result = subprocess.run(
            [sys.executable, str(EXAMPLES / "batched_inference.py")],
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert result.returncode == 0, result.stderr
        line = next(
            row for row in result.stdout.splitlines()
            if row.startswith("max |fp32 - fp64| over all nodes:")
        )
        assert 0 < float(line.rsplit(":", 1)[1]) <= 1e-4

    @pytest.mark.parametrize(
        "name",
        [
            "power_estimation",
            "reliability_analysis",
            "family_classification",
            "serve_deepseq",
        ],
    )
    def test_heavy_examples_importable(self, name):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            f"example_{name}", EXAMPLES / f"{name}.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert callable(module.main)
