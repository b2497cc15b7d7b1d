"""Tests for the experiments CLI (python -m repro.experiments)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.__main__ import build_parser, main


class TestParser:
    def test_table_choices(self):
        parser = build_parser()
        args = parser.parse_args(["table4"])
        assert args.table == "table4"
        assert args.scale == "quick"

    def test_overrides_parsed(self):
        parser = build_parser()
        args = parser.parse_args(
            ["table1", "--epochs", "3", "--design-scale", "0.5"]
        )
        assert args.epochs == 3
        assert args.design_scale == 0.5

    def test_rejects_unknown_table(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["table9"])


class TestMain:
    def test_table1_inprocess(self, capsys):
        rc = main(
            [
                "table1",
                "--sim-cycles", "20",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "[table1:" in out

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "t4.txt"
        rc = main(["table4", "--out", str(path)])
        assert rc == 0
        assert "Table IV" in path.read_text()

    def test_subprocess_entry(self):
        src = str(Path(__file__).resolve().parents[2] / "src")
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, path]))}
        result = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "table1",
             "--sim-cycles", "20"],
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        assert "Table I" in result.stdout
