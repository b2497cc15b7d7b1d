"""Tests for experiment configuration and reporting."""

import pytest

from repro.experiments.config import (
    PAPER,
    QUICK,
    ExperimentScale,
    ServeConfig,
    get_scale,
)
from repro.experiments.reporting import TextTable


class TestScales:
    def test_quick_defaults(self):
        assert QUICK.name == "quick"
        assert QUICK.design_scale < 1.0
        assert QUICK.epochs < PAPER.epochs

    def test_paper_matches_publication(self):
        assert PAPER.hidden == 64
        assert PAPER.iterations == 10
        assert PAPER.epochs == 50
        assert PAPER.lr == 1e-4
        assert PAPER.finetune_workloads == 1000
        assert PAPER.family_counts == {
            "iscas89": 1159,
            "itc99": 1691,
            "opencores": 7684,
        }
        assert PAPER.design_scale == 1.0
        # 10,000-cycle workloads realized as streams x cycles.
        assert PAPER.effective_samples >= 10_000

    def test_get_scale_lookup(self):
        assert get_scale("quick") is QUICK
        assert get_scale("paper") is PAPER
        with pytest.raises(ValueError):
            get_scale("warp")

    def test_get_scale_overrides(self):
        s = get_scale("quick", epochs=3, hidden=8)
        assert s.epochs == 3
        assert s.hidden == 8
        assert s.name == "quick"
        assert QUICK.epochs != 3, "overrides must not mutate the registry"


class TestServeConfig:
    def test_defaults_are_valid_and_bitwise_dtype(self):
        cfg = ServeConfig()
        assert cfg.workers >= 1
        assert cfg.dtype == "float64"  # the bitwise-guaranteed path
        assert cfg.max_pending >= cfg.batch_size

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            ServeConfig(workers=0)
        with pytest.raises(ValueError):
            ServeConfig(batch_size=0)
        with pytest.raises(ValueError):
            ServeConfig(max_latency_ms=0)
        with pytest.raises(ValueError):
            ServeConfig(batch_size=8, max_pending=4)
        with pytest.raises(ValueError):
            ServeConfig(deadline_ms=-1.0)
        with pytest.raises(ValueError):
            ServeConfig(max_concurrent_sweeps=0)
        with pytest.raises(ValueError, match="dtype"):
            ServeConfig(dtype="float46")  # typo must fail here, not in Server
        with pytest.raises(ValueError, match="dtype"):
            ServeConfig(dtype="float16")  # would silently break the guarantee

    def test_deadline_optional(self):
        assert ServeConfig().deadline_ms is None
        assert ServeConfig(deadline_ms=250.0).deadline_ms == 250.0


class TestTextTable:
    def test_renders_title_and_rows(self):
        t = TextTable("My Table", ["a", "bb"])
        t.add("x", 1.23456)
        t.set_footer("avg", 2.0)
        out = t.render()
        assert "My Table" in out
        assert "1.235" in out
        assert "avg" in out

    def test_column_alignment(self):
        t = TextTable("T", ["name", "v"])
        t.add("longer_name", 1)
        lines = t.render().splitlines()
        header, row = lines[2], lines[4]
        assert len(header) == len(row)
