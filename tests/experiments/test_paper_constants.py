"""Consistency checks of the transcribed paper values.

The PAPER_TABLE* dictionaries are the reference every regenerator prints
next to measured values; these tests confirm the transcription is
internally consistent with the averages the paper reports in its text.
"""

import pytest

from repro.experiments import (
    PAPER_TABLE2,
    PAPER_TABLE3,
    PAPER_TABLE5,
    PAPER_TABLE6,
    PAPER_TABLE7,
)


class TestTable2Constants:
    def test_deepseq_best_everywhere(self):
        ds_tr, ds_lg = PAPER_TABLE2[("deepseq", "dual_attention")]
        for key, (tr, lg) in PAPER_TABLE2.items():
            if key[0] != "deepseq":
                assert ds_tr < tr
                assert ds_lg < lg

    def test_published_relative_improvements(self):
        """Paper: 20.00 % TTR and 15.79 % TLG improvement over the best
        baseline (DAG-RecGNN + attention)."""
        base_tr, base_lg = PAPER_TABLE2[("dag_recgnn", "attention")]
        ds_tr, ds_lg = PAPER_TABLE2[("deepseq", "dual_attention")]
        assert (base_tr - ds_tr) / base_tr == pytest.approx(0.20, abs=0.005)
        assert (base_lg - ds_lg) / base_lg == pytest.approx(0.1579, abs=0.005)


class TestTable3Constants:
    def test_monotone_ablation(self):
        rows = [
            PAPER_TABLE3[("dag_recgnn", "attention")],
            PAPER_TABLE3[("deepseq", "attention")],
            PAPER_TABLE3[("deepseq", "dual_attention")],
        ]
        for (tr_a, lg_a), (tr_b, lg_b) in zip(rows, rows[1:]):
            assert tr_b <= tr_a
            assert lg_b <= lg_a

    def test_published_component_gains(self):
        """Paper: customized propagation alone gives 11.43 % / 2.11 %."""
        base = PAPER_TABLE3[("dag_recgnn", "attention")]
        prop = PAPER_TABLE3[("deepseq", "attention")]
        assert (base[0] - prop[0]) / base[0] == pytest.approx(0.1143, abs=0.01)
        assert (base[1] - prop[1]) / base[1] == pytest.approx(0.0211, abs=0.01)


class TestTable5Constants:
    def test_published_averages(self):
        """Paper text: 16.35 % / 8.48 % / 3.19 % averages."""
        n = len(PAPER_TABLE5)
        avg = [sum(v[i] for v in PAPER_TABLE5.values()) / n for i in range(3)]
        assert avg[0] == pytest.approx(16.35, abs=0.01)
        assert avg[1] == pytest.approx(8.48, abs=0.01)
        assert avg[2] == pytest.approx(3.19, abs=0.01)

    def test_deepseq_beats_probabilistic_per_design(self):
        for design, (prob, _, deepseq) in PAPER_TABLE5.items():
            assert deepseq < prob, design

    def test_mem_ctrl_is_the_exception(self):
        """The paper notes Grannite edges DeepSeq only on mem_ctrl."""
        for design, (_, grannite, deepseq) in PAPER_TABLE5.items():
            if design == "mem_ctrl":
                assert grannite < deepseq
            else:
                assert deepseq < grannite, design


class TestTable6Constants:
    def test_published_averages(self):
        n = len(PAPER_TABLE6)
        avg = [sum(v[i] for v in PAPER_TABLE6.values()) / n for i in range(3)]
        assert avg[0] == pytest.approx(15.51, abs=0.01)
        assert avg[1] == pytest.approx(7.42, abs=0.01)
        assert avg[2] == pytest.approx(2.57, abs=0.01)


class TestTable7Constants:
    def test_published_averages(self):
        n = len(PAPER_TABLE7)
        prob_avg = sum(v[2] for v in PAPER_TABLE7.values()) / n
        ds_avg = sum(v[3] for v in PAPER_TABLE7.values()) / n
        assert prob_avg == pytest.approx(2.66, abs=0.01)
        assert ds_avg == pytest.approx(0.31, abs=0.01)

    def test_reliabilities_in_band(self):
        for design, (gt, prob, _, _) in PAPER_TABLE7.items():
            assert 0.97 <= gt <= 1.0, design
            assert 0.94 <= prob <= 1.0, design

    def test_analytical_always_pessimistic(self):
        """In the paper's table the analytical method underestimates
        reliability on every design."""
        for design, (gt, prob, _, _) in PAPER_TABLE7.items():
            assert prob < gt, design
