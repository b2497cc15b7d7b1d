"""Smoke tests for every table driver at micro scale.

The full quick-scale regenerations live in ``benchmarks/``; here each
driver runs with tiny parameters to verify wiring, table structure and the
invariants that do not require convergence.  :class:`TestTableFormat`
pins every table's layout (title, header, row labels, ``Avg.`` footer)
but none of the measured numbers, which depend on the host's BLAS.
"""

import re

import pytest

from repro.experiments import (
    ABLATION_ROWS,
    PAPER_TABLE2,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
    run_table5,
    run_table6,
    run_table7,
)
from repro.experiments.config import get_scale

MICRO = get_scale(
    "quick",
    family_counts={"iscas89": 2, "itc99": 2, "opencores": 4},
    sim_cycles=30,
    hidden=8,
    iterations=2,
    epochs=2,
    lr=2e-3,
    design_scale=0.04,
    finetune_workloads=2,
    finetune_epochs=1,
    table6_workloads=2,
    reliability_circuits=2,
)


@pytest.fixture(scope="module")
def micro():
    """Every table once at ``MICRO``, keyed by CLI name."""
    return {
        "table1": run_table1(MICRO),
        "table2": run_table2(MICRO, include=(("dag_convgnn", "conv_sum"),
                                             ("deepseq", "dual_attention"))),
        "table3": run_table3(MICRO),
        "table4": run_table4(MICRO),
        "table5": run_table5(MICRO, designs=("ptc",)),
        "table6": run_table6(MICRO, design="ptc"),
        "table7": run_table7(MICRO, designs=("ptc",)),
    }


class TestTable1:
    def test_families_and_counts(self, micro):
        r = micro["table1"]
        assert set(r.rows) == {"iscas89", "itc99", "opencores"}
        assert r.rows["opencores"].num_circuits == 4
        assert "Table I" in r.text

    def test_size_ordering(self):
        r = run_table1(get_scale("quick", family_counts={
            "iscas89": 8, "itc99": 8, "opencores": 8}))
        assert (
            r.rows["itc99"].mean_nodes > r.rows["iscas89"].mean_nodes
        )


class TestTable2:
    def test_micro_run_structure(self, micro):
        r = micro["table2"]
        assert len(r.rows) == 2
        for ev in r.rows.values():
            assert 0 <= ev.pe_tr <= 1
            assert 0 <= ev.pe_lg <= 1
        assert "Table II" in r.text

    def test_paper_reference_values_recorded(self):
        assert PAPER_TABLE2[("deepseq", "dual_attention")] == (0.028, 0.080)
        assert len(PAPER_TABLE2) == 5


class TestTable3:
    def test_rows(self):
        assert [r[:2] for r in ABLATION_ROWS] == [
            ("dag_recgnn", "attention"),
            ("deepseq", "attention"),
            ("deepseq", "dual_attention"),
        ]

    def test_micro_run(self, micro):
        r = micro["table3"]
        assert len(r.rows) == 3
        assert "Table III" in r.text


class TestTable4:
    def test_sizes_close_to_paper(self, micro):
        r = micro["table4"]
        from repro.circuit.benchmarks import LARGE_DESIGN_SPECS

        for name, spec in LARGE_DESIGN_SPECS.items():
            got = r.rows[name]["nodes"]
            assert abs(got - spec.paper_nodes) / spec.paper_nodes < 0.15, name

    def test_all_designs_have_state(self, micro):
        r = micro["table4"]
        for name, summary in r.rows.items():
            assert summary["dffs"] > 0, name
            assert summary["pos"] > 0, name


class TestTable5:
    def test_micro_power_comparison(self, micro):
        r = micro["table5"]
        cmp = r.rows["ptc"]
        assert cmp.gt_mw > 0
        for method in ("probabilistic", "grannite", "deepseq"):
            m = cmp.method(method)
            assert m.power_mw >= 0
            assert m.error_pct >= 0
        assert "Table V" in r.text


class TestTable6:
    def test_micro_workload_sweep(self, micro):
        r = micro["table6"]
        assert len(r.rows) == 2
        assert r.avg_error("probabilistic") >= 0
        assert "Table VI" in r.text


class TestTable7:
    def test_micro_reliability(self, micro):
        r = micro["table7"]
        cmp = r.rows["ptc"]
        assert 0.5 < cmp.gt <= 1.0
        assert cmp.deepseq is not None
        assert "Table VII" in r.text


_POWER_HEADERS = ["GT (mW)", "Prob (mW)", "Err%", "Grannite (mW)", "Err%",
                  "DeepSeq (mW)", "Err%"]

#: Per table: title line, header cells, first-column row labels, footer label.
FORMATS = {
    "table1": (
        "Table I - training dataset statistics (quick scale)",
        ["Benchmark", "# Subcircuits (paper)", "# Subcircuits (ours)",
         "Nodes paper", "Nodes ours"],
        ["iscas89", "itc99", "opencores"],
        None,
    ),
    "table2": (
        "Table II - model comparison (quick scale)",
        ["Model", "Aggregation", "PE(TTR)", "PE(TLG)", "paper TTR", "paper TLG"],
        ["DAG-ConvGNN", "DeepSeq"],
        None,
    ),
    "table3": (
        "Table III - component ablation (quick scale)",
        ["Configuration", "PE(TTR)", "PE(TLG)", "paper TTR", "paper TLG"],
        ["DAG-RecGNN + attention", "DeepSeq (cust. prop) + attention",
         "DeepSeq (cust. prop) + dual attention"],
        None,
    ),
    "table4": (
        "Table IV - large test designs",
        ["Design", "Description", "# Nodes (paper)", "# Nodes (ours)",
         "# DFFs", "# PIs"],
        ["noc_router", "pll", "ptc", "rtcclock", "ac97_ctrl", "mem_ctrl"],
        None,
    ),
    "table5": (
        "Table V - power estimation (quick scale)",
        ["Design"] + _POWER_HEADERS,
        ["ptc"],
        "Avg.",
    ),
    "table6": (
        "Table VI - ptc under different workloads (quick scale)",
        ["Workload"] + _POWER_HEADERS,
        ["W0", "W1"],
        "Avg.",
    ),
    "table7": (
        "Table VII - reliability analysis (quick scale)",
        ["Design", "GT", "Probabilistic", "Err%", "DeepSeq", "Err%"],
        ["ptc"],
        "Avg.",
    ),
}


def _cells(line: str) -> list[str]:
    # Columns are padded and joined by two spaces; no cell holds two.
    return re.split(r" {2,}", line.strip())


class TestTableFormat:
    @pytest.mark.parametrize("name", sorted(FORMATS))
    def test_layout(self, micro, name):
        title, headers, labels, footer = FORMATS[name]
        lines = micro[name].text.splitlines()
        sep = lines[1]
        assert set(sep) == {"-"}
        assert lines[0] == title
        assert _cells(lines[2]) == headers
        assert lines[3] == sep and lines[-1] == sep
        assert all(len(line) <= len(sep) for line in lines[2:])
        body = lines[4:-1]
        if footer is None:
            assert sep not in body
        else:
            assert body[-2] == sep
            assert _cells(body[-1])[0] == footer
            assert len(_cells(body[-1])) == 1 + (len(headers) - 2) // 2
            body = body[:-2]
        assert [_cells(row)[0] for row in body] == labels
        assert all(len(_cells(row)) == len(headers) for row in body)
