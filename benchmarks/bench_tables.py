"""Paper-table regenerators: Tables I-VII, each with its shape assertions.

``test_table[tableN]`` runs ``run_tableN`` once at the session scale,
prints the table and checks the paper's qualitative claims, robust to
the quick scale's reduced training budget.  Two more benches label the
Table I corpus and the Table IV test designs through the data factory
and check that a rebuild is served by the label cache.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import repro.experiments
from benchmarks.conftest import run_once
from repro.circuit.benchmarks import FAMILY_STATS, LARGE_DESIGN_SPECS, large_design
from repro.experiments.common import data_factory, sim_config, training_dataset


def _check_table1(result, scale):
    stats = result.rows
    assert set(stats) == {"iscas89", "itc99", "opencores"}
    # Shape: family size ordering matches Table I.
    assert stats["itc99"].mean_nodes > stats["opencores"].mean_nodes
    assert stats["opencores"].mean_nodes > stats["iscas89"].mean_nodes
    # Every family's mean lands within 40% of the published mean.
    for fam, st in stats.items():
        target = FAMILY_STATS[fam].mean_nodes
        assert abs(st.mean_nodes - target) / target < 0.4


def _check_table2(result, scale):
    m = result.rows
    conv_lg = min(
        m[("dag_convgnn", "conv_sum")].pe_lg,
        m[("dag_convgnn", "attention")].pe_lg,
    )
    rec_lg = min(
        m[("dag_recgnn", "conv_sum")].pe_lg,
        m[("dag_recgnn", "attention")].pe_lg,
    )
    deepseq = m[("deepseq", "dual_attention")]

    # Recurrent models beat the one-shot ConvGNN on the logic task.
    assert rec_lg < conv_lg
    assert deepseq.pe_lg < conv_lg
    # DeepSeq within 15% of (or better than) the best baseline on TTR.
    best_baseline_tr = min(
        v.pe_tr for k, v in m.items() if k[0] != "deepseq"
    )
    assert deepseq.pe_tr <= best_baseline_tr * 1.15
    # TLG is the harder task everywhere (paper: 0.080 vs 0.028 etc.).
    assert deepseq.pe_lg > deepseq.pe_tr


def _check_table3(result, scale):
    m = result.rows
    recgnn = m[("dag_recgnn", "attention")]
    ds_attn = m[("deepseq", "attention")]
    ds_dual = m[("deepseq", "dual_attention")]

    def combined(ev):
        return ev.pe_tr + ev.pe_lg

    # Dual attention's design goal is the transition task (Eq. 6 mimics
    # the transition-probability computation): the full model must lead
    # the baseline on TTR (paper: 0.028 vs 0.035).  At quick scale the
    # small TLG gap the paper reports is inside run noise.
    assert ds_dual.pe_tr <= recgnn.pe_tr * 1.02, (ds_dual.pe_tr, recgnn.pe_tr)
    # No configuration blows up: all three rows stay in one error regime.
    assert combined(ds_dual) <= combined(recgnn) * 1.3
    assert combined(ds_attn) <= combined(recgnn) * 1.3


def _check_table4(result, scale):
    ours = {name: s["nodes"] for name, s in result.rows.items()}
    paper = {name: spec.paper_nodes for name, spec in LARGE_DESIGN_SPECS.items()}
    for name in paper:
        assert abs(ours[name] - paper[name]) / paper[name] < 0.15, name
    # Size ordering identical to Table IV: pll > ac97 > mem > noc > rtc > ptc
    order_ours = sorted(ours, key=ours.get)
    order_paper = sorted(paper, key=paper.get)
    assert order_ours == order_paper


def _check_table5(result, scale):
    prob = result.avg_error("probabilistic")
    grannite = result.avg_error("grannite")
    deepseq = result.avg_error("deepseq")

    # DeepSeq best on average; probabilistic worst or close to it.
    assert deepseq < prob, (deepseq, prob)
    assert deepseq <= grannite * 1.10, (deepseq, grannite)
    # Absolute sanity band at quick scale: fine-tuned DeepSeq clearly
    # usable (paper-scale runs land near the published 3.19 %).
    assert deepseq < 50.0


def _check_table6(result, scale):
    # The driver labels through the data factory; the session cache dir
    # (wired by the `scale` fixture) must hold its persisted labels, so a
    # rerun of this benchmark skips every repeated simulation.
    assert scale.data_cache_dir is not None
    assert any(Path(scale.data_cache_dir).glob("*/*.lbl"))

    prob = result.avg_error("probabilistic")
    grannite = result.avg_error("grannite")
    deepseq = result.avg_error("deepseq")
    assert deepseq < prob
    assert deepseq <= grannite * 1.25
    # Consistency across unseen workloads: no workload blows up relative
    # to the model's own average (paper: W0-W4 all within ~1.5x of avg).
    worst = max(
        c.method("deepseq").error_pct for c in result.rows.values()
    )
    assert worst <= max(2.0 * deepseq, 40.0)


def _check_table7(result, scale):
    # Monte-Carlo fault labels flow through the data factory and persist
    # in the session's content-addressed cache (see benchmarks/conftest).
    assert scale.data_cache_dir is not None
    assert any(Path(scale.data_cache_dir).glob("*/*.lbl"))

    for name, cmp in result.rows.items():
        assert 0.9 <= cmp.gt <= 1.0, (name, cmp.gt)
        assert 0.0 <= cmp.analytical <= 1.0
        assert cmp.deepseq is not None and 0.9 <= cmp.deepseq <= 1.0

    analytical = result.avg_error("analytical")
    deepseq = result.avg_error("deepseq")
    # Quick-scale caveat (see EXPERIMENTS.md): per-node error labels need
    # ~100k samples/node to resolve 1e-4 probabilities; at quick budgets
    # most labels are exactly zero, the model predicts ~0 errors, and its
    # accuracy is bounded by how far GT reliability sits below 1.  Both
    # methods must land within a few percent of GT; the paper's full
    # DeepSeq < analytical separation needs REPRO_SCALE=paper sampling.
    assert deepseq < 5.0, deepseq
    assert analytical < 5.0, analytical


#: Quick-scale overrides: Table I needs no training, so it affords enough
#: circuits for the family ordering to be statistically stable; Table VI
#: fine-tunes a single design, so it affords a larger per-design budget
#: than Table V's six-design sweep.
_QUICK_OVERRIDES = {
    "table1": {"family_counts": {"iscas89": 40, "itc99": 40, "opencores": 80}},
    "table6": {"finetune_workloads": 12, "finetune_epochs": 8},
}

_CHECKS = {
    "table1": _check_table1,
    "table2": _check_table2,
    "table3": _check_table3,
    "table4": _check_table4,
    "table5": _check_table5,
    "table6": _check_table6,
    "table7": _check_table7,
}


@pytest.mark.parametrize("name", sorted(_CHECKS))
def test_table(benchmark, scale, name):
    if scale.name == "quick":
        scale = replace(scale, **_QUICK_OVERRIDES.get(name, {}))
    result = run_once(benchmark, getattr(repro.experiments, f"run_{name}"), scale)
    print("\n" + result.text)
    _CHECKS[name](result, scale)


def test_table1_labelled_dataset_via_factory(benchmark, scale):
    """Label the Table I corpus through the factory; rebuilds hit the cache."""
    factory = data_factory(scale)
    dataset = run_once(benchmark, training_dataset, scale, factory=factory)
    assert len(dataset) == sum(scale.family_counts.values())
    assert all(not s.extras for s in dataset), "factory samples stay lean"

    # A rebuild — same corpus, same configs — must be served by the cache.
    before = factory.stats
    rebuilt = training_dataset(scale, factory=factory)
    after = factory.stats
    assert after.misses == before.misses, "warm rebuild must not re-simulate"
    for a, b in zip(dataset, rebuilt):
        assert np.array_equal(a.target_tr, b.target_tr)
        assert np.array_equal(a.target_lg, b.target_lg)


def test_table4_test_design_labels_via_factory(benchmark, scale):
    """Factory-label each (scaled) test design under a testbench workload:
    the test-data labelling path of Tables V-VII."""
    from repro.sim.workload import testbench_workload

    factory = data_factory(scale)
    sim = sim_config(scale)
    circuits = []
    workloads = []
    for name in LARGE_DESIGN_SPECS:
        nl = large_design(name, seed=scale.seed + 7, scale=scale.design_scale)
        nl.name = name
        circuits.append(nl)
        workloads.append(
            testbench_workload(
                nl, seed=scale.seed + 500, name="test",
                active_fraction=scale.workload_activity,
            )
        )

    def label_all():
        return factory.build(circuits, sim, workloads=workloads)

    dataset = run_once(benchmark, label_all)
    assert len(dataset) == len(LARGE_DESIGN_SPECS)
    # The rebuild — e.g. the Table V/VI pipelines re-reading ground truth
    # for the same (design, workload) — must come out of the cache.
    before = factory.stats
    label_all()
    assert factory.stats.misses == before.misses
