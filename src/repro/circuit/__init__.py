"""Circuit substrate: netlist IR, bench I/O, AIG lowering, graphs, suites."""

from repro.circuit.aig import AigMapping, strash, to_aig
from repro.circuit.aiger import (
    read_aiger,
    read_aiger_file,
    write_aiger,
    write_aiger_file,
)
from repro.circuit.analysis import (
    StructuralProfile,
    fanout_histogram,
    feedback_register_count,
    logic_depth_histogram,
    reconvergent_nodes,
    sequential_sccs,
    structural_profile,
)
from repro.circuit.bench import (
    parse_bench,
    parse_bench_file,
    write_bench,
    write_bench_file,
)
from repro.circuit.benchmarks import (
    FAMILY_STATS,
    LARGE_DESIGN_SPECS,
    family_subcircuits,
    large_design,
    load_design,
    training_corpus,
)
from repro.circuit.compose import (
    MemberLayout,
    Stitch,
    UnionMapping,
    disjoint_union,
    stitched_union,
)
from repro.circuit.library import LIBRARY, library_circuit, library_names
from repro.circuit.gates import (
    AIG_TYPES,
    ONE_HOT_DIM,
    GateType,
    eval_gate,
    gate_truth_table,
    one_hot,
)
from repro.circuit.generate import (
    GeneratorConfig,
    HierarchicalConfig,
    hierarchical_netlist,
    random_sequential_netlist,
)
from repro.circuit.graph import CircuitGraph, EdgeBatch
from repro.circuit.levelize import Levelization, cut_fanins, levelize
from repro.circuit.netlist import Netlist, NetlistError
from repro.circuit.stats import CorpusStats, corpus_stats, netlist_summary
from repro.circuit.visualize import levels_to_dot, to_dot

__all__ = [
    "AigMapping",
    "strash",
    "to_aig",
    "read_aiger",
    "read_aiger_file",
    "write_aiger",
    "write_aiger_file",
    "StructuralProfile",
    "fanout_histogram",
    "feedback_register_count",
    "logic_depth_histogram",
    "reconvergent_nodes",
    "sequential_sccs",
    "structural_profile",
    "LIBRARY",
    "library_circuit",
    "library_names",
    "parse_bench",
    "parse_bench_file",
    "write_bench",
    "write_bench_file",
    "FAMILY_STATS",
    "LARGE_DESIGN_SPECS",
    "family_subcircuits",
    "large_design",
    "load_design",
    "training_corpus",
    "Stitch",
    "UnionMapping",
    "MemberLayout",
    "disjoint_union",
    "stitched_union",
    "AIG_TYPES",
    "ONE_HOT_DIM",
    "GateType",
    "eval_gate",
    "gate_truth_table",
    "one_hot",
    "GeneratorConfig",
    "HierarchicalConfig",
    "hierarchical_netlist",
    "random_sequential_netlist",
    "CircuitGraph",
    "EdgeBatch",
    "Levelization",
    "cut_fanins",
    "levelize",
    "Netlist",
    "NetlistError",
    "levels_to_dot",
    "to_dot",
    "CorpusStats",
    "corpus_stats",
    "netlist_summary",
]
