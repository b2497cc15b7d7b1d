"""Simulation substrate: logic simulation, workloads, faults, SAIF."""

from repro.sim.bitvec import (
    WORD_BITS,
    biased_words,
    pack_bits,
    popcount,
    popcount_int64,
    unpack_bits,
    words_for,
)
from repro.sim.faults import FaultConfig, FaultSimResult, simulate_with_faults
from repro.sim.logicsim import (
    DEFAULT_BLOCK_CYCLES,
    ActivityCounter,
    CompiledCircuit,
    SimConfig,
    SimPlan,
    SimResult,
    Simulator,
    compile_netlist,
    simulate,
)
from repro.sim.coverage import ToggleCoverage, coverage_of_suite, toggle_coverage
from repro.sim.pack import (
    MAX_PACK_MEMBERS,
    PackedSimPlan,
    clear_sim_pack_cache,
    configure_sim_pack_cache,
    pack_circuits,
    sim_pack_cache_info,
    simulate_packed,
    simulate_with_faults_packed,
)
from repro.sim.vcd import VcdTracer, trace_simulation
from repro.sim.saif import (
    SaifDocument,
    SignalActivity,
    activity_from_probs,
    parse_saif,
)
from repro.sim.workload import (
    PatternSource,
    Workload,
    random_workload,
    testbench_workload,
)

__all__ = [
    "WORD_BITS",
    "biased_words",
    "pack_bits",
    "popcount",
    "popcount_int64",
    "unpack_bits",
    "words_for",
    "FaultConfig",
    "FaultSimResult",
    "simulate_with_faults",
    "ActivityCounter",
    "CompiledCircuit",
    "DEFAULT_BLOCK_CYCLES",
    "SimConfig",
    "SimPlan",
    "SimResult",
    "Simulator",
    "compile_netlist",
    "simulate",
    "MAX_PACK_MEMBERS",
    "PackedSimPlan",
    "clear_sim_pack_cache",
    "configure_sim_pack_cache",
    "pack_circuits",
    "sim_pack_cache_info",
    "simulate_packed",
    "simulate_with_faults_packed",
    "ToggleCoverage",
    "coverage_of_suite",
    "toggle_coverage",
    "VcdTracer",
    "trace_simulation",
    "SaifDocument",
    "SignalActivity",
    "activity_from_probs",
    "parse_saif",
    "PatternSource",
    "Workload",
    "random_workload",
    "testbench_workload",
]
