"""Experiment drivers: the paper's seven tables, in :mod:`.tables`."""

from repro.experiments.config import PAPER, QUICK, ExperimentScale, get_scale
from repro.experiments.reporting import TextTable
from repro.experiments.tables import (
    ABLATION_ROWS,
    PAPER_TABLE2,
    PAPER_TABLE3,
    PAPER_TABLE5,
    PAPER_TABLE6,
    PAPER_TABLE7,
    TableResult,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
    run_table5,
    run_table6,
    run_table7,
)

__all__ = [
    "PAPER",
    "QUICK",
    "ExperimentScale",
    "get_scale",
    "TextTable",
    "TableResult",
    "ABLATION_ROWS",
    "PAPER_TABLE2",
    "PAPER_TABLE3",
    "PAPER_TABLE5",
    "PAPER_TABLE6",
    "PAPER_TABLE7",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_table5",
    "run_table6",
    "run_table7",
]
