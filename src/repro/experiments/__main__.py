"""Command-line entry point: regenerate any paper table.

Usage::

    python -m repro.experiments table1                 # quick scale
    python -m repro.experiments table5 --scale paper   # publication scale
    python -m repro.experiments all --epochs 10        # every table
    python -m repro.experiments table2 --out t2.txt

Any :class:`~repro.experiments.config.ExperimentScale` field can be
overridden from the command line (``--epochs``, ``--hidden``, ...).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.experiments.config import get_scale
from repro.experiments.tables import (
    run_table1,
    run_table2,
    run_table3,
    run_table4,
    run_table5,
    run_table6,
    run_table7,
)

_TABLES = {
    "table1": run_table1,
    "table2": run_table2,
    "table3": run_table3,
    "table4": run_table4,
    "table5": run_table5,
    "table6": run_table6,
    "table7": run_table7,
}

_OVERRIDABLE_INT = (
    "sim_cycles",
    "sim_streams",
    "hidden",
    "iterations",
    "epochs",
    "finetune_workloads",
    "finetune_epochs",
    "table6_workloads",
    "reliability_circuits",
    "seed",
    "batch_size",
)
_OVERRIDABLE_FLOAT = (
    "lr",
    "design_scale",
    "finetune_lr",
    "workload_activity",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments", description=__doc__
    )
    parser.add_argument(
        "table",
        choices=sorted(_TABLES) + ["all"],
        help="which paper table to regenerate",
    )
    parser.add_argument("--scale", default="quick", choices=["quick", "paper"])
    parser.add_argument("--out", type=Path, help="also write the table here")
    for name in _OVERRIDABLE_INT:
        parser.add_argument(f"--{name.replace('_', '-')}", type=int, dest=name)
    for name in _OVERRIDABLE_FLOAT:
        parser.add_argument(f"--{name.replace('_', '-')}", type=float, dest=name)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        name: getattr(args, name)
        for name in _OVERRIDABLE_INT + _OVERRIDABLE_FLOAT
        if getattr(args, name, None) is not None
    }
    scale = get_scale(args.scale, **overrides)
    names = sorted(_TABLES) if args.table == "all" else [args.table]
    outputs: list[str] = []
    for name in names:
        start = time.time()
        result = _TABLES[name](scale)
        elapsed = time.time() - start
        text = result.text
        outputs.append(text)
        print(text)
        print(f"[{name}: {elapsed:.1f}s]\n")
    if args.out:
        args.out.write_text("\n\n".join(outputs) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
