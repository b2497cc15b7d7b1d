"""``bench-history.jsonl``: one benchmark point per commit.

Each line is ``{"pr", "commit", "host", "cells"}``: the git PR number
and short hash of a commit, the machine it was measured on, and the
median of every end-to-end metric on every workload ``BENCHMARK.json``
declares, keyed ``"<workload>/<metric>"``.  A PR appends its parent
commit's line, taken from the parent side of the benchmark pairs it
runs, so every line names code that exists.

A line may also carry ``layers`` (per-layer metrics of one traced run,
keyed ``"<workload>/<metric>"``) and ``quality`` (``train.val_pe`` and
each workload's ``output_digest``), so a move in a cell can be pinned
to a layer and a commit that stops learning shows.
"""

import json
import math
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in SPEC["workloads"]}
CELLS = {
    f"{w['name']}/{m['name']}" for w in SPEC["workloads"] for m in SPEC["end_to_end"]
}
LINES = (ROOT / "bench-history.jsonl").read_text().splitlines()


def test_every_workload_metric_pair_is_a_cell():
    assert len(CELLS) == 24


@pytest.mark.parametrize("number", range(1, len(LINES) + 1))
def test_line_is_a_full_point(number):
    point = json.loads(LINES[number - 1])
    assert {"pr", "commit", "host", "cells"} <= set(point)
    assert set(point) <= {"pr", "commit", "host", "cells", "layers", "quality"}
    assert isinstance(point["pr"], int)
    assert re.fullmatch(r"[0-9a-f]{7,40}", point["commit"])
    assert isinstance(point["host"], str) and point["host"].strip()
    assert set(point["cells"]) == CELLS
    bad = {k: v for k, v in point["cells"].items() if not math.isfinite(v)}
    assert not bad
    layers = point.get("layers", {})
    assert all(key.split("/", 1)[0] in WORKLOADS for key in layers)
    assert all(math.isfinite(v) for v in layers.values())
    for key, value in point.get("quality", {}).items():
        assert key.split("/", 1)[0] in WORKLOADS
        if key.endswith("/output_digest"):
            assert re.fullmatch(r"[0-9a-f]{16,128}", value), key
        else:
            assert math.isfinite(value), key


def test_commits_are_unique():
    commits = [json.loads(line)["commit"] for line in LINES]
    assert commits and len(commits) == len(set(commits))


def test_prs_strictly_increase():
    prs = [json.loads(line)["pr"] for line in LINES]
    assert all(a < b for a, b in zip(prs, prs[1:]))
