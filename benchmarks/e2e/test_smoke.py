"""Smoke test of the end-to-end benchmark (``pytest benchmarks/e2e``).

Outside tier-1's ``testpaths``: it spawns every workload process twice at
``--smoke`` scale (one second per run instead of twenty).
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import Tracer, layer_time_under_bench, self_times, summarize  # noqa: E402

SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e-smoke")
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "3", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
    return out, proc.stdout, json.loads((out / "results.json").read_text())


def test_every_declared_metric_is_reported(smoke):
    _, stdout, doc = smoke
    (rows,) = doc["sets"]
    assert list(rows) == [w["name"] for w in SPEC["workloads"]]
    for workload, row in rows.items():
        for key in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in SPEC[key]}
            assert set(row[key]) == set(declared), (workload, key)
            for name, value in row[key].items():
                assert NAME.fullmatch(name), name
                assert math.isfinite(value), (workload, name, value)
                # printed by name with its unit
                assert re.search(
                    rf"^\s+{re.escape(name)}\s+\S+ {re.escape(declared[name])}\b",
                    stdout, re.M,
                ) or value == 0.0, (workload, name)
        assert all(row["end_to_end"][m["name"]] > 0 for m in SPEC["end_to_end"]), workload


def test_no_operation_fails(smoke):
    _, _, doc = smoke
    for workload, row in doc["sets"][0].items():
        for key in ("end_to_end_ops", "per_layer_ops"):
            assert row[key]["correct"] and row[key]["failed"] == 0, (workload, key)
            assert row[key]["attempted"] >= 1
        assert row["end_to_end_digest"] == row["per_layer_digest"], workload


def test_every_non_root_span_has_its_parent(smoke):
    out, _, _ = smoke
    for workload in SPEC["workloads"]:
        trace = json.loads((out / f"trace-{workload['name']}.json").read_text())
        spans = trace["spans"]
        assert spans, workload
        ids = {s["id"] for s in spans}
        for s in spans:
            assert s["end"] >= s["start"]
            assert s["parent"] is None or s["parent"] in ids, s
            if s["parent"] is not None:
                parent = spans[s["parent"]]
                assert parent["start"] <= s["start"] and s["end"] <= parent["end"], s
        assert any(s["parent"] is not None for s in spans), workload
        assert set(trace["summary"]) == {s["name"] for s in spans}


def test_self_time_arithmetic_on_a_hand_built_tree():
    def span(i, name, parent, start, end):
        return {"id": i, "name": name, "layer": name.split(".")[0],
                "parent": parent, "run": None, "start": start, "end": end}

    spans = [
        span(0, "bench.pass", None, 0.0, 10.0),
        span(1, "sim.compile", 0, 1.0, 4.0),
        span(2, "sim.run", 0, 3.0, 6.0),  # overlaps its sibling by 1 s
        span(3, "circuit.fingerprint", 1, 1.5, 2.0),
        span(4, "data.build", None, 20.0, 25.0),  # a root composite
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0)  # children cover [1, 6]
    assert selfs[1] == pytest.approx(3.0 - 0.5)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(0.5)
    assert selfs[4] == pytest.approx(5.0)
    summary = summarize(spans)
    assert summary["sim.compile"] == {
        "layer": "sim", "calls": 1, "total_s": pytest.approx(3.0),
        "self_s": pytest.approx(2.5),
    }
    # layer time under bench spans: compile 2.5 + run 3.0 + fingerprint 0.5
    assert layer_time_under_bench(spans) == pytest.approx(6.0)


def test_tracer_records_parents_and_runs():
    tracer = Tracer(True)
    with tracer.span("bench.pass", run="r1") as outer:
        with tracer.span("sim.compile") as inner:
            pass
    assert inner["parent"] == outer["id"] and inner["run"] == "r1"
    assert outer["parent"] is None and outer["end"] >= inner["end"]
    off = Tracer(False)
    with off.span("sim.compile") as nothing:
        pass
    assert nothing is None and off.spans == []
