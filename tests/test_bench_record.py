"""scripts/bench_record.py: its parser on a canned run, its claim rule, and every committed BENCH file."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "scripts" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

# the shape of perfbench/run.py's standard output, shortened: human-readable lines, then one JSON object
CANNED_RUN = """meta {"workload": "cli-large", "seed": 3751}
cli-large seed 3751: trig/trig/variable on graph:poly:0.1
4 jobs, 20 ops, 0 failed, output check passed, worst error 0.0123 of its truncation-plus-roundoff bound
  generate_s.p50          0.4123 s      (n=4, measured 0.45)

{"correct": true, "attempted": 20, "failed": 0, "metrics": {"generate_s.p50": {"value": 0.4123, "unit": "s"}, \
"peak_rss_mb": {"value": 37.25, "unit": "MB"}}}
"""


def test_parser_reads_the_last_json_line_of_a_run():
    result = bench_record.last_json(CANNED_RUN)
    assert bench_record.run_record(3751, "parent", result) == {
        "seed": 3751, "side": "parent", "correct": True, "attempted": 20, "failed": 0,
        "metrics": {"generate_s.p50": 0.4123, "peak_rss_mb": 37.25}}
    for bad in ("", "done\n", CANNED_RUN + '{"correct": true}\n'):
        with pytest.raises(ValueError):
            bench_record.last_json(bad)


def test_seed_ranges():
    assert bench_record.parse_seeds("9801-9803,9901") == [9801, 9802, 9803, 9901]


def _runs(parent, change, name="generate_s.p50"):
    return [{"seed": s, "side": side, "metrics": {name: v}}
            for s, (p, c) in enumerate(zip(parent, change)) for side, v in (("parent", p), ("change", c))]


PARENT = [0.95, 0.96, 0.97, 0.98, 0.99, 1.01, 1.02, 1.03, 1.04, 1.05]


@pytest.mark.parametrize("change, holds", [
    ([0.80] * 9 + [1.10], True),              # 9 of 10 pairs and far beyond the parent's spread
    ([0.80] * 8 + [1.10] * 2, False),         # 8 of 10 pairs
    ([p - 0.005 for p in PARENT], False),     # every pair, but inside the parent's quartiles
])
def test_claim_rule(change, holds):
    parent = PARENT
    summary = bench_record.summarize(_runs(parent, change), {"generate_s.p50": "lower"})
    assert bench_record.claim(summary, "generate_s.p50")["holds"] is holds
    higher = bench_record.summarize(_runs(parent, change), {"generate_s.p50": "higher"})
    assert bench_record.claim(higher, "generate_s.p50")["holds"] is False


BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_a_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_committed_bench_file_schema(path):
    doc = json.loads(path.read_text())
    assert doc["schema"] == bench_record.SCHEMA
    assert path.name == f"BENCH_{doc['pr']}.json"
    for side in ("parent", "change"):
        assert re.fullmatch(r"[0-9a-f]{40}", doc[side]["commit"])
        assert {"rev", "src_tree", "perfbench_tree"} <= set(doc[side])
    assert {"nproc", "cpu_model", "python", "numpy"} <= set(doc["machine"])
    better = {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    assert doc["workloads"]
    for name, entry in doc["workloads"].items():
        assert entry["command"][:4] == ["python3", "perfbench/run.py", "--workload", name]
        assert len(entry["seeds"]) >= 10
        # one run per seed and side, every output check passed, and the summary is the runs'
        assert sorted((r["seed"], r["side"]) for r in entry["runs"]) == sorted(
            (s, side) for s in entry["seeds"] for side in ("parent", "change"))
        assert all(r["correct"] for r in entry["runs"])
        assert entry["metrics"] == bench_record.summarize(entry["runs"], better)
        assert set(better) <= set(entry["metrics"])
        if entry["claim"] is not None:
            assert entry["claim"] == bench_record.claim(entry["metrics"], entry["claim"]["metric"])
