#!/usr/bin/env python3
"""Record a benchmark comparison of two commits in BENCH_<PR>.json.

Usage:
    python scripts/bench_record.py --pr N --parent REV --change REV --workload NAME
        --seeds 9801-9810 [--claim METRIC] [--repo PATH]

The script does no timing itself. It checks both commits out as git
worktrees under a temporary directory and removes them afterwards, so no
run writes into a checkout's perfbench/results/. For each seed it runs
the change's BENCHMARK.json command with `--workload NAME --seed S
--seconds T --trace 0`, T its run_seconds, in both checkouts: the parent
first for the 1st, 3rd, ... seed, the change first for the others. It
reads each run's last line, a JSON object. Per end-to-end metric it
records both sides' median and quartiles and the seeds on which the change
did better. With --claim it states whether the claim holds: the change did
better on at least 9 of every 10 seeds, and its median is better than the
parent's by more than the parent's quartile spread. BENCH_<N>.json is
written at the root of the checkout this script is in; a file that
already holds other workloads for the same two commits gains this one.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = 1
WIN_SHARE = 0.9  # of the seed pairs a claimed metric must win


def parse_seeds(text: str) -> list[int]:
    """'9801-9803,9901' -> [9801, 9802, 9803, 9901]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def last_json(stdout: str) -> dict:
    """The run's result: its last non-blank line of standard output, a JSON object."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the run printed nothing")
    result = json.loads(lines[-1])
    if not isinstance(result, dict) or not {"correct", "attempted", "failed", "metrics"} <= set(result):
        raise ValueError("the run's last line is not a perfbench result")
    return result


def run_record(seed: int, side: str, result: dict) -> dict:
    return {"seed": seed, "side": side, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in sorted(result["metrics"].items())}}


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs: list, better: dict) -> dict:
    """Per metric: each side's quartiles, and the seeds on which the change did better."""
    by_seed = {(r["seed"], r["side"]): r["metrics"] for r in runs}
    seeds = sorted({r["seed"] for r in runs})
    out = {}
    for name in sorted(set.intersection(*(set(m) for m in by_seed.values()))):
        sign = 1.0 if better.get(name, "lower") == "lower" else -1.0
        pairs = [(by_seed[s, "parent"][name], by_seed[s, "change"][name]) for s in seeds]
        parent, change = quartiles([p for p, _ in pairs]), quartiles([c for _, c in pairs])
        out[name] = {"better": "lower" if sign > 0 else "higher", "parent": parent, "change": change,
                     "change_frac": change["median"] / parent["median"] - 1.0 if parent["median"] else None,
                     "wins": sum(sign * (p - c) > 0 for p, c in pairs), "pairs": len(pairs)}
    return out


def claim(summary: dict, metric: str) -> dict:
    """Whether `metric` moved the better way on WIN_SHARE of the pairs and beyond the parent's spread."""
    s = summary[metric]
    sign = 1.0 if s["better"] == "lower" else -1.0
    gain = sign * (s["parent"]["median"] - s["change"]["median"])
    spread = s["parent"]["q3"] - s["parent"]["q1"]
    need = math.ceil(WIN_SHARE * s["pairs"])
    return {"metric": metric, "wins": s["wins"], "pairs": s["pairs"], "wins_needed": need,
            "median_gain": gain, "parent_quartile_spread": spread,
            "holds": s["wins"] >= need and gain > spread}


def machine() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        cpu = next((line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                    if line.startswith("model name")), cpu)
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": metadata.version("numpy")}


def git(repo, *args) -> str:
    return subprocess.run(["git", "-C", str(repo), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def side_info(repo, rev) -> dict:
    commit = git(repo, "rev-parse", "--verify", f"{rev}^{{commit}}")
    # the tree hashes identify the measured code even if the commit is later rewritten
    return {"rev": rev, "commit": commit, "src_tree": git(repo, "rev-parse", f"{commit}:src"),
            "perfbench_tree": git(repo, "rev-parse", f"{commit}:perfbench")}


def run_side(checkout: Path, argv: list) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, *argv], cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv)} in {checkout} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return last_json(done.stdout)


def record(args) -> dict:
    sides = {"parent": side_info(args.repo, args.parent), "change": side_info(args.repo, args.change)}
    bench = json.loads(git(args.repo, "show", f"{sides['change']['commit']}:BENCHMARK.json"))
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    command = [*bench["command"], "--workload", args.workload, "--seed", "{seed}",
               "--seconds", f"{bench['run_seconds']:g}", "--trace", "0"]
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-record-") as tmp:
        trees = {side: Path(tmp) / side for side in sides}
        try:
            for side, tree in trees.items():
                git(args.repo, "worktree", "add", "--detach", str(tree), sides[side]["commit"])
            for i, seed in enumerate(args.seeds):
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    argv = [a.replace("{seed}", str(seed)) for a in command[1:]]  # run by this interpreter
                    runs.append(run_record(seed, side, run_side(trees[side], argv)))
                    print(f"seed {seed} {side}: {json.dumps(runs[-1]['metrics'])}", flush=True)
        finally:
            for tree in trees.values():
                subprocess.run(["git", "-C", str(args.repo), "worktree", "remove", "--force", str(tree)],
                               capture_output=True)
            subprocess.run(["git", "-C", str(args.repo), "worktree", "prune"], capture_output=True)
    summary = summarize(runs, better)
    return {"sides": sides, "entry": {
        "command": command, "seeds": args.seeds, "runs": runs, "metrics": summary,
        "claim": claim(summary, args.claim) if args.claim else None}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--claim", metavar="METRIC")
    parser.add_argument("--repo", type=Path, default=ROOT, help="the git repository holding both commits")
    args = parser.parse_args(argv)
    out = ROOT / f"BENCH_{args.pr}.json"
    done = record(args)
    doc = json.loads(out.read_text()) if out.exists() else {
        "schema": SCHEMA, "pr": args.pr, **done["sides"], "machine": machine(), "workloads": {}}
    if (doc["parent"]["commit"], doc["change"]["commit"]) != tuple(s["commit"] for s in done["sides"].values()):
        raise SystemExit(f"error: {out} records other commits")
    doc["workloads"][args.workload] = done["entry"]
    out.write_text(json.dumps(doc, indent=1) + "\n")
    if done["entry"]["claim"]:
        print(f"claim {json.dumps(done['entry']['claim'])}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
