"""Compare benchmark records of a parent and a change, metric by metric.

    python3 evobench/compare.py report PARENT CHANGE
    python3 evobench/compare.py run PARENT_ROOT CHANGE_ROOT --workload W [--pairs 10]

``report`` reads the untraced records (``.bench_results/*-trace0-*.json``)
under PARENT and CHANGE (directories or files) and prints, for each workload
and end-to-end metric of BENCHMARK.json, both sides' median and quartiles,
the fraction of seed-matched pairs the change wins, and a verdict:

* improved   -- the change wins at least 9/10 of the pairs (ties count for
                neither) and the medians differ by more than the parent's
                interquartile range;
* unresolved -- the parent's interquartile range exceeds the metric's bound
                (as a share of its median), unless every change run reads
                better than every parent run;
* worse      -- the change's median is worse than the parent's by more than
                the bound;
* unchanged  -- otherwise.

``run`` makes the pairs: for seeds 1..N it runs the workload in both
checkouts, alternating which side goes first, then prints the report of
the records these runs wrote, and of no others.  Run length and bounds come
from BENCHMARK.json next to this directory, the same for both sides.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def record_files(where: Path) -> list[Path]:
    """``where`` itself if it is a file, else the untraced records under it."""
    return [where] if where.is_file() else sorted(where.rglob("*-trace0-*.json"))


def load_records(files: list[Path]) -> dict[str, list[dict]]:
    """Untraced records per workload, oldest first."""
    records = defaultdict(list)
    for path in files:
        record = json.loads(path.read_text())
        if not record["meta"]["trace"]:
            records[record["meta"]["workload"]].append(record)
    for runs in records.values():
        runs.sort(key=lambda r: r["meta"]["started_utc"])
    return records


def pair_by_seed(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    queues = defaultdict(list)
    for record in change:
        queues[record["meta"]["seed"]].append(record)
    pairs = []
    for record in parent:
        queue = queues[record["meta"]["seed"]]
        if queue:
            pairs.append((record, queue.pop(0)))
    return pairs


def verdict(parent: list[float], change: list[float], pairs, better: str, bound: float):
    """Return (verdict, win fraction) following the rules in the module doc."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    win_frac = wins / len(pairs) if pairs else 0.0
    if len(parent) < 2 or len(change) < 2:
        return "unresolved", win_frac
    q1, _, q3 = statistics.quantiles(parent, n=4)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    gain = sign * (c_med - p_med)
    if pairs and win_frac >= 0.9 and gain > q3 - q1:
        return "improved", win_frac
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if p_med and (q3 - q1) / abs(p_med) > bound and not all_better:
        return "unresolved", win_frac
    if -gain > bound * abs(p_med):
        return "worse", win_frac
    return "unchanged", win_frac


def summary(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}" if values else "-"
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def report(parent_files: list[Path], change_files: list[Path]) -> None:
    parent, change = load_records(parent_files), load_records(change_files)
    print(f"{'workload':13s} {'metric':15s} {'parent median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} {'wins':>9s}  verdict")
    for workload in [w["name"] for w in SPEC["workloads"]]:
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        if not p_runs or not c_runs:
            print(f"{workload:13s} (no records on {'parent' if not p_runs else 'change'})")
            continue
        pairs = pair_by_seed(p_runs, c_runs)
        for metric in SPEC["end_to_end"]:
            name = metric["name"]

            def values(runs):
                return [r["metrics"][name]["value"] for r in runs]

            pv, cv = values(p_runs), values(c_runs)
            pair_values = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                           for p, c in pairs]
            result, win_frac = verdict(pv, cv, pair_values, metric["better"], metric["bound"])
            wins = round(win_frac * len(pairs))
            print(f"{workload:13s} {name:15s} {summary(pv):34s} {summary(cv):34s} "
                  f"{wins:>4d}/{len(pairs):<4d}  {result}")


def run_pairs(parent_root: Path, change_root: Path, workload: str,
              pairs: int) -> tuple[list[Path], list[Path]]:
    """Run the pairs; return the record files written on each side."""
    written = {parent_root: [], change_root: []}
    for seed in range(1, pairs + 1):
        sides = (parent_root, change_root) if seed % 2 else (change_root, parent_root)
        for root in sides:
            proc = subprocess.run(
                [sys.executable, "evobench/run.py", "--workload", workload, "--seed",
                 str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
                cwd=root, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                sys.exit(f"compare: run in {root} failed:\n{proc.stderr[-2000:]}")
            lines = proc.stdout.splitlines()
            # run.py names its record on the line before the JSON result
            written[root].append(root / lines[-2].split("record:", 1)[1].strip())
            print(f"seed {seed} {root}: {lines[-1][:120]}", flush=True)
    return written[parent_root], written[change_root]


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    rep = sub.add_parser("report")
    rep.add_argument("parent", type=Path)
    rep.add_argument("change", type=Path)
    run = sub.add_parser("run")
    run.add_argument("parent_root", type=Path)
    run.add_argument("change_root", type=Path)
    run.add_argument("--workload", required=True)
    run.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.mode == "run":
        report(*run_pairs(args.parent_root.resolve(), args.change_root.resolve(),
                          args.workload, args.pairs))
    else:
        report(record_files(args.parent), record_files(args.change))


if __name__ == "__main__":
    main()
