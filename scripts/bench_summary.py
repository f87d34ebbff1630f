"""Summarize benchmark records of two checkouts into one before/after file.

    python3 scripts/bench_summary.py PARENT_OUT CHANGE_OUT --out BENCH_<n>.json

PARENT_OUT and CHANGE_OUT are the ``bench/out/`` directories of two
checkouts, each holding the records that ``bench/run.py --trace 0`` writes,
one per workload and seed (``<workload>-seed<seed>-trace0.json``). For each
workload found on both sides the summary gives, per side, the git SHA, the
source digest, the machine facts and the median and quartiles of every
end-to-end metric over the seeds; and, over the seeds run on both sides,
the paired values, the change of the median and how many pairs the change
side won. A side with fewer than ``MIN_SEEDS`` seeds of a workload is an
error: the spread of a few runs says little on a host whose speed drifts.
So are machine facts that differ among a workload's records, on one side or
between the sides: a speedup counts only from a same-machine pair.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

MIN_SEEDS = 5
ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def read_records(out_dir: Path) -> dict[str, dict[int, dict]]:
    """``{workload: {seed: record}}`` of the end-to-end records in ``out_dir``."""
    found: dict[str, dict[int, dict]] = {}
    for path in sorted(out_dir.glob("*-trace0.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        args = record["args"]
        found.setdefault(args["workload"], {})[args["seed"]] = record
    return found


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of ``values``, with the values."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def _one(values: list, what: str):
    # a value all records of one side agree on, or the list of those seen
    distinct = [v for i, v in enumerate(values) if v not in values[:i]]
    return distinct[0] if len(distinct) == 1 else {"differ": distinct, "what": what}


def side_summary(records: dict[int, dict]) -> dict:
    seeds = sorted(records)
    runs = [records[s] for s in seeds]
    metrics = {name: spread([r["end_to_end"][name] for r in runs])
               for name in runs[0]["end_to_end"]}
    return {
        "git_sha": _one([r["git_sha"] for r in runs], "git_sha"),
        "source_sha256": _one([r["source_sha256"] for r in runs], "source_sha256"),
        "machine": runs[0]["machine"],  # the same in every record: check_machines
        "seeds": seeds,
        "all_correct": all(not r["problems"] and not r["errors"] for r in runs),
        "metrics": metrics,
    }


def check_machines(workload: str, parent: dict[int, dict], change: dict[int, dict]) -> None:
    """Raise ValueError unless every record of ``workload`` on both sides ran on one machine."""
    machines = []
    for side, records in zip(SIDES, (parent, change)):
        facts = [r["machine"] for r in records.values()]
        if any(f != facts[0] for f in facts):
            raise ValueError(f"{workload}: the {side} records ran on different machines")
        machines.append(facts[0])
    before, after = machines
    if before != after:
        keys = sorted(k for k in {*before, *after} if before.get(k) != after.get(k))
        raise ValueError(f"{workload}: parent and change ran on different machines "
                         f"(they differ in {', '.join(keys)})")


def paired(parent: dict[int, dict], change: dict[int, dict], better: dict[str, str]) -> dict:
    """Per metric, the values of the seeds run on both sides and who won each pair."""
    seeds = sorted(set(parent) & set(change))
    pairs = {}
    for name in parent[seeds[0]]["end_to_end"]:
        before = [parent[s]["end_to_end"][name] for s in seeds]
        after = [change[s]["end_to_end"][name] for s in seeds]
        entry = {"seeds": seeds, "parent": before, "change": after,
                 "median_change": statistics.median(after) / statistics.median(before) - 1.0}
        sign = {"higher": 1, "lower": -1}.get(better.get(name))
        if sign is not None:
            entry["better"] = better[name]
            entry["change_better_pairs"] = sum(sign * (a - b) > 0 for a, b in zip(after, before))
        pairs[name] = entry
    return pairs


def summarize(parent_dir: Path, change_dir: Path, better: dict[str, str]) -> dict:
    sides = dict(zip(SIDES, (read_records(parent_dir), read_records(change_dir))))
    workloads = sorted(set(sides["parent"]) | set(sides["change"]))
    if not workloads:
        raise ValueError(f"no end-to-end records in {parent_dir} or {change_dir}")
    summary = {}
    for workload in workloads:
        for side in SIDES:
            count = len(sides[side].get(workload, {}))
            if count < MIN_SEEDS:
                raise ValueError(f"{workload}: {count} {side} seed(s), at least {MIN_SEEDS} "
                                 "needed")
        parent, change = sides["parent"][workload], sides["change"][workload]
        check_machines(workload, parent, change)
        if len(set(parent) & set(change)) < MIN_SEEDS:
            raise ValueError(f"{workload}: fewer than {MIN_SEEDS} seeds run on both sides")
        summary[workload] = {**{side: side_summary(sides[side][workload]) for side in SIDES},
                             "pairs": paired(parent, change, better)}
    return {"format_version": 1, "workloads": summary}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_out", type=Path, help="bench/out/ of the parent checkout")
    parser.add_argument("change_out", type=Path, help="bench/out/ of the changed checkout")
    parser.add_argument("--out", type=Path, required=True, help="summary file to write")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    try:
        summary = summarize(args.parent_out, args.change_out, better)
    except (OSError, ValueError, KeyError) as e:
        print(f"bench_summary: error: {e}", file=sys.stderr)
        return 1
    args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
