#!/usr/bin/env python3
"""Run the benchmark in alternating pairs on two checkouts and compare them.

Each pair runs `perfbench/run.py --trace 0` once in each checkout, on the
same workload and seed; which checkout runs first alternates from pair to
pair. The tool writes one BENCH_<label>.json per side (rewritten after every
pair), each run with the netlist digest the runner printed, and prints how
many pairs have equal, different and unrecorded digests (files written before
digests were kept count as unrecorded), in total and then per workload, then,
for each workload and end-to-end metric of BENCHMARK.json, each side's median
and quartiles, the pairs the second side won and the relative change of the
median next to the metric's bound. The workloads and the run length are those
of BENCHMARK.json; each workload gets ten pairs.
Run from the repository root:

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --labels parent change \\
        --seed-base 9300

Pair i (from 1) of the w-th workload of BENCHMARK.json (from 0) uses seed
seed_base + 100 w + i. `--report` prints the summary of the BENCH files
already in `--out` and runs nothing. `--claim WORKLOAD:METRIC` tests a claimed
gain of the second side on that metric: it must win at least nine tenths of
the pairs (a tie counts for neither side), and its median must be better
than the first side's by more than the first side's quartile distance. It
prints `claim met` or the reason the claim fails.

The exit status is 1 when a metric's median is worse than its bound, when a
metric is unresolved (the first side's quartile distance, relative to its
median, exceeds the bound and not every run of the second side is better
than every run of the first), when the second side has more failed
operations than the first, when a pair's recorded netlist digests differ, or
when the claim given with `--claim` fails; otherwise 0. With
`--expect-new-netlists`, for a change that means to alter the circuits, a
pair whose recorded digests are equal fails instead, and differing digests
do not.

Each BENCH file records the commit its checkout holds, as `git describe`
gives it. A checkout that git cannot describe, such as a `git archive`
copy, needs `--commits FIRST SECOND`, which names both commits and is
recorded instead; without it the tool exits 2 before running anything.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
PAIRS = 10
COMMAND = (f"python3 perfbench/run.py --workload <workload> --seed <seed> "
           f"--seconds {BENCHMARK['run_seconds']} --trace 0")


def run_once(checkout: Path, workload: str, seed: int) -> tuple[dict, str]:
    """The runner's result object and netlist digest for one run in `checkout`."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True)
    lines = out.stdout.splitlines()
    if out.returncode or not lines:
        sys.exit(f"{checkout}: {workload} seed {seed} exited {out.returncode}\n{out.stderr[-2000:]}")
    digest = next((ln.rsplit("=", 1)[1] for ln in lines if ln.startswith("netlist_digest ")), "")
    return json.loads(lines[-1]), digest


def describe_commit(checkout: Path) -> str | None:
    """`git describe` of the commit `checkout` holds, or None outside a repository."""
    out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=checkout,
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), interpolating between order statistics."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def digest_counts(first: list[dict], second: list[dict]) -> dict[str, int]:
    """Pairs (runs of one workload and seed) whose netlist digests are equal,
    different, or unrecorded on either side."""
    by_key = {(r["workload"], r["seed"]): r for r in second}
    counts = {"equal": 0, "different": 0, "unrecorded": 0}
    for r in first:
        other = by_key.get((r["workload"], r["seed"]))
        if other is None:
            continue
        a, b = r.get("netlist_digest"), other.get("netlist_digest")
        counts["unrecorded" if not (a and b) else "equal" if a == b else "different"] += 1
    return counts


def summarize(first: list[dict], second: list[dict], metrics: list[dict]) -> list[dict]:
    """One row per workload and metric comparing the two sides' run records.

    Runs pair up by workload and seed. `won` counts the pairs where the
    second side is strictly better and `tied` those with equal values;
    `worse` is set when the second side's median is worse than the first
    side's by more than the metric's relative bound. `unresolved` is set
    when the first side's quartile distance relative to its median exceeds
    the bound, unless every run of the second side is better than every run
    of the first.
    """
    rows = []
    by_key = {(r["workload"], r["seed"]): r for r in second}
    for workload in dict.fromkeys(r["workload"] for r in first):
        pairs = [(r, by_key[workload, r["seed"]]) for r in first
                 if r["workload"] == workload and (workload, r["seed"]) in by_key]
        for m in metrics:
            name, lower = m["name"], m["better"] == "lower"
            try:
                vals = [(a["result"]["metrics"][name]["value"], b["result"]["metrics"][name]["value"])
                        for a, b in pairs]
            except KeyError:
                continue
            if not vals:
                continue
            first_vals, second_vals = [a for a, _ in vals], [b for _, b in vals]
            q_a, q_b = quartiles(first_vals), quartiles(second_vals)
            rel = q_b[1] / q_a[1] - 1 if q_a[1] else float(q_b[1] != 0)
            spread = (q_a[2] - q_a[0]) / abs(q_a[1]) if q_a[1] else float(q_a[2] != q_a[0])
            separated = (max(second_vals) < min(first_vals) if lower
                         else min(second_vals) > max(first_vals))
            rows.append({
                "workload": workload, "metric": name, "first": q_a, "second": q_b,
                "won": sum(b < a if lower else b > a for a, b in vals),
                "tied": sum(a == b for a, b in vals), "pairs": len(vals),
                "rel": rel, "bound": m["bound"], "worse": (rel if lower else -rel) > m["bound"],
                "gain": q_a[1] - q_b[1] if lower else q_b[1] - q_a[1],
                "unresolved": spread > m["bound"] and not separated,
            })
    return rows


def claim_failure(row: dict) -> str | None:
    """Why `row` does not support a claimed gain for the second side, or None if it does."""
    if 10 * row["won"] < 9 * row["pairs"]:
        return f"won {row['won']} of {row['pairs']} pairs (tied {row['tied']}), fewer than nine tenths"
    spread = row["first"][2] - row["first"][0]
    if row["gain"] <= spread:
        return f"median gain {row['gain']:.4g} is not above the first side's quartile distance {spread:.4g}"
    return None


def format_row(row: dict) -> str:
    (a1, am, a3), (b1, bm, b3) = row["first"], row["second"]
    flag = "  WORSE THAN BOUND" * row["worse"] + "  UNRESOLVED: SPREAD WIDER THAN BOUND" * row["unresolved"]
    return (f"{row['workload']:18} {row['metric']:22} {am:.4g} [{a1:.4g}-{a3:.4g}] -> "
            f"{bm:.4g} [{b1:.4g}-{b3:.4g}]  won {row['won']}/{row['pairs']} tied {row['tied']}  "
            f"{row['rel']:+.2%} (bound {row['bound']:.1%}){flag}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("first", type=Path, help="checkout of the parent")
    parser.add_argument("second", type=Path, help="checkout of the change")
    parser.add_argument("--labels", nargs=2, required=True, metavar=("FIRST", "SECOND"))
    parser.add_argument("--seed-base", type=int, default=0)
    parser.add_argument("--out", type=Path, default=Path("."))
    parser.add_argument("--report", action="store_true", help="summarize existing BENCH files")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC",
                        help="test a claimed gain of the second side on this metric")
    parser.add_argument("--expect-new-netlists", action="store_true",
                        help="fail on pairs with equal netlist digests instead of different ones")
    parser.add_argument("--commits", nargs=2, metavar=("FIRST", "SECOND"),
                        help="the commits the two checkouts hold, recorded in the BENCH files")
    args = parser.parse_args(argv)

    paths = [args.out / f"BENCH_{label}.json" for label in args.labels]
    if args.report:
        runs = [json.loads(p.read_text())["runs"] for p in paths]
    else:
        sides = [(args.first, args.labels[0]), (args.second, args.labels[1])]
        commits = args.commits or [describe_commit(checkout) for checkout, _ in sides]
        for (checkout, _), commit in zip(sides, commits):
            if commit is None:
                parser.error(f"git cannot describe the commit in {checkout}; "
                             "name both with --commits FIRST SECOND")
        records = [{"label": label, "commit": commit,
                    "command": COMMAND,
                    "host": f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs; "
                            f"{PAIRS} pairs per workload, first side alternating",
                    "runs": []} for (_, label), commit in zip(sides, commits)]
        runs = [rec["runs"] for rec in records]
        turn = 0
        for w, workload in enumerate(wl["name"] for wl in BENCHMARK["workloads"]):
            for i in range(1, PAIRS + 1):
                seed = args.seed_base + 100 * w + i
                order = (0, 1) if turn % 2 == 0 else (1, 0)
                turn += 1
                for pos, side in enumerate(order):
                    result, digest = run_once(sides[side][0], workload, seed)
                    runs[side].append({"workload": workload, "seed": seed,
                                       "ran_first_in_pair": pos == 0,
                                       "netlist_digest": digest, "result": result})
                for rec, path in zip(records, paths):
                    path.write_text(json.dumps(rec, indent=1) + "\n")
                print(f"{workload} seed {seed} done", file=sys.stderr)

    digests = digest_counts(*runs)
    line = "{equal} pairs equal, {different} different, {unrecorded} unrecorded"
    print("netlist_digest: " + line.format(**digests))
    for workload in dict.fromkeys(r["workload"] for r in runs[0]):
        mine = [r for r in runs[0] if r["workload"] == workload]
        print(f"netlist_digest {workload}: " + line.format(**digest_counts(mine, runs[1])))
    failed = [sum(r["result"]["failed"] for r in side) for side in runs]
    for label, side, f in zip(args.labels, runs, failed):
        print(f"{label}: {len(side)} runs, failed {f}")
    rows = summarize(runs[0], runs[1], BENCHMARK["end_to_end"])
    for row in rows:
        print(format_row(row))
    if failed[1] > failed[0]:
        print(f"{args.labels[1]} has more failed operations than {args.labels[0]}")
    claim_failed = False
    if args.claim:
        claimed = next((r for r in rows if f"{r['workload']}:{r['metric']}" == args.claim), None)
        reason = claim_failure(claimed) if claimed else "no paired runs of that workload and metric"
        print(f"claim {args.claim}: {reason or 'claim met'}")
        claim_failed = reason is not None
    unexpected = digests["equal" if args.expect_new_netlists else "different"]
    return int(failed[1] > failed[0] or unexpected > 0 or claim_failed
               or any(row["worse"] or row["unresolved"] for row in rows))


if __name__ == "__main__":
    sys.exit(main())
