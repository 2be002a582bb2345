#!/usr/bin/env python3
"""Compare two checkouts with perfbench, in alternating pairs.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload cab \
        --seeds 21-30,40-43 [--seconds 18] [--out pairs.jsonl]

For each seed it runs `python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0` once in each checkout, one run at a time. The parent
runs first on the first seed, the change on the second, and so on. Each
result line is appended to `--out` as it arrives, so an interrupted
comparison can be summarised with `--summarise FILE` alone.

The summary gives, for each metric: each side's median and quartiles, the
pairs the change won, and whether the claim rule holds: the change wins at
least 9 of 10 pairs and its median is better than the parent's by more than
the parent's interquartile range. Metric directions come from the
`end_to_end` list of BENCHMARK.json; other metrics count lower as better.
Runs that failed, checks that failed, and failed ops are listed last.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_one(checkout, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = [l for l in p.stdout.splitlines() if l.startswith("{")]
    result = json.loads(lines[-1]) if lines else None
    return {"exit": p.returncode, "result": result}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def directions(root):
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return {m["name"]: m["better"] for m in json.load(f).get("end_to_end", [])}


def summarise(rows, better):
    pairs = {}
    for r in rows:
        pairs.setdefault(r["seed"], {})[r["side"]] = r
    complete = [p for _, p in sorted(pairs.items()) if {"parent", "change"} <= p.keys()]

    def metrics(run):
        res = run["result"]
        if run["exit"] != 0 or res is None:
            return None
        return {k: v["value"] for k, v in res["metrics"].items()}

    good = [(metrics(p["parent"]), metrics(p["change"])) for p in complete]
    good = [(a, b) for a, b in good if a is not None and b is not None]
    print(f"{len(complete)} complete pairs, {len(good)} with both runs successful")
    if not good:
        return
    names = [n for n in good[0][0] if all(n in a and n in b for a, b in good)]
    print(f"{'metric':<14} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30} "
          f"{'change':>8} {'won':>7}  claim")
    for n in names:
        lower = better.get(n, "lower") == "lower"
        xs = [a[n] for a, _ in good]
        ys = [b[n] for _, b in good]
        pq1, pm, pq3 = quartiles(xs)
        cq1, cm, cq3 = quartiles(ys)
        won = sum((y < x) if lower else (y > x) for x, y in zip(xs, ys))
        gap = (pm - cm) if lower else (cm - pm)
        # a pair with a failed run counts as a pair the change did not win
        holds = won >= 0.9 * len(complete) and gap > pq3 - pq1
        rel = f"{(cm - pm) / pm * 100:+.1f}%" if pm else "n/a"
        print(f"{n:<14} {f'{pm:.4g} [{pq1:.4g}, {pq3:.4g}]':>30} {f'{cm:.4g} [{cq1:.4g}, {cq3:.4g}]':>30} "
              f"{rel:>8} {f'{won}/{len(complete)}':>7}  {'holds' if holds else 'no'}")
    for side in ("parent", "change"):
        runs = [p[side] for p in complete]
        bad = [r["seed"] for r in runs if r["exit"] != 0 or r["result"] is None]
        wrong = [r["seed"] for r in runs if r["result"] is not None and not r["result"].get("correct")]
        attempted = sum(r["result"].get("attempted", 0) for r in runs if r["result"])
        failed = sum(r["result"].get("failed", 0) for r in runs if r["result"])
        print(f"{side}: failed ops {failed}/{attempted}; runs that failed: {bad or 'none'}; "
              f"runs with a failed check: {wrong or 'none'}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent")
    ap.add_argument("--change")
    ap.add_argument("--workload", choices=["cab", "fleet"])
    ap.add_argument("--seeds", help="comma-separated seeds or ranges, e.g. 21-30,40-43")
    ap.add_argument("--seconds", type=int, default=18)
    ap.add_argument("--out", help="append each run's result to this JSONL file")
    ap.add_argument("--summarise", metavar="FILE", help="only summarise the runs recorded in FILE")
    a = ap.parse_args()

    if a.summarise:
        with open(a.summarise) as f:
            rows = [json.loads(l) for l in f if l.strip()]
        summarise(rows, directions(os.getcwd()))
        return
    if not (a.parent and a.change and a.workload and a.seeds):
        ap.error("--parent, --change, --workload and --seeds are required unless --summarise is given")
    sides = {"parent": os.path.abspath(a.parent), "change": os.path.abspath(a.change)}
    rows = []
    for i, seed in enumerate(parse_seeds(a.seeds)):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            row = {"workload": a.workload, "seed": seed, "side": side, "first": order[0],
                   **run_one(sides[side], a.workload, seed, a.seconds)}
            rows.append(row)
            if a.out:
                with open(a.out, "a") as f:
                    f.write(json.dumps(row) + "\n")
            setup = (row["result"] or {}).get("metrics", {}).get("setup_s", {}).get("value")
            print(f"seed {seed} {side}: exit {row['exit']}, setup_s {setup}", flush=True)
    summarise(rows, directions(sides["change"]))


if __name__ == "__main__":
    main()
