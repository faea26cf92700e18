#!/usr/bin/env python3
"""Runs sets of benchmark runs and summarizes their spread.

Each set runs every workload once per seed, rotating the workload order so
that no workload always runs first. For every end-to-end metric it reports,
per workload and set, the median and the spread: the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median. It also reports how far each later set's median moved from the
first set's.

Run from the repository root:

    python3 perfbench/baseline.py --out perfbench/baseline --sets 2 --seeds 10
    python3 perfbench/baseline.py --out DIR --sets 1 --seeds 1 --traced

With --traced, every traced run follows an untraced run of the same
workload and seed, which the traced run reports its overhead against. Each
run's full output is appended to DIR/runs.jsonl and the summary is written
to DIR/summary.txt.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, traced):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if traced else "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return {"workload": workload, "seed": seed, "traced": traced, "exit": proc.returncode,
            "result": result, "stdout": lines[:-1], "stderr": proc.stderr.splitlines()[-20:]}


def summarize(records, metrics):
    out = []
    workloads = sorted({r["workload"] for r in records})
    sets = sorted({r["set"] for r in records})
    for wl in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for s in sets:
                vals = [r["result"]["metrics"][name]["value"] for r in records
                        if r["workload"] == wl and r["set"] == s and r["result"]]
                if not vals:
                    continue
                med = statistics.median(vals)
                spread = float("nan")
                if len(vals) >= 2 and med:
                    q1, _, q3 = statistics.quantiles(vals, n=4)
                    spread = (q3 - q1) / med
                medians.append(med)
                shift = (med / medians[0] - 1) if medians[0] else float("nan")
                out.append(f"{wl:12s} {name:14s} set {s}: n={len(vals):2d} median={med:.6g} "
                           f"spread={spread:.3f} (bound {bound}, third {bound / 3:.3f}) "
                           f"shift vs set 1={shift:+.3f}")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--workloads")
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "runs.jsonl")
    records = []
    k = 0
    for s in range(1, args.sets + 1):
        for i in range(args.seeds):
            seed = (s - 1) * args.seeds + i + 1
            order = workloads[k % len(workloads):] + workloads[:k % len(workloads)]
            k += 1
            for wl in order:
                for traced in ([False, True] if args.traced else [False]):
                    rec = run_once(wl, seed, seconds, traced)
                    rec["set"] = s
                    records.append(rec)
                    with open(path, "a") as f:
                        f.write(json.dumps(rec) + "\n")
                    res = rec["result"] or {}
                    print(f"set {s} seed {seed} {wl} traced={traced}: exit {rec['exit']} "
                          f"correct={res.get('correct')} "
                          + " ".join(f"{n}={v['value']:.6g}" for n, v in sorted(res.get("metrics", {}).items())
                                     if not traced), flush=True)
    if not args.traced:
        lines = summarize(records, bench["end_to_end"])
        with open(os.path.join(args.out, "summary.txt"), "w") as f:
            f.write("\n".join(lines) + "\n")
        print("\n".join(lines))
    failed = [r for r in records if r["exit"] != 0]
    if failed:
        print(f"{len(failed)} run(s) failed", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
