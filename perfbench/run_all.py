#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarises it.

For every workload in BENCHMARK.json, runs the benchmark's command once
per seed untraced, then once traced, and reports each end-to-end metric's
median, quartiles and spread (interquartile range over median, with the
quartiles of Python's statistics.quantiles(values, n=4)). Run it from
the repository root:

    python3 perfbench/run_all.py --seeds 1-10 --out perfbench/baseline.json
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(command, workload, seed, seconds, trace):
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    out = subprocess.run(argv, capture_output=True, text=True, env=env)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def summarise(values):
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "values": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1", help="e.g. 1-10 or 1,5,9")
    ap.add_argument("--seconds", type=int, help="default: run_seconds")
    ap.add_argument("--workloads", help="comma-separated; default: all")
    ap.add_argument("--no-trace", action="store_true", help="skip traced runs")
    ap.add_argument("--out", help="write the summary as JSON here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {
        "seconds": seconds,
        "seeds": seeds,
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "workloads": {},
    }
    for name in names:
        values, attempted, failed, correct = {}, 0, 0, True
        for seed in seeds:
            result, _ = run(spec["command"], name, seed, seconds, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            correct &= result["correct"]
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{m}={v['value']:.4g}" for m, v in result["metrics"].items()),
                flush=True)
        entry = {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "end_to_end": {m: summarise(v) for m, v in values.items()},
        }
        for m, s in entry["end_to_end"].items():
            spread = s.get("spread", 0.0)
            print(f"  {m:24s} median {s['median']:.6g}  spread {spread:.3f}"
                  f"  (bound {bounds.get(m)})", flush=True)
        if not args.no_trace:
            result, report = run(spec["command"], name, seeds[0], seconds, 1)
            entry["trace_seed"] = seeds[0]
            entry["trace"] = {m: v["value"] for m, v in result["metrics"].items()}
            entry["trace_report"] = [l.strip() for l in report
                                     if "self time" in l or "replays" in l]
            for line in entry["trace_report"]:
                print("  " + line, flush=True)
        summary["workloads"][name] = entry

    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
