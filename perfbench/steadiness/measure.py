#!/usr/bin/env python3
"""Steadiness record for perfbench: run each workload once per seed and
report, per end-to-end metric, the median and the spread (distance between
the first and third quartile, as a share of the median) next to the bound
BENCHMARK.json fixes. Optionally compare pinned and unpinned passes.

Run from the root of the checkout, after one run.py call has built the binary:

  python3 perfbench/steadiness/measure.py --seeds 10 --out perfbench/steadiness/runs.json
  python3 perfbench/steadiness/measure.py --seeds 10 --first-seed 11 --out perfbench/steadiness/runs2.json
  python3 perfbench/steadiness/measure.py --pinning 5 --out perfbench/steadiness/pinning.json
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def seed_runs(spec, workloads, seeds, seconds):
    record = {}
    for w in workloads:
        runs = []
        for seed in seeds:
            t0 = time.time()
            proc = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            result["elapsed_s"] = round(time.time() - t0, 1)
            runs.append(result)
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                file=sys.stderr)
        summary = {}
        for m in spec["end_to_end"]:
            med, sp = spread([r["metrics"][m["name"]]["value"] for r in runs])
            summary[m["name"]] = {"median": med, "spread": sp, "bound": m["bound"]}
            print(f"  {w} {m['name']:18s} median {med:.6g}  spread {sp:.4f}  "
                  f"bound {m['bound']}", file=sys.stderr)
        record[w] = {"runs": runs, "summary": summary}
    return record


def pinning_runs(binary, pairs):
    """Interleaved one-pass paper16 runs, pinned (default) and unpinned."""
    walls = {"pinned": [], "unpinned": []}
    for i in range(pairs):
        order = ("pinned", "unpinned") if i % 2 == 0 else ("unpinned", "pinned")
        for mode in order:
            cmd = [binary, "--workload", "paper16", "--seconds", "0.001"]
            if mode == "unpinned":
                cmd += ["--no-pin"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                 text=True, check=True).stdout
            walls[mode].append(json.loads(out.strip().splitlines()[-1])
                               ["metrics"]["wall_s"]["value"])
            print(f"pair {i} {mode}: {walls[mode][-1]:.3f} s", file=sys.stderr)
    return {mode: {"wall_s": v, "median": spread(v)[0], "spread": spread(v)[1]}
            for mode, v in walls.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="paper16,mesh256")
    ap.add_argument("--seeds", type=int, default=0, help="runs per workload")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--pinning", type=int, default=0, help="pinned/unpinned pairs")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    record = {"host": f"{os.cpu_count()} vCPU Linux guest",
              "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    if args.seeds:
        record["run_seconds"] = seconds
        seeds = range(args.first_seed, args.first_seed + args.seeds)
        record["workloads"] = seed_runs(spec, args.workloads.split(","), seeds, seconds)
    if args.pinning:
        target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        binary = os.path.join(ROOT, target, "perfbench", "perfbench")
        record["pinning"] = pinning_runs(binary, args.pinning)
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
