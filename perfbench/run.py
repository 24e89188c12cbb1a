#!/usr/bin/env python3
"""Host-time benchmark of the aec-dsm simulator.

Builds the simulator libraries and the perfbench binary from this checkout
(CMake, into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench),
runs one workload pinned to one CPU, and prints the result as the last line
of standard output. Run it from the root of the checkout:

  python3 perfbench/run.py --workload paper16 --seed 0 --seconds 50 --trace 0
  python3 perfbench/run.py --workload mesh256 --seed 3 --seconds 50 --trace 1
  python3 perfbench/run.py --selftest

perfbench/README.md describes the workloads, the metrics and the self-tests.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper16", "mesh256")
REFERENCE = os.path.join(HERE, "reference")
BASELINE = os.path.join(ROOT, "bench", "baselines", "bench_all.json")
RUN_TIMEOUT_S = 170


def build():
    """Configure once, build incrementally; return the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: simulator sources (src/) not found next to perfbench/")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out = os.path.join(ROOT, target, "perfbench")
    # The compiler's scratch files stay inside the build tree too.
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", out, "--target", "perfbench", "-j", "3"],
                   check=True, stdout=sys.stderr, env=env)
    return out


def run(cmd):
    """Run the binary; return its last stdout line parsed, or None."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def selftest(binary):
    """The binary's own checks per workload, then every metric name a short
    untraced and traced run prints must be the set BENCHMARK.json names."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: {m["name"] for m in spec["end_to_end"]},
              1: {m["name"] for m in spec["per_layer"]}}
    failures = 0
    for w in WORKLOADS:
        cmd = [binary, "--workload", w, "--selftest", "--reference", REFERENCE]
        if w == "paper16" and os.path.isfile(BASELINE):
            cmd += ["--baseline", BASELINE]
        failures += subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode != 0
        for trace in (0, 1):
            result = run([binary, "--workload", w, "--seconds", "1", "--trace", str(trace),
                          "--reference", REFERENCE])
            names = set(result["metrics"]) if result else set()
            ok = result is not None and result["correct"] and names == wanted[trace]
            failures += not ok
            print(f"[selftest] {w} {'PASS' if ok else 'FAIL'}: --trace {trace} prints "
                  f"exactly the BENCHMARK.json metrics (extra {sorted(names - wanted[trace])}, "
                  f"missing {sorted(wanted[trace] - names)})", file=sys.stderr)
    print("selftest " + ("passed" if failures == 0 else f"failed ({failures})"))
    return 0 if failures == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    out = build()
    binary = os.path.join(out, "perfbench")
    if args.selftest:
        return selftest(binary)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", REFERENCE]
    if args.trace:
        cmd += ["--spans", os.path.join(out, f"spans-{args.workload}-seed{args.seed}.json")]
    result = run(cmd)
    if result is None:
        sys.exit("perfbench: the benchmark binary failed")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
