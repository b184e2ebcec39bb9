#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

builds the library and the ftbench binary into .bench_build/perfbench
(incrementally after the first run), runs one workload, and passes its output
through; the last line is the JSON result. --trace 1 runs the layer-by-layer
traced run and writes its spans as Chrome trace-event JSON under
.bench_build/traces/.

Repeat mode runs each workload of BENCHMARK.json (or of --workloads) N times,
each with another seed, and prints per metric the median, quartiles, min, max
and the quartile spread as a share of the median next to its bound:

  python3 perfbench/run.py --repeat 10 [--workloads sweep,explain] [--seconds 20]
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "ftbench")
RUN_TIMEOUT_S = 170

# Compiler temporaries and benchmark work files stay inside the repository.
TMP = os.path.join(ROOT, ".bench_build", "tmp")
ENV = dict(os.environ, TMPDIR=TMP)


def build():
    """Configure (first run only) and build; output goes to stderr."""
    os.makedirs(TMP, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=ENV).returncode:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    done = subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr, env=ENV)
    return done.returncode == 0 and os.path.exists(BINARY)


def run_once(workload, seed, seconds, trace, echo):
    """Run ftbench once; returns (exit code, parsed JSON result or None)."""
    work = os.path.join(ROOT, ".bench_build", "work", f"{workload}-{seed}-{os.getpid()}")
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--work-dir", work]
    if trace:
        cmd += ["--trace-out", os.path.join(ROOT, ".bench_build", "traces",
                                            f"{workload}-seed{seed}.json")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, env=ENV)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        out = ""
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    lines = out.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result


def spread_report(workloads, repeats, seconds, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    ok = True
    for w in workloads:
        values = {}
        for seed in range(1, repeats + 1):
            code, result = run_once(w, seed, seconds, trace, echo=False)
            if result is None or not result["correct"]:
                print(f"{w} seed {seed}: FAILED (exit {code})")
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n{w}: {repeats} runs")
        print(f"  {'metric':30} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'min':>12} {'max':>12} {'iqr/med':>8} {'bound':>6}")
        for name, vs in values.items():
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            rel = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            print(f"  {name:30} {med:12.6g} {q1:12.6g} {q3:12.6g} {min(vs):12.6g} "
                  f"{max(vs):12.6g} {rel:8.4f} {bound if bound is not None else '':>6}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0)
    ap.add_argument("--workloads", default="",
                    help="comma-separated; default: the workloads in BENCHMARK.json")
    args = ap.parse_args()
    if not args.repeat and not args.workload:
        ap.error("--workload or --repeat is required")
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if args.repeat:
        ok = spread_report([w for w in args.workloads.split(",") if w],
                           args.repeat, args.seconds, args.trace)
        return 0 if ok else 1
    code, _ = run_once(args.workload, args.seed, args.seconds, args.trace, echo=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
