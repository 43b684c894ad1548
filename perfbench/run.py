#!/usr/bin/env python3
"""Build and run the repository benchmark.

One workload run (the form of BENCHMARK.json's command):

    python3 perfbench/run.py --workload steady-serial --seed 1 --seconds 20 --trace 0

builds perfbench/ (and the program's libraries from src/) in Release
mode under $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
runs one workload and passes its output through. The last line printed
is the result object {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --check        # every workload on --seed and
                                            # the held-out seed, each with
                                            # the 1-vs-N-thread journal
                                            # identity check
    python3 perfbench/run.py --self-test    # unit tests + BENCHMARK.json
                                            # against the metric catalog

Run it from the root of a checkout; it reads and writes nothing outside.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ["steady-serial", "surge-sharded", "deploy-sockets"]
RUN_TIMEOUT_S = 170
# Fixed, so that it cannot be re-chosen until the checks pass.
HELD_OUT_SEED = 1009


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then build (a no-op when nothing changed)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources under %s/src; run from a full checkout"
             % ROOT)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                with open(log_path) as failed:
                    sys.stderr.write("".join(failed.readlines()[-40:]))
                fail("build failed; full log in " + log_path, 1)
    return out


def git_commit():
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_workload(out, workload, seed, seconds, trace, echo=True):
    """Run one workload; returns (exit code, parsed result or None)."""
    scratch = os.path.join(out, "run")
    traces = os.path.join(out, "traces")
    os.makedirs(scratch, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    # Unix socket paths are limited to ~108 bytes: pass them relative.
    cmd = [os.path.join(out, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--scratch", os.path.relpath(scratch, ROOT),
           "--trace-out",
           os.path.join(traces, "%s-seed%s.spans.jsonl" % (workload, seed)),
           "--git-commit", git_commit()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills and reaps the child before raising.
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S), 1)
    code = proc.returncode
    lines = proc.stdout.splitlines(keepends=True)
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    result = None
    if code == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return code, result, lines


def self_test(out):
    binary = os.path.join(out, "perfbench_test")
    code = subprocess.call([binary], cwd=out)
    listed = json.loads(subprocess.run(
        [os.path.join(out, "perfbench"), "--list-metrics"], cwd=ROOT,
        capture_output=True, text=True, check=True).stdout)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    problems = []
    if [w["name"] for w in declared["workloads"]] != listed["workloads"]:
        problems.append("workload names differ from the catalog")
    for kind, flag in (("end_to_end", True), ("per_layer", False)):
        want = {(m["name"], m["unit"], m["better"])
                for m in listed["metrics"] if m["end_to_end"] == flag}
        got = {(m["name"], m["unit"], m["better"]) for m in declared[kind]}
        for missing in sorted(want - got):
            problems.append("%s: %s missing from BENCHMARK.json" % (kind, missing))
        for extra in sorted(got - want):
            problems.append("%s: %s not in the catalog" % (kind, extra))
    for problem in problems:
        print("BENCHMARK.json: " + problem)
    print("BENCHMARK.json agrees with the metric catalog" if not problems
          else "BENCHMARK.json disagrees with the metric catalog")
    return 0 if code == 0 and not problems else 1


def check(out, seed, seconds):
    """Every workload on `seed` and the held-out seed, traced and
    untraced, plus the surge-sharded journal identity across thread
    counts on both seeds."""
    ok = True
    rows = []
    seeds = (seed, HELD_OUT_SEED)
    for workload in WORKLOADS:
        for s in seeds:
            for trace in (0, 1):
                code, result, lines = run_workload(out, workload, s, seconds,
                                                   trace, echo=False)
                good = code == 0 and result is not None and result["correct"]
                ok = ok and good
                for line in lines:
                    if line.startswith("CHECK FAILED"):
                        sys.stdout.write("%s seed %s: %s" % (workload, s, line))
                if result is None:
                    rows.append((workload, s, trace, "run failed", "", ""))
                    continue
                attempted, failed = result["attempted"], result["failed"]
                for name, m in result["metrics"].items():
                    if trace == 0 or name in ("fail_frac", "trace.overhead_pct",
                                              "work_loss_pct", "outages"):
                        rows.append((workload, s, trace, name,
                                     "%.6g" % m["value"], m["unit"]))
                rows.append((workload, s, trace, "correct",
                             str(result["correct"]).lower(),
                             "%d/%d failed" % (failed, attempted)))
    print("%-15s %6s %5s  %-22s %16s  %s" % ("workload", "seed", "trace",
                                            "metric", "value", "unit"))
    for row in rows:
        print("%-15s %6s %5s  %-22s %16s  %s" % row)
    for s in seeds:
        code = subprocess.call(
            [os.path.join(out, "perfbench"), "--journal-check", "--seed",
             str(s), "--git-commit", git_commit()], cwd=ROOT)
        ok = ok and code == 0
    print("check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not (args.check or args.self_test or args.workload):
        parser.error("give --workload, --check or --self-test")

    out = build()
    if args.self_test:
        return self_test(out)
    if args.check:
        return check(out, args.seed, args.seconds)
    code, result, _ = run_workload(out, args.workload, args.seed,
                                   args.seconds, args.trace)
    if code != 0 or result is None:
        fail("%s exited with %d without a result" % (args.workload, code), 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
