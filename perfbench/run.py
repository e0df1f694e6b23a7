#!/usr/bin/env python3
"""Builds and runs the open-loop fleet benchmark.

    python3 perfbench/run.py --workload steady-hop25 --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --smoke

The first form configures perfbench/ (which builds the csdml libraries from
src/) into .bench_build/ at the repository root, builds perfbench_fleet, runs one
workload and passes its output through; the last line is the result JSON.
With --trace 1 the traced run's Chrome trace lands in
.bench_build/trace-<workload>.json.

--smoke runs every workload briefly, traced and untraced, and checks that
every metric BENCHMARK.json names is printed with its unit.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench_fleet")
WORKLOADS = ["steady-hop25", "churn-short", "rollout-failover"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("csdml sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "--target", "perfbench_fleet", "-j", jobs],
    ]
    for step in steps:
        result = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                text=True, timeout=BUILD_TIMEOUT_S, check=False)
        if result.returncode != 0:
            sys.stderr.write(result.stdout[-4000:])
            raise RuntimeError("build step failed: " + " ".join(step))


def run_bench(workload, seed, seconds, trace):
    """Runs perfbench_fleet; returns (exit code, stdout)."""
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        command += ["--trace-out", os.path.join(BUILD, "trace-%s.json" % workload)]
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as process:
        try:
            out, _ = process.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()
            raise RuntimeError("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    return process.returncode, out


def result_of(out):
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        raise RuntimeError("benchmark printed nothing")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError("malformed result line: " + lines[-1])
    return result


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    missing = []
    for workload in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, out = run_bench(workload, 1, 2, trace)
            printed = {}
            for line in out.splitlines():
                fields = line.split()
                if len(fields) >= 4 and fields[0] == "metric":
                    printed[fields[1]] = fields[3]
            result = result_of(out)
            for metric in spec[group]:
                name, unit = metric["name"], metric["unit"]
                if printed.get(name) != unit or result["metrics"].get(name, {}).get("unit") != unit:
                    missing.append("%s trace=%d: %s [%s]" % (workload, trace, name, unit))
            extra = set(result["metrics"]) - {m["name"] for m in spec[group]}
            missing += ["%s trace=%d: unlisted %s" % (workload, trace, n) for n in sorted(extra)]
            if code != 0 or not result["correct"]:
                missing.append("%s trace=%d: exit %d, correct=%s"
                               % (workload, trace, code, result["correct"]))
            log("smoke %s trace=%d exit=%d attempted=%d"
                % (workload, trace, code, result["attempted"]))
    for problem in missing:
        log("smoke problem: " + problem)
    print(json.dumps({"smoke_ok": not missing, "problems": len(missing)}))
    return 0 if not missing else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    try:
        build()
        if args.smoke:
            return smoke()
        code, out = run_bench(args.workload, args.seed, args.seconds, args.trace)
        sys.stdout.write(out)
        sys.stdout.flush()
        result_of(out)
        return code
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as error:
        log("error: %s" % error)
        return 1


if __name__ == "__main__":
    sys.exit(main())
