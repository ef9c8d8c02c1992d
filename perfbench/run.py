#!/usr/bin/env python3
"""Build and run the host-time benchmark (see perfbench/README.md).

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --steady 5 [--workload W] [--seconds S]
  python3 perfbench/run.py --selftest
  python3 perfbench/run.py --pin

The first form builds perfbench/ (and the libraries under src/) into
.bench_build/ if needed, runs one workload and prints the result object as
the last line of standard output. Build logs and diagnostics go to
standard error.
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
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "acs_perfbench")
PINS = os.path.join(HERE, "expected.txt")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
REFERENCE = os.path.join(ROOT, "bench", "reference",
                         "BENCH_serving_topology_smoke.json")
WORKLOADS = ["mc_security", "spec_sim", "serve_storm"]
RUN_TIMEOUT_S = 170


def log(message):
    print(f"[run.py] {message}", file=sys.stderr, flush=True)


def fail(message, code=2):
    log(message)
    sys.exit(code)


def build():
    """Configure (once) and build the benchmark binary from source."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"{ROOT}/src not found: the benchmark builds the repository's "
             "libraries from source and cannot run without them")
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(BUILD)  # configured for another checkout
    if not os.path.isfile(cache):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed", 1)
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD, "--target", "acs_perfbench",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        fail("build failed", 1)


def serve_reference_mismatches():
    """Pinned seed-42 serve_storm outputs against the checked-in
    bench_serving_topology smoke reference (400 requests, seed 42)."""
    with open(REFERENCE) as f:
        configs = json.load(f)["topology"]["configs"]
    pinned = {}
    with open(PINS) as f:
        for line in f:
            parts = line.split()
            if len(parts) > 2 and parts[0] == "serve_storm" \
                    and parts[1].endswith("#0"):
                pinned[parts[1][:-2]] = dict(p.split("=", 1) for p in parts[3:])
    mismatches = []

    def leaves(prefix, node):
        for key, value in node.items():
            name = f"{prefix}.{key}" if prefix else key
            if isinstance(value, dict):
                yield from leaves(name, value)
            else:
                yield name, value

    for key, fields in sorted(pinned.items()):
        scheme, arm = key.split("/")
        reference = configs.get(f"{scheme}_load90_s8000_{arm}")
        if reference is None:
            mismatches.append(f"{key}: no reference entry")
            continue
        for name, value in leaves("", reference):
            if fields.get(name) != str(value):
                mismatches.append(f"{key} {name}: pinned {fields.get(name)} "
                                  f"reference {value}")
    if len(pinned) != 6:
        mismatches.append(f"expected 6 pinned seed-42 arms, found {len(pinned)}")
    return mismatches


def run_once(workload, seed, seconds, trace, echo=sys.stderr):
    """Run the binary; returns (exit code, result dict). Standard output
    lines before the result line are copied to `echo`."""
    os.makedirs(OUT, exist_ok=True)
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--pins", PINS,
               "--trace-out",
               os.path.join(OUT, f"trace-{workload}-seed{seed}.json")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.splitlines()
    if not lines:
        fail(f"{workload} printed no result (exit {proc.returncode})", 1)
    for line in lines[:-1]:
        print(line, file=echo)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload}: malformed result line: {lines[-1]}", 1)
    if workload == "serve_storm":
        mismatches = serve_reference_mismatches()
        for mismatch in mismatches:
            log(f"reference mismatch: {mismatch}")
        if mismatches:
            result["correct"] = False
    return proc.returncode, result


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def steady(workloads, runs, seconds):
    """Run each workload `runs` times with distinct seeds and print each
    end-to-end metric's median and quartile spread against its bound."""
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    within = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        for seed in range(1, runs + 1):
            code, result = run_once(workload, seed, seconds, 0)
            if code != 0 or not result["correct"]:
                fail(f"{workload} seed {seed} failed its output checks", 1)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, xs in values.items():
            q1, median, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / median
            verdict = "ok" if spread < bounds[name] / 3 else \
                "within bound" if spread <= bounds[name] else "TOO NOISY"
            within = within and spread <= bounds[name]
            print(f"{workload:12s} {name:12s} median {median:14.6g}  "
                  f"spread {spread:7.2%}  bound {bounds[name]:5.0%}  "
                  f"{verdict}")
    return 0 if within else 1


def selftest():
    """Tiny runs of every workload in both modes; the printed metric names
    and units must match BENCHMARK.json and every output check must pass."""
    spec = load_spec()
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    if [w["name"] for w in spec["workloads"]] != WORKLOADS:
        fail("BENCHMARK.json workloads differ from run.py's", 1)
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = run_once(workload, 1, 1, trace)
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            tag = f"{workload} --trace {trace}"
            if code != 0 or not result["correct"] or result["failed"] != 0:
                problems.append(f"{tag}: output checks failed")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                units = sorted(n for n in got if n in expected[trace]
                               and got[n] != expected[trace][n])
                problems.append(f"{tag}: missing {missing} extra {extra} "
                                f"unit mismatch {units}")
            log(f"{tag}: {len(got)} metrics")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def pin():
    """Regenerate perfbench/expected.txt from the current libraries."""
    lines = ["# Pinned op outputs of perfbench workloads; regenerate with",
             "# python3 perfbench/run.py --pin",
             "# mc_security <experiment>_b<b>#<k> <successes>",
             "# spec_sim <benchmark>/<scheme> <cycles> <instructions>",
             "# serve_storm <scheme>/<arm>#<k> <digest> <fields>"]
    for workload in WORKLOADS:
        log(f"pinning {workload}")
        proc = subprocess.run([BINARY, "--pin", workload],
                              stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            fail(f"pinning {workload} failed", 1)
        lines += proc.stdout.splitlines()
    with open(PINS, "w") as f:
        f.write("\n".join(lines) + "\n")
    mismatches = serve_reference_mismatches()
    for mismatch in mismatches:
        log(f"reference mismatch: {mismatch}")
    return 1 if mismatches else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="RUNS")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args()

    build()
    if args.pin:
        return pin()
    if args.selftest:
        return selftest()
    if args.steady:
        return steady([args.workload] if args.workload else WORKLOADS,
                      args.steady, args.seconds)
    if args.workload is None:
        parser.error("--workload is required")
    code, result = run_once(args.workload, args.seed, args.seconds, args.trace,
                            echo=sys.stdout)
    print(json.dumps(result), flush=True)
    return code if result["correct"] else (code or 1)


if __name__ == "__main__":
    sys.exit(main())
