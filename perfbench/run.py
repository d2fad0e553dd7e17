#!/usr/bin/env python3
"""SlimPipe benchmark: builds the runner from source, runs one workload and
prints the report followed by a one-line JSON result.

    python3 perfbench/run.py --workload sim-large --seed 1 --seconds 24 --trace 0

Run from the repository root. Workloads: sim-large, plan-grid and
train-threads (see perfbench/README.md). With --trace 0 the result carries the
end-to-end metrics; with --trace 1 it carries the per-layer metrics.

The report lists every metric with its unit, sample count, median,
quartiles and spread, the fail ratio, the correctness verdict and a host
fingerprint. The last line of stdout is the result object:

    {"correct": true, "attempted": 12, "failed": 0,
     "metrics": {"iter_s": {"value": 1.02, "unit": "s"}, ...}}

Exit status: 0 when every output was correct; 1 after printing the result
when any check failed; 2 on bad arguments, a missing source tree, a failed
build or a runner that crashed or ran out of time (no result is printed).
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "slimpipe_perfbench")
# Workloads and metric declarations (names, units) live in BENCHMARK.json.
SPEC = os.path.join(ROOT, "BENCHMARK.json")

SEED_FREE = ("sim-large", "plan-grid")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the runner; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no SlimPipe source tree next to perfbench/ (expected src/)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "slimpipe_perfbench", "-j", jobs])
    # Compiler temporaries stay inside the build tree.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, env=env)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def run_bench(args):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("runner exceeded %d s" % RUN_TIMEOUT_S)
    lines = out.decode().strip().splitlines()
    if not lines:
        fail("runner exited %d without output" % proc.returncode)
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("runner exited %d with unparsable output" % proc.returncode)


def source_digest():
    """sha256 over the sources the runner builds (src/ and perfbench/)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def summarize(samples):
    """Median, quartiles, relative spread and the highest percentile that
    has at least ten samples beyond it (None when there are too few)."""
    ordered = sorted(samples)
    n = len(ordered)
    med = statistics.median(ordered)
    if n >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = med
    tail = None
    for pct in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - pct) / 100 >= 10:
            rank = min(n - 1, int(-(-pct * n // 100)) - 1)
            tail = (pct, ordered[rank])
            break
    spread = (q3 - q1) / med if med else float("nan")
    return {"n": n, "median": med, "q1": q1, "q3": q3, "spread": spread,
            "tail": tail}


def main():
    with open(SPEC) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build()
    raw = run_bench(args)

    attempted = int(raw["attempted"])
    failed = int(raw["failed"])
    errors = raw["errors"]
    if attempted == 0:  # aborted before the first timed iteration
        attempted = failed = 1
    seed_note = (" (inputs do not depend on the seed)"
                 if args.workload in SEED_FREE else " (token ids)")
    print("workload %s  seed %d%s  trace %d  measured %.0f s" % (
        args.workload, args.seed, seed_note, args.trace, args.seconds))
    print("host: cpu=%r nproc=%d affinity=%d compiler=%r build=%s "
          "git=%s source=%s" % (
              cpu_model(), os.cpu_count() or 0,
              len(os.sched_getaffinity(0)), raw["compiler"],
              raw["build_type"], git_sha(), source_digest()))
    header = "%-28s %-8s %5s %14s %14s %14s %9s %s" % (
        "metric", "unit", "n", "median", "q1", "q3", "iqr/med", "tail")
    print(header)
    metrics = raw["metrics"]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    idle = set()
    if args.trace:
        # A layer this workload does not run did no work: it reads 0.
        for m in declared:
            if m["name"] not in metrics:
                metrics[m["name"]] = {"unit": m["unit"], "samples": [0.0]}
                idle.add(m["name"])
    result = {}
    for m in declared:
        name = m["name"]
        got = metrics.get(name)
        if got is None or got["unit"] != m["unit"]:
            errors.append("metric %s missing or not in %s" % (name, m["unit"]))
            continue
        if not got["samples"] or any(v is None for v in got["samples"]):
            errors.append("metric %s has no finite samples" % name)
            continue
        result[name] = {"value": statistics.median(got["samples"]),
                        "unit": m["unit"]}
    for name, metric in metrics.items():
        if not metric["samples"] or any(v is None for v in metric["samples"]):
            continue
        s = summarize(metric["samples"])
        tail = ("p%g=%.6g" % s["tail"]) if s["tail"] else "-"
        note = " (not exercised)" if name in idle else ""
        print("%-28s %-8s %5d %14.6g %14.6g %14.6g %9.4f %s%s" % (
            name, metric["unit"], s["n"], s["median"], s["q1"], s["q3"],
            s["spread"], tail, note))
    correct = not errors
    print("fail_ratio %.6g (%d failed of %d attempted iterations)" % (
        failed / attempted, failed, attempted))
    for line in errors[:20]:
        print("error: " + line)
    if len(errors) > 20:
        print("error: ... %d more" % (len(errors) - 20))
    print("correct: %s" % ("yes" if correct else "NO"))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
