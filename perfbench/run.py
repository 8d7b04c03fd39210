#!/usr/bin/env python3
"""Runs one benchmark workload of the LTNC stack and prints its metrics.

    python3 perfbench/run.py --workload file_udp|ingest_ring|gossip_sim \\
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds perfbench/ (and the
library from src/) in Release mode into $CARGO_TARGET_DIR, or .bench_build
when that is unset. --trace 0 measures the end-to-end metrics; --trace 1
runs the workload untraced for half the time and traced for the other
half, prints the per-layer metrics of the traced half and the tracing
overhead. Every metric is printed as "name value unit", followed by the
machine and build identity; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. The full result,
with per-thread accounting, goes to .bench_out/; traced runs also write a
Chrome trace there. Exits 1 when the build fails or any output check
fails, 2 on bad usage.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("file_udp", "ingest_ring", "gossip_sim")
# The end-to-end metric whose traced/untraced ratio is the tracing overhead.
OVERHEAD_METRIC = "goodput_MBps"
RUN_DEADLINE_S = 170.0


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(bdir):
    """Configures (once) and builds the ltbench binary. Returns its path."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "ltbench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if proc.returncode != 0:
            log("perfbench: build step failed:", " ".join(cmd))
            return None
    binary = os.path.join(bdir, "ltbench")
    return binary if os.access(binary, os.X_OK) else None


def run_binary(binary, workload, seed, seconds, traced, trace_out, deadline):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "1" if traced else "0"]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    log("perfbench:", " ".join(cmd))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, check=False,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("perfbench: workload timed out")
        return None
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("perfbench: workload printed no result (exit %d)" % proc.returncode)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log("perfbench: unreadable result line:", lines[-1][:200])
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def source_digest():
    """sha256 over the library and benchmark sources (documentation
    excluded): identifies the code in a checkout exported without git
    history, where no commit can be read."""
    digest = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), HERE]
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in roots:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            files.extend(os.path.join(dirpath, name) for name in filenames)
    for path in sorted(files):
        if not os.path.isfile(path) or path.endswith(".md"):
            continue
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def machine_block(build_info, args):
    return {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "kernel": platform.release(),
        "compiler": build_info.get("compiler"),
        "build_type": build_info.get("build_type"),
        "kernel_backend": build_info.get("kernel_backend"),
        "telemetry": "compiled in" if build_info.get("telemetry")
                     else "compiled out",
        "git_commit": git_commit() or "none (not a git checkout)",
        "source_digest": source_digest(),
        "seed": args.seed,
        "command": " ".join(["python3"] + sys.argv),
    }


def declared_metrics(section):
    """Metric names BENCHMARK.json declares for `section`, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            return [m["name"] for m in json.load(f)[section]]
    except (OSError, ValueError, KeyError):
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload not in WORKLOADS or args.seconds <= 0 or args.seed < 0:
        log("perfbench: unknown workload or bad arguments")
        return 2
    binary = build(build_dir())
    if binary is None:
        return 1
    deadline = time.monotonic() + RUN_DEADLINE_S

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))

    runs = []
    if args.trace:
        half = max(1.0, args.seconds / 2.0)
        untraced = run_binary(binary, args.workload, args.seed, half, False,
                              None, deadline)
        traced = run_binary(binary, args.workload, args.seed, half, True,
                            stem + ".trace.json", deadline)
        runs = [untraced, traced]
    else:
        runs = [run_binary(binary, args.workload, args.seed, args.seconds,
                           False, None, deadline)]
    if any(run is None for run in runs):
        return 1

    final = runs[-1]
    if args.trace:
        section = "per_layer"
        metrics = dict(final["per_layer"])
        base = runs[0]["end_to_end"][OVERHEAD_METRIC]["value"]
        slowed = final["end_to_end"][OVERHEAD_METRIC]["value"]
        metrics["trace.overhead_share"] = {
            "value": (base - slowed) / base if base else 0.0,
            "unit": "ratio"}
    else:
        section = "end_to_end"
        metrics = dict(final["end_to_end"])

    declared = declared_metrics(section)
    missing = [n for n in (declared or []) if n not in metrics]
    if missing:
        log("perfbench: metrics missing from the result:", ", ".join(missing))
        return 1
    if declared:
        metrics = {name: metrics[name] for name in declared}

    correct = all(run["correct"] for run in runs)
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    machine = machine_block(final.get("build", {}), args)

    for name, metric in metrics.items():
        print("%-44s %.6g %s" % (name, metric["value"], metric["unit"]))
    if args.trace:
        for name, metric in runs[0]["end_to_end"].items():
            traced_value = final["end_to_end"][name]["value"]
            print("%-44s untraced %.6g, traced %.6g %s" % (
                "tracing overhead " + name, metric["value"], traced_value,
                metric["unit"]))
        for thread in final["threads"]:
            print("thread %-26s wall %.1f ms, busy %.1f ms, waiting %.1f ms, "
                  "accounting error %.2g" % (
                      thread["name"], thread["wall_ms"], thread["busy_ms"],
                      thread["wait_ms"], thread["accounting_error"]))
    for key, value in machine.items():
        print("machine %-18s %s" % (key, value))
    print("operations attempted %d, failed %d%s" % (
        attempted, failed, "" if correct else " - OUTPUT CHECK FAILED"))
    for run in runs:
        for failure in run["check_failures"]:
            print("check failed:", failure)

    with open(stem + ".json", "w", encoding="utf-8") as f:
        json.dump({"machine": machine, "metrics": metrics, "runs": runs,
                   "correct": correct, "attempted": attempted,
                   "failed": failed}, f, indent=1)

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
