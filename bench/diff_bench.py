#!/usr/bin/env python3
"""Regression diff for the committed BENCH_*.json baselines.

Every perf-sensitive subsystem writes a machine-readable BENCH_*.json
(kernels, wire codec, endpoint pipeline, event-engine scaling). The
committed copies are the baselines; re-running the benches overwrites
them. This script reports how far the fresh numbers drifted from the
baseline so a PR that tanks events/sec or inflates peak RSS is visible in
CI — as a *report*, not a gate: single-core CI boxes are noisy, so the
default exit code is 0 and --strict is opt-in.

Baselines come from a directory (--baseline-dir) or straight out of git
(--git REV, default HEAD — reads `git show REV:FILE`), so the usual
invocation after re-running the benches in a dirty tree is just:

    python3 bench/diff_bench.py            # fresh cwd files vs HEAD
    python3 bench/diff_bench.py --tolerance 0.5 --strict

Numeric leaves are compared by relative difference against --tolerance
(default 0.25); a nested JSON document is flattened to dotted paths
first. When every row of a list carries identity fields (engine/driver/
section, policy, capacity_frac, num_nodes, loss, shards) and no two rows
share them, rows are keyed by them ("[driver=sim,loss=0.3].p50"), so
adding or dropping a row does not shift every row after it; otherwise
the list's rows are keyed by index ("shard_scaling[1].frames_per_sec"),
so no row ever overwrites another. Each metric's name gives its
direction: rss, latency, quantiles, miss rate, overhead, bytes and
seconds are better lower; throughput and rates per second are better
higher. Counts, sizes that are inputs (block_bytes, symbol_bytes, ...)
and edge_bytes (more of it is more offload) have none. A drift past
tolerance reads BETTER or WORSE accordingly, or DRIFT when the metric
has no direction. Non-numeric
leaves must match exactly. Missing baselines (a brand-new bench) are
noted and skipped.
"""

import argparse
import glob
import json
import math
import os
import re
import subprocess
import sys

# Fields that name a row of a sweep, in the order they appear in its key.
IDENTITY_FIELDS = ("engine", "driver", "section", "policy", "capacity_frac",
                   "num_nodes", "loss", "shards")

# Metric-name fragments, matched against the last path component.
# NO_DIRECTION wins over the other two: it names what they would misread.
NO_DIRECTION = re.compile(
    r"(_samples$|^(edge|block|symbol|payload|capacity|cache)_bytes(_used)?$|"
    r"^within_)", re.IGNORECASE)
HIGHER_IS_BETTER = re.compile(
    r"(per_s(ec)?$|_per_sec|throughput|goodput|gbps|mbps|speedup|"
    r"frames_per_(send|recv)|hit|offload)", re.IGNORECASE)
LOWER_IS_BETTER = re.compile(
    r"(rss|latency|p50|p90|p99|p999|miss|overhead|bytes|seconds|wall|"
    r"_ns$|_ms$|_us$|_s$|^ns|time)", re.IGNORECASE)


def identity_key(row):
    """"[f=v,...]" of a row's identity fields, or None when it has none."""
    if not isinstance(row, dict):
        return None
    ident = [f"{f}={row[f]}" for f in IDENTITY_FIELDS if f in row]
    return "[" + ",".join(ident) + "]" if ident else None


def row_keys(rows):
    """Identity keys of a list's rows when they name every row uniquely,
    else index keys."""
    keys = [identity_key(row) for row in rows]
    if None not in keys and len(set(keys)) == len(keys):
        return keys
    return [f"[{i}]" for i in range(len(rows))]


def flatten(node, prefix=""):
    """Flattens nested dicts/lists into {path: leaf} with stable paths."""
    out = {}
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else key
            out.update(flatten(value, path))
    elif isinstance(node, list):
        for key, value in zip(row_keys(node), node):
            out.update(flatten(value, prefix + key))
    else:
        out[prefix] = node
    return out


def direction(path):
    """+1 when a larger value is better, -1 when smaller is, 0 unknown."""
    name = re.split(r"[.\]]", path)[-1]
    if NO_DIRECTION.search(name):
        return 0
    if HIGHER_IS_BETTER.search(name):
        return 1
    if LOWER_IS_BETTER.search(name):
        return -1
    return 0


def verdict(path, old, new):
    sign = direction(path)
    if sign == 0:
        return "DRIFT"
    return "BETTER" if (new - old) * sign > 0 else "WORSE"


def load_baseline(name, args):
    if args.baseline_dir:
        path = os.path.join(args.baseline_dir, name)
        if not os.path.exists(path):
            return None
        with open(path) as f:
            return json.load(f)
    try:
        blob = subprocess.run(
            ["git", "show", f"{args.git}:./{name}"],
            capture_output=True,
            check=True,
            cwd=args.dir,
        ).stdout
    except subprocess.CalledProcessError:
        return None
    return json.loads(blob)


def rel_diff(old, new):
    if old == new:
        return 0.0
    denom = max(abs(old), abs(new))
    if denom == 0.0:
        return 0.0
    return abs(new - old) / denom


def compare_file(name, baseline, current, tolerance):
    """Returns (rows, drift_count). Each row: (path, old, new, status)."""
    old_flat = flatten(baseline)
    new_flat = flatten(current)
    rows = []
    drift = 0
    for path in sorted(set(old_flat) | set(new_flat)):
        old = old_flat.get(path)
        new = new_flat.get(path)
        if old is None or new is None:
            rows.append((path, old, new, "added" if old is None else "removed"))
            continue
        numeric = isinstance(old, (int, float)) and isinstance(new, (int, float)) \
            and not isinstance(old, bool) and not isinstance(new, bool)
        if not numeric:
            if old != new:
                drift += 1
                rows.append((path, old, new, "CHANGED"))
            continue
        if math.isnan(old) or math.isnan(new):
            continue
        d = rel_diff(float(old), float(new))
        if d > tolerance:
            drift += 1
            label = verdict(path, float(old), float(new))
            rows.append((path, old, new, f"{label} {d * 100.0:.1f}%"))
    return rows, drift


def fmt(value):
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*",
                        help="BENCH_*.json files (default: glob in --dir)")
    parser.add_argument("--dir", default=".",
                        help="directory holding the fresh BENCH_*.json files")
    parser.add_argument("--baseline-dir", default=None,
                        help="directory holding baseline copies "
                             "(default: read them from git)")
    parser.add_argument("--git", default="HEAD",
                        help="git revision for baselines (default HEAD)")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="relative drift to report (default 0.25)")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 when any metric drifts past tolerance")
    args = parser.parse_args()

    files = args.files or sorted(
        os.path.basename(p) for p in glob.glob(os.path.join(args.dir, "BENCH_*.json")))
    if not files:
        print("diff_bench: no BENCH_*.json files found")
        return 0

    total_drift = 0
    for name in files:
        current_path = os.path.join(args.dir, name)
        if not os.path.exists(current_path):
            print(f"-- {name}: not present in {args.dir}, skipped")
            continue
        with open(current_path) as f:
            current = json.load(f)
        baseline = load_baseline(name, args)
        if baseline is None:
            print(f"-- {name}: no baseline (new bench?), skipped")
            continue
        rows, drift = compare_file(name, baseline, current, args.tolerance)
        total_drift += drift
        status = "ok" if drift == 0 else f"{drift} metric(s) drifted"
        print(f"-- {name}: {status} (tolerance ±{args.tolerance * 100:.0f}%)")
        for path, old, new, verdict in rows:
            print(f"   {verdict:>14}  {path}: {fmt(old)} -> {fmt(new)}")

    if total_drift:
        print(f"diff_bench: {total_drift} metric(s) beyond tolerance "
              f"({'failing' if args.strict else 'informational'})")
    else:
        print("diff_bench: all tracked metrics within tolerance")
    return 1 if (args.strict and total_drift) else 0


if __name__ == "__main__":
    sys.exit(main())
