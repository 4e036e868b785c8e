#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

It configures and builds perfbench/ (which compiles the library from src/)
into .bench_build/perfbench, runs one pass of the workload with
AIFT_NUM_THREADS pinned, checks the host fingerprint against the host the
load was sized on and the seed-determined counts against the previous run
of the same code and seed, and prints as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}. It exits nonzero on any
correctness failure, and without a result when it cannot build or run.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

PINNED_WORKERS = 2
BUILD_DIR = os.path.join(".bench_build", "perfbench")
OUT_DIR = os.path.join(".bench_build", "perfbench-out")
HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT_S = 172
BUILD_TIMEOUT_S = 840
# Fingerprint fields that must match the host the rates were chosen on
# for results to be comparable with it.
COMPARED_FIELDS = ("isa", "nproc", "parallel_workers", "build_type", "compiler")


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def tree_digest(root):
    """sha256 over every file under root (relative path and bytes)."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_commit():
    """HEAD of the repository rooted here, or 'none' outside a git checkout."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != \
                os.path.realpath(os.getcwd()):
            return "none"
        head = subprocess.run(["git", "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() if head.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def build():
    if not os.path.isdir("src") or not os.path.isfile("BENCHMARK.json"):
        die("run from the repository root: src/ or BENCHMARK.json not found")
    if shutil.which("cmake") is None:
        die("cmake not found")
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            die("build timed out")
        if r.returncode != 0:
            die("build failed: " + " ".join(cmd))
    exe = os.path.join(BUILD_DIR, "aift_perfbench")
    if not os.path.isfile(exe):
        die("build produced no " + exe)
    return exe


def cpu_times():
    """(total, steal) CPU ticks of the host so far, or None off Linux."""
    try:
        with open("/proc/stat") as f:
            fields = [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return sum(fields), (fields[7] if len(fields) > 7 else 0)


def compare_fingerprint(fp):
    with open(os.path.join(HERE, "baseline_host.json")) as f:
        base = json.load(f)
    diffs = [f"{k}: this host {fp.get(k)!r}, baseline {base.get(k)!r}"
             for k in COMPARED_FIELDS if fp.get(k) != base.get(k)]
    if diffs:
        print("host fingerprint differs from the baseline host; results are "
              "not comparable with it:")
        for d in diffs:
            print("  " + d)
    else:
        print("host fingerprint matches the baseline host")


def check_repeats(args, detail, code_digest):
    """Seed-determined counts must repeat exactly for the same code."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"counts-{args.workload}-{args.seed}-"
                                 f"{code_digest[:16]}.json")
    counts = detail.get("repeat_counts", {})
    if os.path.isfile(path):
        with open(path) as f:
            before = json.load(f)
        diff = [k for k in counts if k in before and before[k] != counts[k]]
        if diff:
            print("counts did not repeat at seed %d: %s" % (args.seed, ", ".join(
                f"{k} {before[k]} -> {counts[k]}" for k in diff)))
            return False
        print("counts repeat the previous run at this seed (%d compared)" %
              len([k for k in counts if k in before]))
    else:
        with open(path, "w") as f:
            json.dump(counts, f, sort_keys=True)
    return True


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    exe = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    detail_path = stem + ".json"
    if os.path.exists(detail_path):
        os.remove(detail_path)
    code_digest = hashlib.sha256(
        (tree_digest("src") + tree_digest(HERE)).encode()).hexdigest()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", detail_path, "--commit", git_commit(),
           "--src-digest", tree_digest("src")[:16]]
    if args.trace:
        cmd += ["--spans", stem + "-spans.json"]
    env = dict(os.environ, AIFT_NUM_THREADS=str(PINNED_WORKERS))
    sys.stdout.flush()
    before = cpu_times()
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stdout, stderr=sys.stderr,
                           timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("benchmark pass timed out", 3)
    sys.stdout.flush()
    after = cpu_times()
    if before and after and after[0] > before[0]:
        # Time the hypervisor gave this VM's vCPUs to other guests: runs
        # with much steal measure the neighbours as much as the code.
        print("host CPU steal during the pass: %.1f%% of CPU time" %
              (100.0 * (after[1] - before[1]) / (after[0] - before[0])))
    if r.returncode not in (0, 1) or not os.path.isfile(detail_path):
        die(f"benchmark pass failed with exit code {r.returncode}", 3)
    with open(detail_path) as f:
        detail = json.load(f)

    compare_fingerprint(detail["fingerprint"])
    correct = bool(detail["correct"]) and r.returncode == 0
    correct = check_repeats(args, detail, code_digest) and correct
    metrics = detail["metrics"]
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in metrics.items()}
    if got != want:
        die("metrics do not match BENCHMARK.json: got %s, want %s" % (got, want), 4)
    if not args.trace:
        for name, m in metrics.items():
            if not (isinstance(m["value"], (int, float)) and m["value"] > 0):
                print(f"end-to-end metric {name} is not positive: {m['value']}")
                correct = False
    for e in detail.get("errors", []):
        print("correctness failure: " + e)
    result = {"correct": correct, "attempted": int(detail["attempted"]),
              "failed": int(detail["failed"]), "metrics": metrics}
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
