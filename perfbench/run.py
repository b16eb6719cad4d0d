#!/usr/bin/env python3
"""Build and run melb's end-to-end benchmark (see README.md in this directory).

Run from the root of a checkout:

    python3 perfbench/run.py --workload ya4-exhaustive --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds the Release `perfbench` target (the melb
library plus perfbench.cpp) under $CARGO_TARGET_DIR, default `.bench_build`;
later calls only re-check the build. The last line of stdout is the JSON
result; build output goes to stderr.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["ya4-exhaustive", "ya4-reduced", "campaign", "lb-n64"]
# Sources the benchmark cannot run without: the library's build file, its
# sources and the committed adversary witness it compares against.
REQUIRED = ["CMakeLists.txt", "src", "tests/fixtures/ya4-adversary-state-change.sched"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def work_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        fail("missing " + ", ".join(missing) + " — run from a full melb checkout")
    build_dir = work_dir() / "perfbench-cmake"
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", "4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd[:2])} exited {done.returncode}")
    return build_dir / "perfbench"


def source_id():
    """Git commit when there is one, plus a digest of the library sources."""
    digest = hashlib.sha256()
    for path in sorted([ROOT / "CMakeLists.txt", *(ROOT / "src").rglob("*")]):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
        sha = commit.stdout.strip() if commit.returncode == 0 else "no-git"
    except (OSError, subprocess.TimeoutExpired):
        sha = "no-git"
    return f"{sha}/src-sha256:{digest.hexdigest()[:12]}"


def run(exe, args, capture=False):
    cmd = [str(exe), *args, "--root", str(ROOT), "--out", str(work_dir() / "perfbench-out"),
           "--commit", source_id()]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s and was stopped", 3)


def last_json(done):
    if done.returncode != 0:
        fail(f"perfbench exited {done.returncode}", 1)
    return json.loads(done.stdout.strip().splitlines()[-1])


def self_test(exe):
    """Smoke mode on every workload, the traced profile, and a truncated check."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    errors = []

    def expect(cond, what):
        print(f"self-test: {'ok  ' if cond else 'FAIL'} {what}")
        if not cond:
            errors.append(what)

    for workload in WORKLOADS:
        out = last_json(run(exe, ["--workload", workload, "--seed", "7", "--seconds", "1",
                                  "--trace", "0", "--smoke"], capture=True))
        expect(out["correct"] and out["failed"] == 0, f"{workload}: smoke ops pass their pins")
        expect(set(out["metrics"]) == e2e, f"{workload}: prints every end-to-end metric")
        expect(all(m["value"] > 0 for m in out["metrics"].values()),
               f"{workload}: end-to-end metrics are non-zero")

    start = time.time()
    out = last_json(run(exe, ["--workload", "campaign", "--seed", "2026", "--seconds", "1",
                              "--trace", "1", "--smoke"], capture=True))
    expect(out["correct"] and out["failed"] == 0, "traced profile passes its pins")
    expect(set(out["metrics"]) == per_layer, "traced profile prints every per-layer metric")
    trace_file = work_dir() / "perfbench-out" / "trace-campaign-seed2026.json"
    events = json.loads(trace_file.read_text())["traceEvents"]
    expect(len(events) > 0 and all({"op", "id", "parent"} <= set(e["args"]) for e in events),
           f"trace has {len(events)} spans with op, id and parent ({time.time() - start:.1f} s)")

    out = last_json(run(exe, ["--workload", "ya4-exhaustive", "--seed", "1", "--seconds", "1",
                              "--trace", "0", "--smoke", "--max-states", "1000"], capture=True))
    expect(not out["correct"] and out["failed"] > 0,
           f"max_states below the state count fails ops "
           f"(error rate {out['failed']}/{out['attempted']})")

    if errors:
        fail(f"self-test: {len(errors)} check(s) failed", 1)
    print("self-test: all checks passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the smoke and negative checks instead of a workload")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    exe = build()
    if args.self_test:
        self_test(exe)
        return
    done = run(exe, ["--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(args.trace)])
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
