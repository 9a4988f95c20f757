#!/usr/bin/env python3
"""End-to-end benchmark of the subsidization-competition libraries.

Builds the `perfbench` driver from source (perfbench/CMakeLists.txt pulls in
the library tree; build tree under .bench_build/), then runs one workload:

    python3 perfbench/run.py --workload figure_grid --seed 1 --seconds 10 --trace 0

Workloads: figure_grid, policy_study, serve_replay, agent_sim. With
--trace 0 the last stdout line carries the end-to-end metrics of an untraced
run; with --trace 1 it carries the per-layer metrics of the traced run, whose
spans are written to .bench_build/traces/. Lines before it record the
machine context and the workload's input properties.

Other modes:
    --selftest             traced runs twice per workload (and at jobs 1 and
                           2 on figure_grid and agent_sim); every per-layer
                           count must repeat exactly
    --emit-inputs          print the workload's generated input; for
                           serve_replay a log `subsidy_cli serve` accepts

Run it from anywhere inside a checkout; it reads and writes only there.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
TRACE_DIR = ROOT / ".bench_build" / "traces"
WORKLOADS = ["figure_grid", "policy_study", "serve_replay", "agent_sim"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# Per-layer units whose values are work counts and must repeat exactly.
COUNT_UNITS = {"count", "count/pass", "B"}


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def source_id():
    """The git commit when the checkout has one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                                 capture_output=True, text=True, timeout=30, check=False)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"library sources not found under {ROOT}; nothing to build")
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench", "-j", jobs]
    for attempt in range(2):
        ok = True
        for cmd in (configure, compile_):
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
            if done.returncode != 0:
                ok = False
                break
        if ok:
            return BUILD_DIR / "perfbench"
        if attempt == 0 and BUILD_DIR.exists():
            # A build tree configured for another source path cannot be reused.
            log("build failed; retrying from a clean build tree")
            shutil.rmtree(BUILD_DIR)
    log("build failed")
    return None


def run_driver(exe, args):
    """Runs the driver from the checkout root; returns (exit code, stdout lines)."""
    try:
        done = subprocess.run([str(exe), *args], cwd=ROOT, stdout=subprocess.PIPE, stderr=None,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"driver exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 2, []
    return done.returncode, done.stdout.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def selftest(exe, seed, commit):
    """Every per-layer count repeats exactly across reruns and job counts."""
    failures = 0
    for workload in WORKLOADS:
        variants = [("jobs2-a", 2), ("jobs2-b", 2)]
        if workload in ("figure_grid", "agent_sim"):
            variants.append(("jobs1", 1))
        counts = {}
        for label, jobs in variants:
            code, lines = run_driver(exe, ["--workload", workload, "--seed", str(seed),
                                           "--seconds", "1", "--trace", "1", "--jobs", str(jobs),
                                           "--trace-dir", str(TRACE_DIR), "--commit", commit])
            result = parse_result(lines)
            if code != 0 or result is None or not result["correct"]:
                log(f"selftest {workload} {label}: traced run failed (exit {code})")
                failures += 1
                continue
            counts[label] = {name: m["value"] for name, m in result["metrics"].items()
                             if m["unit"] in COUNT_UNITS}
        labels = list(counts)
        for label in labels[1:]:
            differing = sorted(name for name in counts[labels[0]]
                               if counts[labels[0]][name] != counts[label].get(name))
            if differing:
                failures += 1
                log(f"selftest {workload}: {label} differs from {labels[0]} in {differing}")
        if len(labels) == len(variants):
            nonzero = sum(1 for v in counts[labels[0]].values() if v)
            log(f"selftest {workload}: {len(counts[labels[0]])} counts ({nonzero} non-zero) "
                f"identical across {', '.join(labels)}")
    print(json.dumps({"selftest": "pass" if failures == 0 else "fail", "failures": failures}))
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--emit-inputs", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    exe = build()
    if exe is None:
        return 2
    commit = source_id()
    if args.selftest:
        return selftest(exe, args.seed, commit)

    driver_args = ["--workload", args.workload, "--seed", str(args.seed), "--seconds",
                   str(args.seconds), "--trace", args.trace, "--jobs", str(args.jobs),
                   "--trace-dir", str(TRACE_DIR), "--commit", commit]
    if args.emit_inputs:
        driver_args.append("--emit-inputs")
    code, lines = run_driver(exe, driver_args)
    for line in lines:
        print(line)
    if args.emit_inputs:
        return code
    if code not in (0, 1) or parse_result(lines) is None:
        log(f"driver exited with code {code} and no result")
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
