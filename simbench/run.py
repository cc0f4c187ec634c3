#!/usr/bin/env python3
"""Builds and runs the HATRIC simulator throughput benchmark.

Run from the root of a checkout:

    python3 simbench/run.py --workload host_v32 --seed 1 --seconds 10 --trace 0

builds simbench/ (a Cargo package of its own, with path dependencies on the
repository's crates) in release mode into $CARGO_TARGET_DIR, default
.bench_build/, then runs one workload.  Standard output ends with the result
line: a JSON object with `correct`, `attempted`, `failed` and `metrics`.
With `--trace 1` the spans are written to
.bench_out/trace_<workload>_seed<n>.jsonl.

    python3 simbench/run.py --workload host_v32 --seed 1 --seconds 10 --steady 10

runs the workload untraced with seeds 1..10 and prints, for every
end-to-end metric, calibrated and raw, the median, quartiles, minimum and
maximum, and the interquartile spread as a share of the median.

Exit status: the benchmark's own (0 when every output check passed, 1 when
one failed), or 2 when the benchmark cannot be built or run.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("host_v32", "serial_sw", "fleet_migrate")


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=False)
    except OSError as e:
        print(f"run.py: cannot run cargo: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return None
    return os.path.join(target, "release", "simbench")


def commit_id():
    """The git commit of the checkout, or a hash of its sources when the
    checkout is not a git repository."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    skip = {"target", ".bench_build", ".bench_out", ".git"}
    for top in ("Cargo.toml", "crates", "stubs", "simbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d not in skip)
            files += [os.path.join(dirpath, f) for f in sorted(filenames)
                      if f.endswith((".rs", ".toml", ".py"))]
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "src-sha256-" + digest.hexdigest()[:16]


def run_once(binary, workload, seed, seconds, trace, commit, capture):
    """Runs the binary once; returns (exit code, stdout or None)."""
    cmd = [
        binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--commit", commit,
    ]
    if trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(out_dir, f"trace_{workload}_seed{seed}.jsonl")]
    done = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.PIPE if capture else None, text=True, check=False
    )
    return done.returncode, done.stdout


def steadiness(binary, args, commit):
    """Runs `args.steady` seeds untraced and prints the spread table."""
    rows = {}
    context = None
    for seed in range(args.seed, args.seed + args.steady):
        code, out = run_once(binary, args.workload, seed, args.seconds, 0, commit, True)
        lines = [l for l in out.splitlines() if l.startswith("{")]
        if code != 0 or len(lines) < 2:
            print(f"run.py: seed {seed} failed (exit {code})", file=sys.stderr)
            return code or 2
        context = json.loads(lines[-2])["context"]
        result = json.loads(lines[-1])
        for name, m in result["metrics"].items():
            rows.setdefault((name, "calibrated", m["unit"]), []).append(m["value"])
        rows.setdefault(("accesses_per_s", "raw", "1/s"), []).append(context["raw_accesses_per_s"])
        rows.setdefault(("setup_s", "raw", "s"), []).append(context["raw_setup_s"])
    print(f"workload={args.workload} runs={args.steady} seeds={args.seed}..{args.seed + args.steady - 1} "
          f"seconds={args.seconds} nproc={context['nproc']} threads={context['threads']} "
          f"commit={context['commit']}")
    print(f"| metric | kind | unit | median | q1 | q3 | min | max | (q3-q1)/median |")
    print("|---|---|---|---|---|---|---|---|---|")
    for (name, kind, unit), values in sorted(rows.items()):
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"| {name} | {kind} | {unit} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
              f"{min(values):.6g} | {max(values):.6g} | {spread:.2%} |")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0,
                        help="run this many seeds and print the spread table")
    args = parser.parse_args()
    binary = build()
    if binary is None:
        return 2
    commit = commit_id()
    if args.steady:
        return steadiness(binary, args, commit)
    code, _ = run_once(binary, args.workload, args.seed, args.seconds, args.trace, commit, False)
    return code


if __name__ == "__main__":
    sys.exit(main())
