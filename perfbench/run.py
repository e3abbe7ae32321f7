#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tonic-open --seed 1 --seconds 20 --trace 0

The workloads (rates, mix, ladder, limits) are the table in
perfbench/src/main.rs. The last line of stdout is the result object; see
perfbench/README.md for what each metric means.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def source_digest():
    """SHA-256 over the sources the benchmark builds, for provenance."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, "crates"), os.path.join(ROOT, "vendor"), HERE]
    files = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for top in roots:
        for d, dirs, names in os.walk(top):
            dirs[:] = sorted(x for x in dirs if x not in ("target", ".bench_build"))
            files += [os.path.join(d, n) for n in names
                      if n.endswith((".rs", ".toml", ".lock", ".json", ".py"))]
    for f in sorted(files):
        if os.path.isfile(f):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        sys.exit("benchmark build failed")

    # Provenance the binary cannot see; it prints the host and run facts.
    print("# provenance {\"commit\": \"%s\", \"source_digest\": \"%s\"}"
          % (commit(), source_digest()))
    cmd = [os.path.join(target, "release", "perfbench"), "run",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    sys.stdout.flush()
    try:
        run = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
