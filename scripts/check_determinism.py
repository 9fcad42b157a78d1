#!/usr/bin/env python3
"""Determinism gate: run a benchmark twice, byte-compare its metrics.

The simulator's contract is bit-reproducibility: same binary, same seed,
same metrics. This script runs the given bench command twice with
--metrics_out pointing at two files and compares the parsed JSON after
dropping volatile keys (none exist today — metrics.json carries virtual
time only — but the ignore list keeps the gate honest if an environment
field is ever added).

  scripts/check_determinism.py ./build/bench/ablation_shadowing
  scripts/check_determinism.py --ignore=hostname ./build/bench/micro ...

With --threads-compare=1,4 the command additionally runs once per listed
worker-thread count (appending --threads=N) and every run's metrics must be
byte-identical to the first: the sharded parallel engine's contract is that
OS thread assignment never leaks into simulation results
(src/harness/sharded_sim.h).

  scripts/check_determinism.py --threads-compare=1,4 \
      ./build/tools/nomadsim --policy=nomad --shards=4 --ops=400000

Exit status: 0 identical, 1 diverged, 2 usage/run error.
"""

import json
import subprocess
import sys
import tempfile
import os

DEFAULT_IGNORE = ()  # metrics.json has no wall-clock or host fields


def scrub(node, ignore):
    if isinstance(node, dict):
        return {k: scrub(v, ignore) for k, v in sorted(node.items()) if k not in ignore}
    if isinstance(node, list):
        return [scrub(v, ignore) for v in node]
    return node


def run_once(cmd, out_path):
    full = cmd + ["--metrics_out=%s" % out_path]
    proc = subprocess.run(full, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode("utf-8", "replace"))
        sys.stderr.write("check_determinism: command failed: %s\n" % " ".join(full))
        sys.exit(2)
    with open(out_path, "r", encoding="utf-8") as fh:
        return fh.read()


def first_divergence(a, b):
    for i, (x, y) in enumerate(zip(a.splitlines(), b.splitlines())):
        if x != y:
            return i + 1, x, y
    return None


def compare_thread_counts(cmd, counts, tmp):
    """Byte-compare metrics across worker-thread counts; 0 ok, 1 diverged."""
    runs = []
    for n in counts:
        out = os.path.join(tmp, "threads_%s.json" % n)
        runs.append((n, run_once(cmd + ["--threads=%s" % n], out)))
    base_n, base_raw = runs[0]
    for n, raw in runs[1:]:
        if raw != base_raw:
            div = first_divergence(base_raw, raw)
            sys.stderr.write(
                "determinism: FAILED — --threads=%s diverged from --threads=%s\n"
                % (n, base_n))
            if div:
                sys.stderr.write(
                    "  first differing line %d:\n  threads=%s: %s\n  threads=%s: %s\n"
                    % (div[0], base_n, div[1], n, div[2]))
            return 1
    print("determinism: OK across --threads={%s} (byte-identical metrics, %d bytes)"
          % (",".join(counts), len(base_raw)))
    return 0


def main(argv):
    ignore = set(DEFAULT_IGNORE)
    thread_counts = []
    cmd = []
    for arg in argv[1:]:
        if arg.startswith("--ignore="):
            ignore.update(arg.split("=", 1)[1].split(","))
        elif arg.startswith("--threads-compare="):
            thread_counts = [t for t in arg.split("=", 1)[1].split(",") if t]
        else:
            cmd.append(arg)
    if not cmd:
        sys.stderr.write(__doc__)
        return 2

    with tempfile.TemporaryDirectory() as tmp:
        if thread_counts:
            rc = compare_thread_counts(cmd, thread_counts, tmp)
            if rc != 0:
                return rc

        a_path = os.path.join(tmp, "run_a.json")
        b_path = os.path.join(tmp, "run_b.json")
        raw_a = run_once(cmd, a_path)
        raw_b = run_once(cmd, b_path)

        if raw_a == raw_b:
            print("determinism: OK (byte-identical metrics, %d bytes)" % len(raw_a))
            return 0

        # Bytes differ; see whether it is real data divergence or only a
        # volatile key the caller asked to ignore.
        try:
            norm_a = json.dumps(scrub(json.loads(raw_a), ignore), indent=1)
            norm_b = json.dumps(scrub(json.loads(raw_b), ignore), indent=1)
        except ValueError as e:
            sys.stderr.write("check_determinism: metrics are not valid JSON: %s\n" % e)
            return 2
        if norm_a == norm_b:
            print("determinism: OK modulo ignored keys (%s)" % ",".join(sorted(ignore)))
            return 0

        div = first_divergence(norm_a, norm_b)
        sys.stderr.write("determinism: FAILED — two runs of the same command diverged\n")
        if div:
            sys.stderr.write("  first differing line %d:\n  run A: %s\n  run B: %s\n" % div)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
