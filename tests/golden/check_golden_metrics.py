#!/usr/bin/env python3
"""Byte-compare fixed-seed nomadsim metrics against checked-in goldens.

The engine-performance work (struct-of-arrays frames, batched access
execution, cached counter slots, ...) is only allowed to move the wall
clock: the simulated results of a fixed-seed run must not change by a
single byte. This test locks that in. Each golden under tests/golden/ is
the full --metrics_out output of

  nomadsim --policy=<policy> --seed=42 --ops=200000

and the check re-runs the same command and compares bytes. It also runs
each command with --shards=1 against the same golden: a one-shard run of
the runner is the classic run, byte for byte. A diff means
an "optimization" changed simulated behavior (or exporter formatting):
either find the behavioral leak, or - for an intentional model change -
regenerate the goldens with tests/golden/check_golden_metrics.py
--regenerate and explain the change in the commit.

Usage:
  check_golden_metrics.py --nomadsim PATH [--golden-dir DIR] [--regenerate]
"""

import argparse
import os
import subprocess
import sys
import tempfile

POLICIES = ["nomad", "tpp", "memtis-default"]
SEED = 42
OPS = 200000
# Extra flags per run; every variant must reproduce the same golden.
VARIANTS = [[], ["--shards=1"]]


def golden_path(golden_dir, policy):
    return os.path.join(golden_dir, f"metrics_{policy}_seed{SEED}_ops{OPS}.json")


def run_sim(nomadsim, policy, out_path, extra=()):
    cmd = [
        nomadsim,
        f"--policy={policy}",
        f"--seed={SEED}",
        f"--ops={OPS}",
        f"--metrics_out={out_path}",
        *extra,
    ]
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"FAIL: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    if not os.path.exists(out_path) or os.path.getsize(out_path) == 0:
        sys.exit(f"FAIL: {' '.join(cmd)} wrote no metrics")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nomadsim", required=True, help="path to the nomadsim binary")
    parser.add_argument("--golden-dir", default=os.path.dirname(os.path.abspath(__file__)))
    parser.add_argument("--regenerate", action="store_true",
                        help="overwrite the goldens with this build's output")
    args = parser.parse_args()

    failures = []
    for policy in POLICIES:
        golden = golden_path(args.golden_dir, policy)
        if args.regenerate:
            run_sim(args.nomadsim, policy, golden)
            print(f"regenerated {golden}")
            continue
        if not os.path.exists(golden):
            failures.append(f"{policy}: missing golden {golden}")
            continue
        with open(golden, "rb") as f:
            expected = f.read()
        for extra in VARIANTS:
            name = " ".join([policy, *extra])
            with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
                tmp_path = tmp.name
            try:
                run_sim(args.nomadsim, policy, tmp_path, extra)
                with open(tmp_path, "rb") as f:
                    current = f.read()
            finally:
                os.unlink(tmp_path)
            if current == expected:
                print(f"ok   {name}: {len(current)} bytes identical")
            else:
                # Locate the first differing byte for a usable message.
                n = min(len(current), len(expected))
                at = next((i for i in range(n) if current[i] != expected[i]), n)
                failures.append(
                    f"{name}: metrics differ from {golden} at byte {at} "
                    f"(current {len(current)}B, golden {len(expected)}B)")

    if failures:
        for f in failures:
            print("FAIL", f)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
