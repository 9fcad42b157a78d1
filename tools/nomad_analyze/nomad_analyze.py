#!/usr/bin/env python3
"""nomad_analyze: shard-ownership escape analysis for the Nomad simulator.

Usage:
  python3 tools/nomad_analyze/nomad_analyze.py [--root DIR]
      [--backend internal|clang|auto] [--compdb DIR] [--baseline FILE]
      [--update-baseline] [--only NA00x] [--file PATH ...] [--selftest]
      [--list-rules] [--print-ownership]

Checks rules NA001-NA005 over src/, bench/ and tools/ (or the --file
paths), gated by tools/nomad_analyze/baseline.txt. Exit status: 0 clean
or fully baselined, 1 new findings or a stale baseline entry, 2 usage
error, unreadable path or clang failure. The rules and engines live in
tools/nomad_check.
"""

import os
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                                "nomad_check"))
import nomad_check  # noqa: E402

if __name__ == "__main__":
    sys.exit(nomad_check.analyze_main(sys.argv[1:]))
