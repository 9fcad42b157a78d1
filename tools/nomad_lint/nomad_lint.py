#!/usr/bin/env python3
"""nomad_lint: repo-specific token/AST lint for the NOMAD simulator.

Usage:
  python3 tools/nomad_lint/nomad_lint.py [--root=DIR] [--backend=auto|token|clang]
                                         [--compdb=build] [--selftest]
                                         [--list-rules] [files...]

Checks rules NL001-NL012 over src/, bench/ and tools/ (or the files
given). Exit status: 0 clean, 1 findings, 2 usage error, unreadable path
or clang failure. The rules and engines live in tools/nomad_check.
"""

import os
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                                "nomad_check"))
import nomad_check  # noqa: E402

if __name__ == "__main__":
    sys.exit(nomad_check.lint_main(sys.argv[1:]))
