#!/bin/sh
# Build, test and regenerate every paper table/figure.
set -eu
cd "$(dirname "$0")/.."

# On a fresh configure, prefer Ninja when available; an existing build tree
# keeps whatever generator it was configured with.
if [ ! -f build/CMakeCache.txt ] && command -v ninja > /dev/null 2>&1; then
  cmake -B build -G Ninja
else
  cmake -B build
fi
cmake --build build -j "$(nproc 2> /dev/null || echo 2)"
ctest --test-dir build 2>&1 | tee test_output.txt
# Benches that export nomad-metrics-v1 also get metrics + collapsed-stack
# profiles under artifacts/ (feed the .folded files to a flamegraph tool,
# and metrics/trace JSON to tools/trace_query).
mkdir -p artifacts
for b in build/bench/*; do
  [ -x "$b" ] && [ ! -d "$b" ] && case "$b" in *.a) continue;; esac || continue
  name="$(basename "$b")"
  echo "##### $name"
  case "$name" in
    ablation_pcq | ablation_shadowing | fig01_tpp_motivation | fig10_pointer_chase | \
      fig11_redis_ycsb | table2_migration_counts | table4_tpm_success)
      "$b" --metrics_out="artifacts/$name.json" --profile_out="artifacts/$name.folded" ;;
    *) "$b" ;;
  esac
done 2>&1 | tee bench_output.txt
