#!/usr/bin/env python3
"""The repo benchmark: one command, two workloads from the paper's figures.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout. It builds perfbench_driver from
source into .bench_build/perfbench, then runs one driver process per rep.
Both workloads run on the sharded runner, on 4 worker threads:

  * one untimed reference rep, on one worker thread, which keeps the run's
    nomad-metrics-v1 document (every shard's simulated counters, histograms
    and cycle attributions);
  * timed reps until --seconds have passed. With --trace 0 every timed rep
    is untraced and the result holds the end-to-end metrics. With --trace 1
    traced and untraced reps alternate and the result holds the per-layer
    metrics: host self time from the spans the driver records around its
    calls into each module, plus the reference document's counters.

Every rep is checked: ops completed equal ops requested, no OOM and no
unresolved fault, no invariant violation in any machine the rep audits, and
simulated results identical to the reference rep's. The last stdout line is the JSON
result; the exit code is 1 when any check failed. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"

WORKLOADS = ("micro-small-read", "ycsb-thrash-sharded")
DEFAULT_SEED = 42
SHARD_THREADS = 4  # exec_threads of the timed runs in perfbench/workloads.cc
MIN_TIMED_REPS = 5
# Reps still running this long after the build are killed, so that a run
# ends within three minutes even if a rep hangs.
DEADLINE_S = 165

END_TO_END = {
    "run_ops_per_s": "ops/s",
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "sim_ops_per_s": "ops/sim_s",
    "sim_stable_gbps": "GB/s",
    "sim_p99_cycles": "cycles",
}

PER_LAYER = {
    "workload.build_s": "s",
    "harness.sim_build_s": "s",
    "harness.layout_s": "s",
    "harness.shard_setup_s": "s",
    "sim.run_first_half_s": "s",
    "sim.run_second_half_s": "s",
    "sim.shard_run_t1_s": "s",
    "sim.shard_parallel_efficiency": "ratio",
    "sim.shard_host_us_per_epoch": "us",
    "harness.analyze_s": "s",
    "obs.export_s": "s",
    "check.audit_s": "s",
    "bench.tracing_overhead": "ratio",
    "mm.accesses": "count",
    "mm.tlb_shootdowns": "count",
    "mm.migration_block_faults": "count",
    "mm.write_protect_faults": "count",
    "mm.hint_faults": "count",
    "mm.lru_scan_cycles": "cycles",
    "mm.hint_fault_cycles": "cycles",
    "nomad.pcq_hwm": "entries",
    "nomad.pending_hwm": "entries",
    "nomad.pcq_overflows": "count",
    "nomad.pcq_residence_p50": "cycles",
    "nomad.pcq_residence_p99": "cycles",
    "nomad.pcq_wait_cycles": "cycles",
    "nomad.tpm_commits": "count",
    "nomad.tpm_aborts": "count",
    "nomad.tpm_commit_ratio": "ratio",
    "nomad.tpm_backoffs": "count",
    "nomad.tpm_giveups": "count",
    "nomad.migration_latency_p50": "cycles",
    "nomad.migration_latency_p99": "cycles",
    "nomad.hot_to_promoted_p50": "cycles",
    "nomad.tpm_copy_cycles": "cycles",
    "nomad.tpm_shootdown_cycles": "cycles",
    "nomad.remap_demotions": "count",
    "nomad.copy_demotions": "count",
    "nomad.shadow_reuse_ratio": "ratio",
    "nomad.shadow_faults": "count",
    "nomad.shadow_discards": "count",
    "nomad.shadow_pages": "pages",
    "nomad.shadow_reclaim_cycles": "cycles",
    "mm.sync_demotions": "count",
    "mm.kswapd_cycles": "cycles",
    "mm.kswapd_reclaim_cycles": "cycles",
    "mm.sync_migrate_cycles": "cycles",
    "mm.fast_used_frames": "frames",
    "nomad.promote_wait_nomem": "count",
    "sim.shard_epochs": "count",
    "sim.shard_messages": "count",
    "obs.trace_emitted": "count",
    "obs.trace_dropped": "count",
    "obs.ping_pong_pages": "pages",
    "obs.redirty_rate": "ratio",
    "mm.unresolved_faults": "count",
    "mm.oom": "count",
    "check.violations": "count",
}

# Leaf spans whose self time is reported as-is: metric -> span name.
SPAN_METRICS = {
    "workload.build_s": "workload.build",
    "harness.sim_build_s": "harness.sim_build",
    "harness.layout_s": "harness.layout",
    "harness.shard_setup_s": "harness.shard_setup",
    "sim.run_first_half_s": "sim.run_first_half",
    "sim.run_second_half_s": "sim.run_second_half",
    "harness.analyze_s": "harness.analyze",
    "obs.export_s": "obs.export",
    "check.audit_s": "check.audit",
}


# ---------- statistics ----------

def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    values = list(values)
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def median(values):
    return quartiles(values)[1]


def ratio(num, den):
    """num / den, reading 0 over an empty base (nothing attempted)."""
    return num / den if den else 0.0


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover.

    `spans` are dicts with start_ns, end_ns and parent (an index into the
    same list, or -1). Children may overlap each other; covered time is the
    union of their intervals, clipped to the parent's.
    """
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children[s["parent"]].append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s["start_ns"], s["end_ns"]
        covered = 0
        cursor = start
        for a, b in sorted((spans[c]["start_ns"], spans[c]["end_ns"]) for c in children[i]):
            a, b = max(a, cursor), min(b, end)
            if b > a:
                covered += b - a
                cursor = b
        out.append(end - start - covered)
    return out


# ---------- build and reps ----------

def build():
    """Configures and builds perfbench_driver; False when that fails."""
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = (
        ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(BUILD), "--target", "perfbench_driver", "-j", jobs],
    )
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def run_rep(workload, seed, deadline, traced=False, reference=False):
    """Runs one driver process; returns its record, or None if it failed."""
    cmd = [str(DRIVER), "--workload=" + workload, "--seed=%d" % seed]
    tmp = None
    if traced:
        cmd.append("--traced")
    if reference:
        cmd.append("--reference")
        tmp = BUILD / ("reference-%s-%d-%d.json" % (workload, seed, os.getpid()))
        cmd.append("--metrics_tmp=" + str(tmp))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: rep timed out: %s\n" % " ".join(cmd))
        return None
    finally:
        if tmp is not None and tmp.exists():
            tmp.unlink()
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
    except ValueError:
        pass
    sys.stderr.write(proc.stderr[-4000:])
    sys.stderr.write("perfbench: rep exited %d: %s\n" % (proc.returncode, " ".join(cmd)))
    return None


def rep_problems(rep, ref):
    problems = list(rep["errors"])
    if rep["ops_done"] != rep["ops_requested"]:
        problems.append("completed %d of %d ops" % (rep["ops_done"], rep["ops_requested"]))
    if rep["oom"] or rep["unresolved_faults"]:
        problems.append("%d OOMs, %d unresolved faults" % (rep["oom"], rep["unresolved_faults"]))
    if rep["digest"] != ref["digest"]:
        problems.append("simulated results differ from the reference rep's")
    return problems


# ---------- metrics ----------

def doc_metrics(doc):
    """Simulated per-layer metrics from a nomad-metrics-v1 document.

    Counts and cycles sum over the document's runs (one per shard); high-
    water marks and percentiles take the worst run.
    """
    runs = doc["runs"]

    def total(get):
        return sum(get(r) for r in runs)

    def worst(get):
        return max(get(r) for r in runs)

    def counter(name):
        return total(lambda r: r["counters"].get(name, 0))

    def prof(node):
        return total(lambda r: r["profile"]["nodes"].get(node, {}).get("self", 0))

    def hist(name, q):
        return worst(lambda r: r["histograms"].get(name, {}).get(q, 0))

    def tpm(key):
        return total(lambda r: r.get("tpm", {}).get(key, 0))

    def degr(key):
        return [r.get("degradation", {}).get(key, 0) for r in runs]

    commits, aborts = tpm("commits"), tpm("aborts")
    remaps, copies = counter("nomad.demote_remap"), counter("nomad.demote_copy")
    return {
        "mm.accesses": total(lambda r: r["latency"]["count"]),
        "mm.tlb_shootdowns": counter("tlb.shootdown"),
        "mm.migration_block_faults": counter("fault.migration_block"),
        "mm.write_protect_faults": counter("fault.write_protect"),
        "mm.hint_faults": counter("fault.hint"),
        "mm.lru_scan_cycles": prof("lru_scan"),
        "mm.hint_fault_cycles": prof("hint_fault"),
        "nomad.pcq_hwm": max(degr("pcq_hwm")),
        "nomad.pending_hwm": max(degr("pending_hwm")),
        "nomad.pcq_overflows": sum(degr("pcq_overflows")),
        "nomad.pcq_residence_p50": hist("pcq.residence", "p50"),
        "nomad.pcq_residence_p99": hist("pcq.residence", "p99"),
        "nomad.pcq_wait_cycles": prof("pcq_wait"),
        "nomad.tpm_commits": commits,
        "nomad.tpm_aborts": aborts,
        "nomad.tpm_commit_ratio": ratio(commits, commits + aborts),
        "nomad.tpm_backoffs": sum(degr("backoffs")),
        "nomad.tpm_giveups": sum(degr("giveups")),
        "nomad.migration_latency_p50": hist("migration.latency", "p50"),
        "nomad.migration_latency_p99": hist("migration.latency", "p99"),
        "nomad.hot_to_promoted_p50": hist("promotion.hot_to_promoted", "p50"),
        "nomad.tpm_copy_cycles": prof("tpm_copy"),
        "nomad.tpm_shootdown_cycles": prof("tpm_shootdown_1") + prof("tpm_shootdown_2"),
        "nomad.remap_demotions": remaps,
        "nomad.copy_demotions": copies,
        "nomad.shadow_reuse_ratio": ratio(remaps, remaps + copies),
        "nomad.shadow_faults": counter("nomad.shadow_fault"),
        "nomad.shadow_discards": counter("nomad.shadow_discard"),
        "nomad.shadow_pages": tpm("shadow_pages"),
        "nomad.shadow_reclaim_cycles": prof("shadow_reclaim"),
        "mm.sync_demotions": counter("migrate.sync_demote"),
        "mm.kswapd_cycles": counter("kswapd.cycles"),
        "mm.kswapd_reclaim_cycles": prof("kswapd_reclaim"),
        "mm.sync_migrate_cycles": prof("sync_migrate"),
        "nomad.promote_wait_nomem": counter("nomad.promote_wait_nomem"),
        "obs.trace_emitted": total(lambda r: r["trace"]["emitted"]),
        "obs.trace_dropped": total(lambda r: r["trace"]["dropped"]),
        "obs.ping_pong_pages": total(lambda r: r["provenance"]["ping_pong_pages"]),
        "obs.redirty_rate": ratio(total(lambda r: r["provenance"]["redirty_events"]),
                                  total(lambda r: r["provenance"]["promotions"])),
        "mm.unresolved_faults": counter("fault.unresolved"),
        "mm.oom": counter("oom"),
    }


def end_to_end_metrics(reps, ref):
    """Host times are medians over the run's timed reps; every rep does the
    same ops, so throughput is one rep's ops over the median run time."""
    runs = ref["metrics"]["runs"]
    return {
        "run_ops_per_s": ref["ops_requested"] / median(r["run_ns"] / 1e9 for r in reps),
        "setup_s": median(r["setup_ns"] / 1e9 for r in reps),
        "wall_s": median(r["wall_ns"] / 1e9 for r in reps),
        "peak_rss_mb": median(r["peak_rss_kb"] / 1024 for r in reps),
        "sim_ops_per_s": ref["sim_ops_per_s"],
        "sim_stable_gbps": sum(r["report"]["stable_gbps"] for r in runs),
        "sim_p99_cycles": max(r["report"]["p99_latency_cycles"] for r in runs),
    }


def traced_metrics(traced, untraced):
    """Per-layer metrics from the traced reps: span self times, the sharded
    runner's epochs and messages, and the fast-tier frames and violations
    of the classic-engine machine that only traced reps run and audit."""
    out = {}
    per_rep = []
    for rep in traced:
        selfs = self_times(rep["spans"])
        per_rep.append({s["name"]: (s["end_ns"] - s["start_ns"], own)
                        for s, own in zip(rep["spans"], selfs)})
    for metric, span in SPAN_METRICS.items():
        out[metric] = median(r[span][1] / 1e9 for r in per_rep)
    # The full sharded calls build the shards too; subtract the setup-only call.
    run_t1 = median((r["sim.shard_run_t1"][0] - r["harness.shard_setup"][0]) / 1e9
                    for r in per_rep)
    run_tn = median((r["sim.shard_run"][0] - r["harness.shard_setup"][0]) / 1e9
                    for r in per_rep)
    out["sim.shard_run_t1_s"] = run_t1
    out["sim.shard_parallel_efficiency"] = ratio(run_t1, SHARD_THREADS * run_tn)
    out["sim.shard_host_us_per_epoch"] = ratio(run_tn * 1e6, traced[0]["epochs"])
    out["sim.shard_epochs"] = traced[0]["epochs"]
    out["sim.shard_messages"] = traced[0]["messages"]
    out["mm.fast_used_frames"] = traced[0]["fast_used_frames"]
    out["check.violations"] = max(r["violations"] for r in traced)
    out["bench.tracing_overhead"] = (median(r["wall_ns"] for r in traced)
                                     / median(r["wall_ns"] for r in untraced) - 1)
    return out


def write_records(workload, seed, trace, reps):
    """Writes the timed reps and their spans, with self times, for inspection."""
    spans = []
    for rep_id, rep in enumerate(reps, start=1):
        for i, (s, own) in enumerate(zip(rep["spans"], self_times(rep["spans"]))):
            spans.append(dict(s, rep=rep_id, id=i, self_ns=own))
    path = BUILD / ("reps-%s-%d-trace%d.json" % (workload, seed, trace))
    path.write_text(json.dumps({"reps": [dict(r, spans=None) for r in reps],
                                "spans": spans}) + "\n")
    return path


def fmt(v):
    return "%.6g" % v if isinstance(v, float) else str(v)


# ---------- main ----------

def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    seed = args.seed % (1 << 64)

    if not build():
        return 1
    deadline = time.monotonic() + DEADLINE_S
    ref = run_rep(args.workload, seed, deadline, reference=True)
    if ref is None or ref.get("metrics") is None:
        sys.stderr.write("perfbench: the reference rep failed\n")
        return 1

    started = time.monotonic()
    reps, lost = [], 0
    while True:
        traced = args.trace == 1 and len(reps) % 2 == 1
        rep = run_rep(args.workload, seed, deadline, traced=traced)
        if rep is None:
            lost += 1
        else:
            reps.append(rep)
        elapsed = time.monotonic() - started
        if (elapsed >= args.seconds and len(reps) >= MIN_TIMED_REPS or lost > 2
                or time.monotonic() > deadline):
            break

    problems = rep_problems(ref, ref)
    doc = doc_metrics(ref["metrics"])
    if doc["mm.unresolved_faults"] or doc["mm.oom"]:
        problems.append("the reference run has unresolved faults or OOMs")
    attempted = ref["ops_requested"] * (1 + len(reps) + lost)
    failed = ref["ops_requested"] * lost
    failed += ref["ops_requested"] if problems else 0
    first_traced = next((r for r in reps if r["traced"]), None)
    for rep in reps:
        rep_bad = rep_problems(rep, ref)
        if rep["traced"] and rep["aux_digest"] != first_traced["aux_digest"]:
            rep_bad.append("the traced-only runs differ between traced reps")
        failed += rep["ops_requested"] if rep_bad else 0
        problems += rep_bad
    correct = not problems and failed == 0

    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    if args.trace == 0:
        metrics, units = end_to_end_metrics(untraced, ref), END_TO_END
    else:
        metrics, units = traced_metrics(traced, untraced), PER_LAYER
        metrics.update(doc)

    print("perfbench %s seed=%d trace=%d: %d timed reps (%d traced) in %.1f s, digest %s"
          % (args.workload, seed, args.trace, len(reps), len(traced),
             time.monotonic() - started, ref["doc_digest"]))
    print("  reps and spans written to %s"
          % write_records(args.workload, seed, args.trace, reps).relative_to(ROOT))
    if args.trace == 0:
        for name, get in (("run_s", lambda r: r["run_ns"] / 1e9),
                          ("setup_s", lambda r: r["setup_ns"] / 1e9),
                          ("wall_s", lambda r: r["wall_ns"] / 1e9)):
            values = [get(r) for r in untraced]
            q1, med, q3 = quartiles(values)
            print("  per rep %-8s mean %.4f s  median %.4f  q1 %.4f  q3 %.4f  (n=%d)"
                  % (name, statistics.mean(values), med, q1, q3, len(values)))
    for name in units:
        print("  %-32s %14s %s" % (name, fmt(metrics[name]), units[name]))
    print("  error_rate %s (%d of %d ops failed)" % (fmt(ratio(failed, attempted)), failed,
                                                     attempted))
    for problem in problems[:10]:
        print("  FAILED: %s" % problem)

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
