"""nomad_check: the static analyzer behind nomad_lint and nomad_analyze.

One source model serves two rule sets, each with its own CLI (see DESIGN.md
"Verification tooling" for the rationale and what each rule has caught):

  tools/nomad_lint/nomad_lint.py        NL001-NL012, token rules per line
                                        or per class; the clang backend
                                        re-checks NL001/NL005 on the AST.
  tools/nomad_analyze/nomad_analyze.py  NA001-NA005, shard-ownership escape
                                        analysis over the whole tree, gated
                                        by a justified baseline; the clang
                                        backend cross-checks the ownership
                                        markers against the AST.

nomad_lint rules:

  NL001 pte-mutation      PTE/flag-bit mutation only inside the mechanism
                          layers (src/mm/, src/nomad/, src/trace/); policy,
                          harness, and tooling code must go through the
                          page_table/frame_pool/MemorySystem APIs.
  NL002 bare-assert       no bare assert(); structural invariants use
                          NOMAD_CHECK, which survives release builds.
  NL003 determinism       no std::rand / srand / random_device / mt19937 /
                          wall-clock sources; simulations draw from the
                          explicitly seeded nomad::Rng only.
  NL004 name-literal      no string literals at counters().Add/.Get or
                          histogram .Record() call sites in src/, and no
                          profiler nodes conjured from integer literals;
                          names come from the cnt::/hist::/ProfNode
                          registries (src/obs/event_registry.h).
  NL005 naked-new         no naked new/delete in src/; ownership is
                          std::unique_ptr / containers.
  NL006 include-guard     header guards spell the repo-relative path
                          (SRC_MM_PTE_H_ for src/mm/pte.h).
  NL007 io-in-core        no <iostream>/<fstream> outside the harness; core
                          layers report via counters, traces, and return
                          values.
  NL008 shard-ownership   a barrier (std::barrier) and cross-shard
                          `shards[i]` mutation are confined to the sharded
                          runtime (SHARD_RUNTIME_FILES); anything else would
                          reach across shards or into their epoch
                          schedules.
  NL009 frame-flags       frame metadata is a packed flags word (src/mm/
                          page.h); outside src/mm it may only be touched
                          through the PageFrame accessors. A raw bitmask
                          write would clobber neighboring bit fields (LRU
                          list id, TPM abort count).
  NL010 silent-degrade    every degrading admission decision (returning or
                          assigning AdmissionVerdict kDefer/kReject/
                          kDowngradeSync) must emit a registry-named
                          counter or trace - or call RecordVerdict, which
                          does both - within 10 lines: shedding that leaves
                          no metric behind looks like a hang in a soak.
  NL011 unannotated-sync  any class in src/ holding a mutex/condition
                          variable/atomic member (or the Mutex wrapper) or
                          a std::barrier member must carry a thread-safety
                          annotation (src/base/annotations.h) somewhere in
                          its span; src/base/ itself (the vocabulary) is
                          exempt.
  NL012 timeline-channel  no complete string literal at Timeline .Channel()
                          call sites; gauge names come from the tl::
                          constants. A "cnt."/"hist." prefix literal plus a
                          registry name ("cnt." + name) stays legal.

nomad_analyze rules close an ownership map of shard-confined types - seeded
by the NOMAD_SHARD_CONFINED marker (src/base/annotations.h) and the Sim
root, then closed over the member object graph - and report:

  NA001  pointer/reference to confined state smuggled into a ShardMsg
         payload (reinterpret_cast / C-cast of an address into the integer
         arguments of ShardRouter::Send / Stage or a ShardMsg initializer);
         both are gone with the router, so the rule's subject no longer
         exists in the tree
  NA002  by-reference lambda capture crossing a thread seam (std::thread,
         std::async, a thread-pool emplace, or a shard_setup assignment)
         outside the shard runtime
  NA003  pointer/reference to a shard-confined type in static or
         namespace-scope storage
  NA004  cross-shard object access (`sims[i]->`, `shards[i].`) outside the
         shard runtime's epoch/setup/merge entry points
  NA005  nondeterminism source reachable from simulation code via the call
         graph - the call-graph upgrade of NL003, over the same sink table

Analyzer findings are suppressed through a baseline file (default
tools/nomad_analyze/baseline.txt) of `rule|path|fingerprint` lines, where
the fingerprint hashes the finding's normalized source line so entries
survive unrelated line drift. Every entry must carry a justification
comment; --update-baseline regenerates the file with TODO placeholders,
and refuses a partial run (--only or --file), which would drop the entries
outside its scope. A partial run checks only the baseline entries of the
rule and files it covered, so none outside them reads as stale.

Engines. The token engine (nomad_lint --backend=token, nomad_analyze
--backend=internal) is pure Python and runs anywhere. When the libclang
bindings are importable (python3-clang), --backend=clang adds the AST
checks over build/compile_commands.json. It is strict: missing bindings,
an unloadable compilation database, or a translation unit that fails to
parse exits 2 instead of silently degrading to token-only coverage.
--backend=auto uses clang when the bindings import, the token engine
otherwise.

Exit status, both CLIs: 0 clean (or fully baselined), 1 findings, 2 usage
error, unreadable path or clang failure.
"""

import argparse
import contextlib
import hashlib
import io
import os
import re
import sys
import tempfile

# --------------------------------------------------------------------------
# Source model


RAW_STRING_RE = re.compile(r'"([^()\\ ]{0,16})\(')  # the `"delim(` after an R


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literal contents, preserving line
    breaks and quote marks (NL004 and NL012 match on the quotes).

    Keeps every character position stable (replaced with spaces) so finding
    offsets map straight back to the original file.
    """
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char | raw
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                m = RAW_STRING_RE.match(text, i) if i > 0 and text[i - 1] == "R" else None
                if m:
                    raw_delim = ")" + m.group(1) + '"'
                    state = "raw"
                    out.append(" " * (m.end() - i))
                    i = m.end()
                    continue
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                # A quote inside a number is a C++14 digit separator
                # (`10'000`), not a char literal: the token started with a
                # digit.
                j = i
                while j > 0 and (text[j - 1].isalnum() or text[j - 1] in "_.'"):
                    j -= 1
                if j < i and text[j].isdigit() and nxt.isalnum():
                    out.append(c)
                    i += 1
                    continue
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
            i += 1
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append(" \n" if nxt == "\n" else "  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(quote)
                i += 1
                continue
            out.append("\n" if c == "\n" else " ")
            i += 1
        elif state == "raw":
            if text.startswith(raw_delim, i):
                state = "code"
                out.append(" " * len(raw_delim))
                i += len(raw_delim)
                continue
            out.append("\n" if c == "\n" else " ")
            i += 1
    return "".join(out)


class SourceFile:
    def __init__(self, path, rel, text):
        self.path = path
        self.rel = rel.replace(os.sep, "/")
        self.text = text
        self.code = strip_comments_and_strings(text)
        self.lines = self.code.split("\n")
        self.raw_lines = text.split("\n")

    def line_of(self, offset):
        return self.code.count("\n", 0, offset) + 1


class Finding:
    def __init__(self, rule, rel, line, message, snippet=""):
        self.rule = rule
        self.rel = rel
        self.line = line  # 1-based
        self.message = message
        self.snippet = snippet.strip()

    def __str__(self):  # nomad_lint's report line
        return "%s:%d: %s: %s" % (self.rel, self.line, self.rule, self.message)

    def report_line(self):  # nomad_analyze's
        return "%s:%d: [%s] %s\n    %s\n    repro: nomad_analyze.py --only %s --file %s" % (
            self.rel, self.line, self.rule, self.message, self.snippet, self.rule, self.rel)

    def baseline_key(self):
        """rule|path|fingerprint; the fingerprint hashes the normalized
        source line, so an entry survives unrelated line drift."""
        norm = re.sub(r"\s+", " ", self.snippet)
        h = hashlib.sha1(("%s|%s|%s" % (self.rule, self.rel, norm)).encode()).hexdigest()
        return (self.rule, self.rel, h[:12])


def match_end(text, open_idx, open_ch="{", close_ch="}"):
    """One past the bracket that closes text[open_idx], or len(text) if
    unbalanced."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


CLASS_RE = re.compile(r"\b(?:class|struct)\s+(?:NOMAD_SHARD_CONFINED\s+)?"
                      r"([A-Za-z_]\w*)\s*(?::[^;{]*)?\{")


def class_spans(f):
    """(name, start, open brace offset, body) per class/struct definition;
    the head runs from start to the brace, the body through its match."""
    for m in CLASS_RE.finditer(f.code):
        open_idx = m.end() - 1
        yield m.group(1), m.start(), open_idx, f.code[open_idx:match_end(f.code, open_idx)]


def in_dirs(rel, dirs):
    return any(rel.startswith(d) for d in dirs)


# --------------------------------------------------------------------------
# Tree walk


SCOPE_DIRS = ("src", "bench", "tools")


def load_files(tool, root, paths=None):
    """SourceFiles for `paths` (relative to root, or absolute), or for every
    .h/.cc under src/, bench/ and tools/. Exits 2 on a path it cannot read,
    a missing scope directory included: a file the tool cannot see is a
    file it cannot vouch for."""
    if not paths:
        paths = []
        for scope in SCOPE_DIRS:
            for dirpath, _, names in os.walk(os.path.join(root, scope)):
                paths.extend(os.path.join(dirpath, n) for n in names if n.endswith((".h", ".cc")))
        # A scope directory that does not exist fails to open below.
        paths = sorted(paths) + [s for s in SCOPE_DIRS if not os.path.isdir(os.path.join(root, s))]
    files = []
    for p in paths:
        full = os.path.join(root, p)
        try:
            with open(full, encoding="utf-8", errors="replace") as fh:
                files.append(SourceFile(full, os.path.relpath(full, root), fh.read()))
        except OSError as e:
            print("%s: cannot read %s: %s" % (tool, p, e), file=sys.stderr)
            sys.exit(2)
    return files


# --------------------------------------------------------------------------
# Shared constants

# Files that ARE the shard runtime: the runner forks one worker per shard
# group and joins them, so thread spawns (NA002), shards[s] indexing (NA004)
# and a barrier (NL008) inside them are the mechanism, not a violation.
SHARD_RUNTIME_FILES = (
    "src/harness/sharded_sim.h",
    "src/harness/sharded_sim.cc",
)

# Wall-clock / OS-randomness sinks: NL003 flags a line that matches one,
# NA005 a sim function that reaches one. The sim's virtual clock methods
# (Engine::now, Clock) do not match.
NONDET_SINKS = [
    (re.compile(r"\bstd\s*::\s*rand\b|\bsrand\s*\(|(?<![\w:.])rand\s*\(\s*\)"),
     "libc rand()/srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bmt19937(_64)?\b"), "std::mt19937"),
    (re.compile(r"(?:system|steady|high_resolution)_clock\b"), "std::chrono wall clock"),
    (re.compile(r"\bgettimeofday\b|\bclock_gettime\b"), "gettimeofday()/clock_gettime()"),
    (re.compile(r"\btime\s*\(\s*(NULL|nullptr|0)?\s*\)"), "time()"),
]


def run_rules(files, rules, ctx=None):
    """Every per-file rule over every file. A rule's check(f, ctx) yields
    (line, message); the finding's snippet is that source line."""
    findings = []
    for f in files:
        for rule, _, check in rules:
            for line, message in check(f, ctx):
                findings.append(Finding(rule, f.rel, line, message, f.raw_lines[line - 1]))
    return findings


# --------------------------------------------------------------------------
# nomad_lint token rules


def line_rule(dirs, exempt, patterns):
    """A check over the lines of files under `dirs` and not under `exempt`:
    one finding per line, for the first (regex, message) that matches. The
    message may name the match's groups (\\1)."""
    def check(f, _ctx):
        if not in_dirs(f.rel, dirs) or in_dirs(f.rel, exempt):
            return
        for i, line in enumerate(f.lines, 1):
            for rx, message in patterns:
                m = rx.search(line)
                if m:
                    yield i, m.expand(message)
                    break
    return check


MECHANISM_DIRS = ("src/mm/", "src/nomad/", "src/trace/")
PTE_BITS = r"(?:present|writable|dirty|accessed|prot_none|shadow_rw|pfn)"
# `pte->dirty = ...`, `pte.writable |= ...`, `(*pte).present = ...`
PTE_MUT_RE = re.compile(
    r"(?:\bpte\w*\s*(?:\.|->)|\(\s*\*\s*pte\w*\s*\)\s*\.)\s*"
    + PTE_BITS
    + r"\s*(?:\|=|&=|\^=|=(?!=))"
)

ASSERT_RE = re.compile(r"(?<![\w_])assert\s*\(")

# The one benchmark whose entire job is wall-clock measurement: it times
# the simulator itself (pages-simulated/sec), never simulated behavior.
NL003_ALLOWLIST = ("bench/bench_throughput.cc",)

COUNTER_LIT_RE = re.compile(r"\.\s*(Add|Get)\s*\(\s*\"")
# `hists().Record("...")` — histogram names come from the hist:: constants
# so the registry check (and NOMAD_HIST_NAME_LIST) stays the single source.
HIST_LIT_RE = re.compile(r"\.\s*Record\s*\(\s*\"")
# `static_cast<ProfNode>(3)` — a span node invented from a raw integer
# bypasses the NOMAD_PROF_NODE_LIST registry (casts of loop variables, as
# the exporters use, are fine).
PROFNODE_CAST_RE = re.compile(r"static_cast\s*<\s*ProfNode\s*>\s*\(\s*\d")

NEW_ANY_RE = re.compile(r"(?<![\w_:])new\b")
DELETE_RE = re.compile(r"(?<![\w_:])delete\b(?:\s*\[\s*\])?")


def rule_nl005(f, _ctx):
    if not in_dirs(f.rel, ("src/", "tools/")):
        return
    for i, line in enumerate(f.lines, 1):
        for m in NEW_ANY_RE.finditer(line):
            if re.match(r"\s*operator\b", line[m.end():]):
                continue  # operator new declarations
            yield i, "naked new; own memory with std::unique_ptr/containers"
        for m in DELETE_RE.finditer(line):
            before = line[: m.start()].rstrip()
            if before.endswith("="):  # `= delete` / `= delete;` function deletion
                continue
            if re.match(r"\s*operator\b", line[m.end():]):
                continue
            yield i, "naked delete; own memory with std::unique_ptr/containers"


GUARD_IFNDEF_RE = re.compile(r"#\s*ifndef\s+(\w+)")


def rule_nl006(f, _ctx):
    if not f.rel.endswith(".h") or not in_dirs(f.rel, ("src/", "tools/")):
        return
    expected = re.sub(r"[^A-Za-z0-9]", "_", f.rel).upper() + "_"
    for i, line in enumerate(f.lines, 1):
        m = GUARD_IFNDEF_RE.search(line)
        if m:
            if m.group(1) != expected:
                yield i, "include guard %s should be %s" % (m.group(1), expected)
            return
    yield 1, "missing include guard %s" % expected


IO_INCLUDE_RE = re.compile(r'#\s*include\s*<(iostream|fstream)>')
IO_ALLOWLIST = ("src/harness/",)  # the experiment harness prints reports by design

SHARD_PRIMITIVE_RE = re.compile(r"\bstd\s*::\s*barrier\b")
# `shards[i].done = true`, `shards[peer].sim->...Frob() = x`, `sims[i]->x = y`
SHARD_MUT_RE = re.compile(
    r"\b(shards|sims)\s*\[[^\]]+\]\s*(?:\.|->)[^;=<>!]*(?<![<>!=+\-*/|&^])=(?!=)")

# The packed frame-flags word is mm-internal. frame_flags:: constants name
# raw bit positions, and `flags_[pfn] |= ...` style writes bypass the
# PageFrame accessors that keep the multi-bit fields (LRU id, TPM abort
# count) consistent. Reads outside src/mm go through the accessors too, so
# any mention of the raw machinery is a finding.
FRAME_FLAGS_RE = re.compile(r"\bframe_flags\s*::")
FRAME_WORD_MUT_RE = re.compile(r"\bflags_\s*\[[^\]]*\]\s*(?:\|=|&=|\^=|=(?!=))")

# A degrading admission decision: `return AdmissionVerdict::kDefer;` or an
# assignment `verdict = AdmissionVerdict::kReject`. Comparisons (==, !=,
# <=, >=) and `case` labels are uses of a verdict, not decisions.
NL010_WINDOW = 10
DEGRADE_DECISION_RE = re.compile(
    r"(?:\breturn\s+|(?<![=!<>])=\s*)"
    r"AdmissionVerdict\s*::\s*k(?:Defer|Reject|DowngradeSync)\b")
# Evidence that the decision is observable: a registry-named counter bump,
# a registry-named trace emission, or the RecordVerdict helper (which does
# both and is itself linted here).
NL010_EMIT_RE = re.compile(
    r"(?:counters\s*\(\s*\)|counters_)\s*\.\s*Add\s*\(\s*cnt\s*::\s*k"
    r"|\bTrace\s*\(\s*TraceEvent\s*::\s*k"
    r"|\bEmit\s*\(\s*TraceEvent\s*::\s*k"
    r"|\bRecordVerdict\s*\(")


def rule_nl010(f, _ctx):
    if not in_dirs(f.rel, ("src/",)):
        return
    for i, line in enumerate(f.lines, 1):
        if line.lstrip().startswith("case"):
            continue
        if not DEGRADE_DECISION_RE.search(line):
            continue
        lo = max(0, i - 1 - NL010_WINDOW)
        hi = min(len(f.lines), i + NL010_WINDOW)
        if any(NL010_EMIT_RE.search(f.lines[j]) for j in range(lo, hi)):
            continue
        yield i, ("degrading admission decision with no counter/trace emission "
                  "nearby; shed load observably (cnt::/TraceEvent:: registries, "
                  "see RecordVerdict in src/nomad/admission.cc)")


# A concurrency-bearing member: a synchronization primitive. `mutable` is
# common on mutexes; std::atomic and std::barrier carry template args.
NL011_MEMBER_RE = re.compile(
    r"(?:^|\n)[ \t]*(?:mutable\s+)?"
    r"(std::mutex|std::condition_variable|std::atomic\s*<[^;]*>|"
    r"std::barrier\s*<[^;]*>|Mutex)\s+\w+\s*(?:=[^;]*|\{[^;]*\})?;")
NL011_ANNOTATION_RE = re.compile(
    r"\bNOMAD_(?:CAPABILITY|SCOPED_CAPABILITY|GUARDED_BY|PT_GUARDED_BY|"
    r"REQUIRES|ACQUIRE|RELEASE|TRY_ACQUIRE|EXCLUDES|ACQUIRED_(?:BEFORE|AFTER)|"
    r"RETURN_CAPABILITY|SHARD_CONFINED|NO_THREAD_SAFETY_ANALYSIS)\b")


def rule_nl011(f, _ctx):
    if not in_dirs(f.rel, ("src/",)) or in_dirs(f.rel, ("src/base/",)):
        return
    for name, start, open_idx, body in class_spans(f):
        member = NL011_MEMBER_RE.search(body)
        if member is None:
            continue
        # The annotation may sit on the class head (NOMAD_SHARD_CONFINED)
        # or on members/methods inside the span.
        if NL011_ANNOTATION_RE.search(body) or NL011_ANNOTATION_RE.search(
                f.code[start:open_idx]):
            continue
        # member.start() is the newline that ends the line before it.
        yield f.line_of(open_idx + member.start()) + 1, (
            "class %s holds concurrency state (%s) but carries no "
            "thread-safety annotation; add NOMAD_GUARDED_BY/NOMAD_CAPABILITY "
            "for lock-protected fields or NOMAD_SHARD_CONFINED for "
            "shard-confined objects (src/base/annotations.h)"
            % (name, member.group(1).split("<")[0].strip()))


# `t.Channel("pcq.depth")` — a complete literal channel name bypasses the
# tl:: constants, so a typo aborts at runtime instead of failing to compile.
# `t.Channel("cnt." + name)` (prefix literal then concatenation) is the
# mechanical derivation pattern for counter/histogram channels and is legal:
# the distinguishing token after the closing quote is `+`, not `)`. The
# stripper blanks a literal to spaces and keeps only its closing quote, so
# a complete-literal argument reads `(   ")` after stripping.
CHANNEL_LIT_RE = re.compile(r"\.\s*Channel\s*\(\s*\"\s*\)")

LINT_RULES = [
    ("NL001", "PTE bit mutation outside the mechanism layers",
     line_rule(("src/", "tools/"), MECHANISM_DIRS, [(
         PTE_MUT_RE, "direct PTE bit mutation outside src/mm|nomad|trace; use the "
                     "page_table/MemorySystem APIs (e.g. InstallMappingSilent)")])),
    ("NL002", "bare assert() instead of NOMAD_CHECK",
     line_rule(("src/", "tools/"), (), [(
         ASSERT_RE, "bare assert() compiles out of release builds; use NOMAD_CHECK")])),
    ("NL003", "nondeterminism sources (rand/clock) outside the seeded Rng",
     line_rule(("src/", "tools/", "bench/"), NL003_ALLOWLIST, [
         (rx, "nondeterminism source: %s breaks bit-reproducible runs; use the "
              "virtual clock / seeded nomad::Rng" % what)
         for rx, what in NONDET_SINKS])),
    ("NL004", "counter/histogram/span names outside the obs registries",
     line_rule(("src/",), (), [
         (COUNTER_LIT_RE, "counter name as string literal; use the cnt:: constants "
                          "from src/obs/event_registry.h"),
         (HIST_LIT_RE, "histogram name as string literal; use the hist:: constants "
                       "from src/obs/event_registry.h"),
         (PROFNODE_CAST_RE, "profiler node from an integer literal; use the ProfNode:: "
                            "enumerators from src/obs/event_registry.h")])),
    ("NL005", "naked new/delete", rule_nl005),
    ("NL006", "include guard must spell the file path", rule_nl006),
    ("NL007", "<iostream>/<fstream> outside declared I/O endpoints",
     line_rule(("src/",), IO_ALLOWLIST, [(
         IO_INCLUDE_RE, r"<\1> in a core layer; report through counters/traces or move "
                        r"I/O to src/harness")])),
    ("NL008", "shard-owned state mutated outside the sharded runtime",
     line_rule(("src/", "tools/", "bench/"), SHARD_RUNTIME_FILES, [
         (SHARD_PRIMITIVE_RE, "std::barrier used outside the sharded runtime; "
                              "communicate through RunShardedMicro/RunShardedYcsb "
                              "(src/harness/sharded_sim.h)"),
         (SHARD_MUT_RE, "mutation of shard-owned state outside the sharded runtime; "
                        "only the sharded runtime may write another shard's state")])),
    ("NL009", "frame flags touched outside the PageFrame accessors",
     line_rule(("src/", "tools/", "bench/"), ("src/mm/",), [
         (FRAME_FLAGS_RE, "raw frame_flags:: bit constant outside src/mm; use the "
                          "PageFrame accessors (src/mm/page.h)"),
         (FRAME_WORD_MUT_RE, "raw write to a packed frame-flags word outside src/mm; a "
                             "bitmask write can clobber neighboring bit fields - use the "
                             "PageFrame accessors (src/mm/page.h)")])),
    ("NL010", "degrading admission decisions must emit a counter/trace", rule_nl010),
    ("NL011", "concurrency-bearing classes must carry thread-safety annotations",
     rule_nl011),
    ("NL012", "timeline channel names outside the tl:: registry",
     line_rule(("src/", "tools/", "bench/"), (), [(
         CHANNEL_LIT_RE, "timeline channel name as a complete string literal; use the "
                         "tl:: constants from src/obs/event_registry.h (derived "
                         "channels compose a \"cnt.\"/\"hist.\" prefix with a registry "
                         "name)")])),
]


# --------------------------------------------------------------------------
# nomad_analyze: ownership map and function spans

# Function names allowed to index across the shard array even outside the
# runtime files (single-threaded setup and merge phases).
SHARD_RUNTIME_FUNCS = {
    "RunShards",
    "RunShardedMicro",
    "RunShardedYcsb",
    "RunChaosCell",
}

# Ownership-map roots beyond the NOMAD_SHARD_CONFINED markers. Sim is the
# canonical per-shard object: everything it transitively owns is confined.
OWNERSHIP_SEEDS = {"Sim"}

MARKED_CLASS_RE = re.compile(
    r"\b(?:class|struct)\s+NOMAD_SHARD_CONFINED\s+([A-Za-z_]\w*)")


def collect_classes(files):
    """Returns (marked, members) where marked is the set of class names
    carrying NOMAD_SHARD_CONFINED and members maps class name -> set of
    type-name tokens referenced by its member declarations."""
    marked = set()
    members = {}
    for f in files:
        marked.update(MARKED_CLASS_RE.findall(f.code))
        for name, _, _, body in class_spans(f):
            # Type-name tokens from member declarations: every identifier
            # that begins with an uppercase letter (repo convention for
            # class names), including template arguments, e.g.
            # std::unique_ptr<Sim>, std::vector<MicroShardState>.
            members.setdefault(name, set()).update(re.findall(r"\b([A-Z]\w+)\b", body))
    return marked, members


def ownership_closure(marked, members):
    """Closes the confined set over the member object graph: a class whose
    instances live inside a confined class is confined with it."""
    confined = set(marked) | (OWNERSHIP_SEEDS & set(members))
    work = list(confined)
    while work:
        cls = work.pop()
        for ref in members.get(cls, ()):  # member-of edges
            if ref in members and ref not in confined:
                confined.add(ref)
                work.append(ref)
    return confined


FUNC_RE = re.compile(
    r"(?:^|\n)[ \t]*(?:template\s*<[^\n]*>\s*\n[ \t]*)?"
    r"(?:[\w:~<>,*& \t]+?[ \t*&])?"
    r"((?:[A-Za-z_]\w*::)*[A-Za-z_~]\w*)\s*\([^;{}()]*(?:\([^()]*\)[^;{}()]*)*\)"
    r"\s*(?:const\s*)?(?:noexcept\s*)?(?:->\s*[\w:<>]+\s*)?\{")

FUNC_KEYWORD_BLOCKLIST = {
    "if", "for", "while", "switch", "catch", "return", "sizeof",
    "alignof", "decltype", "static_assert",
}


class FuncSpan:
    def __init__(self, name, start_line, end_line, body):
        self.name = name
        self.start_line = start_line
        self.end_line = end_line
        self.body = body


def collect_functions(f):
    """Heuristic function-definition spans (name, line range, body text).
    Good enough for scope attribution and the NA005 call graph; anything it
    misses simply isn't attributed, it never misattributes lines to the
    wrong span because spans are brace-matched."""
    spans = []
    for m in FUNC_RE.finditer(f.code):
        name = m.group(1).split("::")[-1]
        if name in FUNC_KEYWORD_BLOCKLIST:
            continue
        open_idx = m.end() - 1
        close_idx = match_end(f.code, open_idx)
        spans.append(FuncSpan(name, f.line_of(m.start()), f.line_of(close_idx),
                              f.code[open_idx:close_idx]))
    return spans


def enclosing_function(spans, line):
    """Innermost (shortest) span containing the line."""
    best = None
    for s in spans:
        if s.start_line <= line <= s.end_line:
            if best is None or (s.end_line - s.start_line) < (best.end_line - best.start_line):
                best = s
    return best


def build_context(files):
    marked, members = collect_classes(files)
    functions = {f.rel: collect_functions(f) for f in files}
    defs = {}  # function name -> spans, for the NA005 call graph
    for spans in functions.values():
        for s in spans:
            defs.setdefault(s.name, []).append(s)
    return {"marked": marked, "confined": ownership_closure(marked, members),
            "functions": functions, "defs": defs, "reach": {}}


# --------------------------------------------------------------------------
# nomad_analyze rules

SEND_CALL_RE = re.compile(r"\b(?:Send|Stage)\s*\(")
SHARDMSG_INIT_RE = re.compile(r"\bShardMsg\s*\{")
PTR_SMUGGLE_RE = re.compile(
    r"reinterpret_cast\s*<\s*(?:u?int(?:64|ptr)_t|unsigned\s+long(?:\s+long)?)\s*>"
    r"|\(\s*(?:u?int(?:64|ptr)_t|unsigned\s+long)\s*\)\s*&")


def rule_na001(f, ctx):
    """Pointers cast to integers inside Send/Stage arguments or ShardMsg
    initializers: the payload words are value-only by contract."""
    for pat, open_ch, close_ch in ((SEND_CALL_RE, "(", ")"),
                                   (SHARDMSG_INIT_RE, "{", "}")):
        for m in pat.finditer(f.code):
            open_idx = m.end() - 1
            args = f.code[open_idx:match_end(f.code, open_idx, open_ch, close_ch)]
            sm = PTR_SMUGGLE_RE.search(args)
            if sm is None:
                continue
            yield f.line_of(open_idx + sm.start()), (
                "pointer cast to integer inside a ShardMsg payload; messages may "
                "carry values only — the pointee is confined to the sending shard")


THREAD_SEAM_RES = [
    (re.compile(r"\bstd::thread\b[^;({]*[({]"), "std::thread"),
    (re.compile(r"\bstd::async\s*\("), "std::async"),
    (re.compile(r"\b\w*(?:pool|threads|workers)\w*\.(?:emplace_back|push_back)\s*\("),
     "thread-pool enqueue"),
    (re.compile(r"\bshard_setup\s*=\s*"), "shard_setup assignment"),
]
BYREF_CAPTURE_RE = re.compile(r"\[\s*&")


def rule_na002(f, ctx):
    """A [&]-capturing lambda handed to a thread constructor, async
    launch, pool enqueue, or shard_setup slot: references inside it can
    alias shard-confined state on a foreign thread."""
    if f.rel in SHARD_RUNTIME_FILES:
        return
    for pat, what in THREAD_SEAM_RES:
        for m in pat.finditer(f.code):
            # The capture list must open shortly after the seam token —
            # same statement, allowing the lambda to start on a following
            # line.
            window = f.code[m.end():m.end() + 160]
            stmt_end = window.find(";")
            if stmt_end != -1:
                window = window[:stmt_end + 1]
            if BYREF_CAPTURE_RE.search(window) is None:
                continue
            yield f.line_of(m.start()), (
                "by-reference lambda capture handed to %s; captured references "
                "cross the thread seam — capture by value, or keep the state "
                "in the shard's own Sim" % what)


STATIC_DECL_RE = re.compile(
    r"(?:^|\n)[ \t]*(static\s+)?((?:[\w:]+\s+)*?([A-Za-z_]\w*)\s*(?:<[^;<>]*>)?\s*[*&])\s*"
    r"([A-Za-z_]\w*)\s*(?:=[^;]*)?;")

NAMESPACE_BRACE_RE = re.compile(r"\bnamespace(\s+[A-Za-z_]\w*)?\s*$")


def namespace_scope_mask(code):
    """Per-character: True iff the position is at namespace scope — outside
    every paren and outside every brace pair except namespace braces. This
    is what separates a real global from a class member, a function local,
    or a default argument."""
    mask = [False] * len(code)
    brace_stack = []  # one bool per open brace: is it a namespace brace?
    paren = 0
    for i, c in enumerate(code):
        if c == "(":
            paren += 1
        elif c == ")":
            paren = max(0, paren - 1)
        elif c == "{":
            back = code[max(0, i - 64):i]
            brace_stack.append(NAMESPACE_BRACE_RE.search(back) is not None)
        elif c == "}":
            if brace_stack:
                brace_stack.pop()
        mask[i] = paren == 0 and all(brace_stack)
    return mask


def rule_na003(f, ctx):
    """Static-storage (or namespace-scope) pointers/references to confined
    types: a global alias makes confined state reachable from any thread."""
    confined = ctx["confined"]
    mask = namespace_scope_mask(f.code)
    for m in STATIC_DECL_RE.finditer(f.code):
        is_static, decl, type_name, var = m.group(1), m.group(2), m.group(3), m.group(4)
        if "constexpr" in decl or "const char" in decl:
            continue
        if type_name not in confined:
            continue
        # Skip leading whitespace to the first declaration token.
        decl_start = m.start()
        while decl_start < len(f.code) and f.code[decl_start] in " \t\n":
            decl_start += 1
        # A namespace-scope declaration is static storage with or without
        # the keyword; everywhere else (class member, function local,
        # parameter default) only an explicit `static` makes it static.
        if not is_static and not (decl_start < len(mask) and mask[decl_start]):
            continue
        yield f.line_of(decl_start), (
            "'%s' stores a pointer to shard-confined type %s in static storage; "
            "confined state must only be reachable through its owning shard"
            % (var, type_name))


CROSS_SHARD_RE = re.compile(r"\b(sims?|shards)\s*\[\s*[^]]+\]\s*(?:->|\.)")


def rule_na004(f, ctx):
    """Indexing the shard array outside the shard runtime: only the
    runner's entry points may reach across sims[i]."""
    if f.rel in SHARD_RUNTIME_FILES or not f.rel.startswith("src/"):
        return
    spans = ctx["functions"][f.rel]
    for m in CROSS_SHARD_RE.finditer(f.code):
        line = f.line_of(m.start())
        inside = enclosing_function(spans, line)
        if inside is not None and inside.name in SHARD_RUNTIME_FUNCS:
            continue
        yield line, ("cross-shard object access outside the shard runtime "
                     "(function %s); a shard may touch only its own state, "
                     "and only %s reach across shards"
                     % (inside.name if inside else "<file scope>",
                        "/".join(sorted(SHARD_RUNTIME_FUNCS))))


CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")


def sink_in(body):
    for rx, label in NONDET_SINKS:
        if rx.search(body):
            return label
    return None


def reach(name, stack, ctx):
    """(sink label, call chain) for the first sink reachable from the
    function `name`, or None; memoized in ctx["reach"]."""
    memo = ctx["reach"]
    if name in memo:
        return memo[name]
    if name in stack:
        return None
    entries = ctx["defs"].get(name)
    if not entries:
        return None
    stack = stack | {name}
    for span in entries:
        label = sink_in(span.body)
        if label:
            memo[name] = (label, (name,))
            return memo[name]
    for span in entries:
        for callee in set(CALL_RE.findall(span.body)):
            if callee == name or callee in FUNC_KEYWORD_BLOCKLIST:
                continue
            r = reach(callee, stack, ctx)
            if r:
                memo[name] = (r[0], (name,) + r[1])
                return memo[name]
    memo[name] = None
    return None


def rule_na005(f, ctx):
    """Call-graph reachability from simulation functions (src/) to wall-
    clock / randomness sinks. Direct uses and transitive chains both fire;
    the chain is spelled out in the message."""
    if not f.rel.startswith("src/"):
        return
    for span in ctx["functions"][f.rel]:
        label = sink_in(span.body)
        chain = (span.name,)
        if label is None:
            for callee in set(CALL_RE.findall(span.body)):
                if callee == span.name or callee in FUNC_KEYWORD_BLOCKLIST:
                    continue
                r = reach(callee, frozenset({span.name}), ctx)
                if r:
                    label, chain = r[0], (span.name,) + r[1]
                    break
        if label is not None:
            yield span.start_line, (
                "nondeterminism source %s reachable from sim function via %s; use "
                "the virtual clock / seeded RNG instead" % (label, " -> ".join(chain)))


ANALYZE_RULES = [
    ("NA001", "pointer escapes into ShardMsg payload", rule_na001),
    ("NA002", "by-ref lambda capture crosses a thread seam", rule_na002),
    ("NA003", "pointer to shard-confined type in static storage", rule_na003),
    ("NA004", "cross-shard object access outside the shard runtime", rule_na004),
    ("NA005", "nondeterminism source reachable from sim code", rule_na005),
]


def analyze(files, only=None):
    ctx = build_context(files)
    findings = run_rules(files, ANALYZE_RULES, ctx)
    if only:
        findings = [x for x in findings if x.rule == only]
    findings.sort(key=lambda x: (x.rel, x.line, x.rule))
    return findings, ctx


# --------------------------------------------------------------------------
# Baseline


def load_baseline(path):
    entries = set()
    if not os.path.exists(path):
        return entries
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split("|")
            if len(parts) != 3:
                print("nomad_analyze: malformed baseline line: %s" % raw.rstrip(),
                      file=sys.stderr)
                sys.exit(2)
            entries.add(tuple(p.strip() for p in parts))
    return entries


def write_baseline(path, findings):
    with open(path, "w") as fh:
        fh.write("# nomad_analyze findings baseline.\n")
        fh.write("# Format: rule|path|fingerprint   (fingerprint = content hash,\n")
        fh.write("# stable across line drift). Every entry needs a justification\n")
        fh.write("# comment explaining why the finding is a false positive.\n")
        for x in findings:
            fh.write("# TODO: justify.\n")
            fh.write("%s|%s|%s\n" % x.baseline_key())


# --------------------------------------------------------------------------
# Optional libclang backends (CI)


def try_import_clang(tool, backend):
    """clang.cindex for --backend=clang|auto, or None; exits 2 when clang
    was requested but the bindings do not import."""
    if backend not in ("clang", "auto"):
        return None
    try:
        import clang.cindex as cindex  # Debian/Ubuntu: python3-clang
        return cindex
    except Exception:
        if backend == "clang":
            print("%s: --backend=clang requested but clang.cindex is not "
                  "importable (install python3-clang)" % tool, file=sys.stderr)
            sys.exit(2)
        return None


def load_compdb(tool, cindex, compdb_dir):
    try:
        return cindex.CompilationDatabase.fromDirectory(compdb_dir)
    except cindex.CompilationDatabaseError:
        print("%s: cannot load compile_commands.json from %s" % (tool, compdb_dir),
              file=sys.stderr)
        sys.exit(2)


def compile_args(cmd):
    """A compile command's arguments for libclang: the compiler, -c, -o FILE
    and the input file dropped; -I/-D/-std and friends kept."""
    path = cmd.filename
    keep, skip_next = [], False
    for a in list(cmd.arguments)[1:]:
        if skip_next:
            skip_next = False
            continue
        if a in ("-c", path) or a.endswith(os.path.basename(path)):
            continue
        if a == "-o":
            skip_next = True
            continue
        keep.append(a)
    return keep


def lint_clang_findings(files, compdb_dir, cindex):
    """NL001/NL005 on the real AST. Member writes are matched by base type.

    Strict: a TU that fails to parse, or parses with fatal diagnostics,
    aborts the run with exit 2 — required AST coverage must not silently
    degrade to token-only checking."""
    findings = []
    kind = cindex.CursorKind
    index = cindex.Index.create()
    db = load_compdb("nomad_lint", cindex, compdb_dir)
    pte_bits = {"present", "writable", "dirty", "accessed", "prot_none", "shadow_rw", "pfn"}
    for f in files:
        if not f.rel.endswith(".cc"):
            continue
        if not in_dirs(f.rel, ("src/", "tools/")):
            continue
        cmds = db.getCompileCommands(f.path)
        args = compile_args(cmds[0]) if cmds else ["-std=c++20", "-I."]
        try:
            tu = index.parse(f.path, args=args)
        except Exception as e:
            print("nomad_lint: clang backend failed to parse %s: %s" % (f.rel, e),
                  file=sys.stderr)
            sys.exit(2)
        fatal = [d for d in tu.diagnostics if d.severity >= 4]
        if fatal:
            for d in fatal:
                print("nomad_lint: clang backend: %s" % d, file=sys.stderr)
            sys.exit(2)

        def visit(node):
            if node.location.file is None or node.location.file.name != f.path:
                for ch in node.get_children():
                    visit(ch)
                return
            if node.kind in (kind.CXX_NEW_EXPR, kind.CXX_DELETE_EXPR):
                findings.append(Finding("NL005", f.rel, node.location.line,
                                        "naked new/delete (AST)"))
            if node.kind in (kind.BINARY_OPERATOR, kind.COMPOUND_ASSIGNMENT_OPERATOR):
                kids = list(node.get_children())
                if kids and kids[0].kind == kind.MEMBER_REF_EXPR:
                    member = kids[0].spelling
                    base = list(kids[0].get_children())
                    base_type = base[0].type.spelling if base else ""
                    if member in pte_bits and "Pte" in base_type and not in_dirs(
                            f.rel, MECHANISM_DIRS):
                        findings.append(Finding(
                            "NL001", f.rel, node.location.line,
                            "PTE bit mutation outside the mechanism layers (AST)"))
            for ch in node.get_children():
                visit(ch)

        visit(tu.cursor)
    return findings


def analyze_clang_findings(root, compdb_dir, cindex, text_confined):
    """Walks every TU from compile_commands.json; returns the set of class
    names carrying the nomad::shard_confined annotate attribute in the AST
    plus AST-level NA003 findings. Strict: TU parse errors are fatal — a
    TU the analyzer cannot see is a TU it cannot vouch for."""
    db = load_compdb("nomad_analyze", cindex, compdb_dir)
    index = cindex.Index.create()
    annotated = set()
    findings = []
    seen_files = set()
    for cmd in db.getAllCompileCommands():
        path = os.path.normpath(cmd.filename)
        if path in seen_files:
            continue
        seen_files.add(path)
        tu = index.parse(cmd.filename, args=compile_args(cmd))
        bad = [d for d in tu.diagnostics if d.severity >= 3]
        if bad:
            for d in bad:
                print("nomad_analyze: %s" % d, file=sys.stderr)
            sys.exit(2)
        for cur in tu.cursor.walk_preorder():
            if cur.kind in (cindex.CursorKind.CLASS_DECL,
                            cindex.CursorKind.STRUCT_DECL):
                for ch in cur.get_children():
                    if (ch.kind == cindex.CursorKind.ANNOTATE_ATTR
                            and ch.spelling == "nomad::shard_confined"):
                        annotated.add(cur.spelling)
            elif cur.kind == cindex.CursorKind.VAR_DECL:
                try:
                    static_dur = cur.storage_class == cindex.StorageClass.STATIC
                except AttributeError:
                    static_dur = False
                t = cur.type
                if (static_dur and t.kind == cindex.TypeKind.POINTER
                        and t.get_pointee().spelling.split("::")[-1] in text_confined):
                    loc = cur.location
                    rel = os.path.relpath(str(loc.file), root) if loc.file else "?"
                    findings.append(Finding(
                        "NA003", rel.replace(os.sep, "/"), loc.line,
                        "[clang] static pointer to confined type %s"
                        % t.get_pointee().spelling, cur.spelling))
    return annotated, findings


# --------------------------------------------------------------------------
# Selftest: every rule must fire on a known-bad snippet and stay quiet on
# the matching good snippet. Cases are (rule, path, code, expect_fire).

LINT_SELFTEST_CASES = [
    ("NL001", "src/policy/bad.cc", "void f(Pte* pte) { pte->dirty = true; }", True),
    ("NL001", "src/mm/ok.cc", "void f(Pte* pte) { pte->dirty = true; }", False),
    ("NL001", "src/policy/ok.cc", "void f(Pte* pte) { bool d = pte->dirty; (void)d; }", False),
    ("NL002", "src/nomad/bad.cc", "void f(int x) { assert(x > 0); }", True),
    # A digit separator does not open a char literal that hides the code after it.
    ("NL002", "src/nomad/bad_after_separator.cc",
     "const int kOps = 10'000;\nvoid f(int x) { assert(x > 0); }", True),
    ("NL002", "src/nomad/ok.cc",
     "void f(int x) { NOMAD_CHECK(x > 0, \"x=\", x); static_assert(1 + 1 == 2); }", False),
    ("NL003", "src/policy/bad.cc", "int f() { return std::rand(); }", True),
    ("NL003", "src/sim/bad.cc", "std::mt19937 gen;", True),
    ("NL003", "src/workload/bad.cc",
     "auto t = std::chrono::steady_clock::now();", True),
    ("NL003", "src/workload/ok.cc", "Cycles finish_time() { return t_; }", False),
    ("NL004", "src/mm/bad.cc", 'void f(C& c) { c.counters().Add("migrate.promote", 1); }', True),
    ("NL004", "src/mm/ok.cc", "void f(C& c) { c.counters().Add(cnt::kTlbShootdown, 1); }", False),
    ("NL004", "src/nomad/bad_hist.cc",
     'void f(M& ms) { ms.hists().Record("migration.latency", 5); }', True),
    ("NL004", "src/nomad/ok_hist.cc",
     "void f(M& ms) { ms.hists().Record(hist::kMigrationLatency, 5); }", False),
    ("NL004", "src/policy/bad_span.cc",
     "void f(P& p) { ProfScope s(p, static_cast<ProfNode>(3)); }", True),
    ("NL004", "src/obs/ok_span.cc",
     "for (uint8_t i = 0; i < kNumProfNodes; i++) Use(static_cast<ProfNode>(i));", False),
    # A raw string's quote marks are its contents, not literal boundaries.
    ("NL004", "src/obs/ok_raw_string.cc", 'const char* kDoc = R"(a " .Add(" b)";', False),
    ("NL005", "src/nomad/bad.cc", "int* p = new int[4];", True),
    ("NL005", "src/nomad/bad2.cc", "void f(int* p) { delete p; }", True),
    ("NL005", "src/nomad/ok.cc",
     "auto p = std::make_unique<int>(3); X(const X&) = delete;", False),
    ("NL005", "src/nomad/ok2.cc", "// a new frame\nconst Pfn new_pfn = 3;", False),
    ("NL006", "src/mm/bad.h", "#ifndef WRONG_GUARD_H_\n#define WRONG_GUARD_H_\n#endif", True),
    ("NL006", "src/mm/good.h", "#ifndef SRC_MM_GOOD_H_\n#define SRC_MM_GOOD_H_\n#endif", False),
    ("NL007", "src/mm/bad.cc", "#include <iostream>", True),
    ("NL007", "src/harness/ok.cc", "#include <iostream>", False),
    ("NL007", "src/mm/ok.cc", "#include <sstream>", False),
    ("NL008", "src/policy/bad_barrier.cc",
     "void f(std::barrier<>& b) { b.arrive_and_wait(); }", True),
    ("NL008", "src/harness/sharded_sim.h",
     "void Cross(std::barrier<>& b);", False),
    ("NL008", "src/harness/sharded_sim.cc",
     "void f(std::barrier<>& b) { b.arrive_and_wait(); }", False),
    ("NL008", "src/nomad/bad_mut.cc",
     "void f(std::vector<S>& shards, int peer) { shards[peer].done = true; }", True),
    ("NL008", "src/policy/bad_mut2.cc",
     "void f(std::vector<Sim*>& sims, int peer) { sims[peer]->stop = 1; }", True),
    ("NL008", "src/policy/ok_read.cc",
     "bool f(const std::vector<S>& shards, int s) { return shards[s].done == true; }",
     False),
    ("NL008", "bench/ok_highlevel.cc",
     "void f() { ShardedRunConfig cfg; RunShardedMicro(cfg); }", False),
    ("NL009", "src/policy/bad_flags.cc",
     "uint32_t m() { return frame_flags::kActive | frame_flags::kReferenced; }", True),
    ("NL009", "src/nomad/bad_word.cc",
     "void f(FrameTable& t, Pfn p) { t.flags_[p] |= 4u; }", True),
    ("NL009", "src/policy/bad_word2.cc",
     "void f(std::vector<uint32_t>& flags_, Pfn p) { flags_[p] = 0; }", True),
    ("NL009", "src/mm/ok_flags.cc",
     "void f(FrameTable& t, Pfn p) { t.flags_[p] |= frame_flags::kActive; }", False),
    ("NL009", "src/policy/ok_accessor.cc",
     "void f(PageFrame f) { f.set_active(true); bool a = f.active(); (void)a; }", False),
    ("NL009", "src/check/ok_read.cc",
     "uint32_t f(const FrameTable& t) { return t.flags_data()[0]; }", False),
    ("NL010", "src/nomad/bad_admit.cc",
     "AdmissionVerdict f() {\n  return AdmissionVerdict::kReject;\n}", True),
    ("NL010", "src/nomad/bad_assign.cc",
     "void f(AdmissionVerdict& v) { v = AdmissionVerdict::kDowngradeSync; }", True),
    ("NL010", "src/nomad/ok_counted.cc",
     "AdmissionVerdict f(C& c) {\n  c.counters().Add(cnt::kAdmissionReject, 1);\n"
     "  return AdmissionVerdict::kReject;\n}", False),
    ("NL010", "src/nomad/ok_recorded.cc",
     "AdmissionVerdict f() {\n"
     "  RecordVerdict(AdmissionVerdict::kDefer, AdmissionSource::kPromotion, 0);\n"
     "  return AdmissionVerdict::kDefer;\n}", False),
    ("NL010", "src/nomad/ok_traced.cc",
     "AdmissionVerdict f(M& ms) {\n  ms.Trace(TraceEvent::kAdmissionVerdict, 0, 1);\n"
     "  return AdmissionVerdict::kDefer;\n}", False),
    ("NL010", "src/nomad/ok_case.cc",
     "void f(AdmissionVerdict v) {\n  switch (v) {\n"
     "    case AdmissionVerdict::kDefer:\n      break;\n  }\n}", False),
    ("NL010", "src/nomad/ok_compare.cc",
     "bool f(AdmissionVerdict v) { return v == AdmissionVerdict::kReject; }", False),
    ("NL010", "src/policy/ok_outside.cc",
     "int f() { return 0; }", False),
    ("NL011", "src/nomad/bad_mutex.h",
     "class Queue {\n public:\n  void Push(int v);\n private:\n"
     "  std::mutex mu_;\n  std::vector<int> items_;\n};", True),
    ("NL011", "src/obs/bad_atomic.h",
     "class Gauge {\n private:\n  std::atomic<uint64_t> value_ = 0;\n};", True),
    ("NL011", "src/harness/bad_barrier.h",
     "struct Phase {\n  std::barrier<> barrier{2};\n  uint64_t epoch = 0;\n};", True),
    ("NL011", "src/nomad/bad_wrapper.h",
     "class Waiter {\n  Mutex mu_;\n  bool ready_ = false;\n};", True),
    ("NL011", "src/nomad/ok_guarded.h",
     "class Queue {\n private:\n  Mutex mu_;\n"
     "  std::vector<int> items_ NOMAD_GUARDED_BY(mu_);\n};", False),
    ("NL011", "src/obs/ok_confined.h",
     "class NOMAD_SHARD_CONFINED Gauge {\n private:\n"
     "  std::atomic<uint64_t> value_ = 0;\n};", False),
    ("NL011", "src/base/ok_vocabulary.h",
     "class Mutex {\n private:\n  std::mutex mu_;\n};", False),
    ("NL011", "src/nomad/ok_plain.h",
     "class Plain {\n private:\n  uint64_t value_ = 0;\n};", False),
    ("NL012", "src/harness/bad_channel.cc",
     'void f(Timeline& t) { pcq_ = t.Channel("pcq.depth"); }', True),
    ("NL012", "src/harness/bad_nested.cc",
     'void f(Timeline& t) { t.Set(t.Channel("tier.fast.free_frames"), 1); }', True),
    ("NL012", "src/harness/ok_const.cc",
     "void f(Timeline& t) { pcq_ = t.Channel(tl::kPcqDepth); }", False),
    ("NL012", "src/harness/ok_derived.cc",
     'void f(Timeline& t, const std::string& name) {\n'
     '  t.SetDelta(t.Channel("cnt." + name), 1);\n'
     '  t.Set(t.Channel("hist." + name + ".p50"), 2);\n}', False),
    ("NL012", "tools/ok_variable.cc",
     "void f(Timeline& t, const std::string& ch) { t.Channel(ch); }", False),
]

# Analyzed next to every analyzer case: the confined-type seeds the cases
# refer to (FramePool, CounterSet via the marker; LruList via Sim).
ANALYZE_SELFTEST_SUPPORT = """
#include "src/base/annotations.h"
class NOMAD_SHARD_CONFINED FramePool { int x_; };
class NOMAD_SHARD_CONFINED CounterSet { int y_; };
class Sim {
 public:
  FramePool pool_;
  LruList lru_;
};
class LruList { int z_; };
class FreeType { int w_; };
"""

ANALYZE_SELFTEST_CASES = [
    ("NA001", "src/sim/reinterpret_into_stage.cc", """
void Leak(ShardRouter& r, FramePool& pool) {
  r.Stage(0, 1, kShardMsgUser, reinterpret_cast<uint64_t>(&pool), 0);
}""", True),
    ("NA001", "src/sim/uintptr_into_send.cc", """
void Leak(ShardRouter& r, CounterSet* c) {
  r.Send(0, 1, kShardMsgUser, reinterpret_cast<uintptr_t>(c), 0);
}""", True),
    ("NA001", "src/sim/ccast_into_msg_init.cc", """
ShardMsg Make(FramePool& pool) {
  return ShardMsg{0, kShardMsgUser, 0, (uint64_t)&pool, 0};
}""", True),
    ("NA001", "src/sim/plain_values_ok.cc", """
void Report(ShardRouter& r, uint64_t ops, uint64_t now) {
  r.Stage(0, 1, kShardMsgProgress, ops, now);
}""", False),
    ("NA002", "src/nomad/std_thread_byref.cc", """
void Spawn(CounterSet& counters) {
  std::thread t([&] { counters.Add(1); });
  t.join();
}""", True),
    ("NA002", "src/nomad/async_byref.cc", """
void Launch(FramePool& pool) {
  auto fut = std::async(std::launch::async, [&pool] { pool.Use(); });
}""", True),
    ("NA002", "src/nomad/pool_emplace_byref.cc", """
void Fill(std::vector<std::thread>& pool, Sim& sim) {
  pool.emplace_back([&sim] { sim.Step(); });
}""", True),
    ("NA002", "src/nomad/shard_setup_byref.cc", """
void Arm(ShardedRunConfig& cfg, FaultPlan& plan) {
  cfg.shard_setup = [&plan](uint32_t shard, Sim& sim) { plan.Install(shard, sim); };
}""", True),
    ("NA002", "src/nomad/byvalue_ok.cc", """
void Spawn(uint64_t seed) {
  std::thread t([seed] { Work(seed); });
  t.join();
}""", False),
    ("NA002", "src/harness/sharded_sim.cc", """
void RunPool(std::vector<std::thread>& pool) {
  pool.emplace_back([&] { Work(); });
}""", False),
    ("NA003", "src/mm/static_confined_ptr.cc", """
static FramePool* g_pool = nullptr;
void Touch() { g_pool = nullptr; }""", True),
    ("NA003", "src/mm/namespace_scope_ptr.cc", """
Sim* g_current_sim = nullptr;""", True),
    ("NA003", "src/mm/closure_member_ptr.cc", """
static LruList* g_lru = nullptr;""", True),
    ("NA003", "src/mm/function_local_ok.cc", """
void Use(FramePool& pool) {
  FramePool* local = &pool;
  local->Tick();
}""", False),
    ("NA003", "src/mm/unconfined_type_ok.cc", """
static FreeType* g_free = nullptr;""", False),
    ("NA004", "src/nomad/cross_shard_access.cc", """
void Steal(std::vector<Sim*>& sims, uint32_t victim) {
  sims[victim]->pool_.Take(1);
}""", True),
    ("NA004", "src/nomad/shards_array_access.cc", """
void Peek(std::vector<ShardState>& shards, uint32_t s) {
  shards[s].counters.Add(1);
}""", True),
    ("NA004", "src/nomad/runtime_func_ok.cc", """
void RunShards(std::vector<Sim*>& sims) {
  for (uint32_t s = 0; s < sims.size(); s++) {
    sims[s]->Step();
  }
}""", False),
    ("NA005", "src/sim/direct_wall_clock.cc", """
uint64_t Stamp() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}""", True),
    ("NA005", "src/sim/transitive_chain.cc", """
static uint64_t Helper() {
  return std::chrono::system_clock::now().time_since_epoch().count();
}
uint64_t Epoch() {
  return Helper();
}""", True),
    ("NA005", "src/nomad/libc_rand.cc", """
int Jitter() {
  return rand() % 7;
}""", True),
    ("NA005", "src/sim/virtual_clock_ok.cc", """
uint64_t Now(const Engine& engine) {
  return engine.now();
}""", False),
    ("NA005", "bench/bench_wall_clock_ok.cc", """
double WallSeconds() {
  return std::chrono::duration<double>(
      std::chrono::steady_clock::now().time_since_epoch()).count();
}""", False),
]


def exit_status(run):
    """run()'s return value, or its SystemExit code; stderr is dropped."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return run()
    except SystemExit as e:
        return e.code


def partial_baseline_update(flags):
    """Exit status of --update-baseline with `flags` over a scratch tree
    (src/a.cc and empty scope directories) and baseline, or "a rewritten
    baseline" when the run changed the file."""
    with tempfile.TemporaryDirectory() as tmp:
        for scope in SCOPE_DIRS:
            os.mkdir(os.path.join(tmp, scope))
        open(os.path.join(tmp, "src", "a.cc"), "w").close()
        path = os.path.join(tmp, "baseline.txt")
        kept = "NA002|src/harness/chaos.cc|191364eccfc0\n"
        with open(path, "w") as fh:
            fh.write(kept)
        rc = exit_status(lambda: analyze_main(
            ["--root", tmp, "--baseline", path, "--update-baseline"] + flags))
        with open(path) as fh:
            return rc if fh.read() == kept else "a rewritten baseline"


def run_selftest(tool, rules, cases, findings_of, refusals):
    """Runs each case through findings_of(SourceFile) and checks that its
    rule fires (or stays quiet) on its path; every rule needs at least one
    violation case and one clean case. Then each (what, run) in refusals, a
    CLI run it must refuse, must exit 2."""
    passed = {True: 0, False: 0}
    failures = 0
    for rule, rel, code, expect in cases:
        got = [x for x in findings_of(SourceFile("<selftest>/" + rel, rel, code + "\n"))
               if x.rule == rule and x.rel == rel]
        ok = bool(got) == expect
        print("%s %s on %-36s (%s)" % ("ok  " if ok else "FAIL", rule, rel,
                                       "fires" if expect else "quiet"))
        passed[expect] += ok
        if not ok:
            failures += 1
            for g in got:
                print("    unexpected: %s" % g)
    for rule, _, _ in rules:
        kinds = {expect for r, _, _, expect in cases if r == rule}
        for expect, what in ((True, "violation"), (False, "clean")):
            if expect not in kinds:
                failures += 1
                print("FAIL %s has no %s case" % (rule, what))
    for what, run in refusals:
        rc = exit_status(run)
        print("%s exit %s on %s (want 2)" % ("ok  " if rc == 2 else "FAIL", rc, what))
        if rc != 2:
            failures += 1
    print("%s selftest: %d/%d violation cases caught, %d/%d clean cases quiet, "
          "%d failure(s)" % (tool, passed[True], sum(1 for c in cases if c[3]),
                             passed[False], sum(1 for c in cases if not c[3]), failures))
    return 1 if failures else 0


# --------------------------------------------------------------------------
# CLIs


def common_parser(prog, backends, default_backend, add_help=True):
    ap = argparse.ArgumentParser(prog=prog, add_help=add_help, allow_abbrev=False)
    ap.add_argument("--root", default=".", help="repository root")
    ap.add_argument("--backend", choices=backends, default=default_backend)
    ap.add_argument("--compdb", default="build",
                    help="directory containing compile_commands.json (clang backend)")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--list-rules", action="store_true")
    return ap


def print_rules(rules):
    for rule, desc, _ in rules:
        print("%s  %s" % (rule, desc))
    return 0


def lint_main(argv):
    ap = common_parser("nomad_lint", ("auto", "token", "clang"), "auto", add_help=False)
    ap.add_argument("files", nargs="*", help="files to check (default: the whole tree)")
    args = ap.parse_args(argv)
    if args.list_rules:
        return print_rules(LINT_RULES)
    if args.selftest:
        return run_selftest("nomad_lint", LINT_RULES, LINT_SELFTEST_CASES,
                            lambda f: run_rules([f], LINT_RULES),
                            [("a missing path", lambda: lint_main(["src/no_such_file.cc"]))])

    root = os.path.abspath(args.root)
    files = load_files("nomad_lint", root, args.files)
    findings = run_rules(files, LINT_RULES)
    cindex = try_import_clang("nomad_lint", args.backend)
    if cindex is not None:
        seen = {(x.rel, x.line, x.rule) for x in findings}
        for x in lint_clang_findings(files, os.path.join(root, args.compdb), cindex):
            if (x.rel, x.line, x.rule) not in seen:
                findings.append(x)

    findings.sort(key=lambda x: (x.rel, x.line, x.rule))
    for x in findings:
        print(x)
    engine = "token+clang" if cindex is not None else "token"
    print("nomad_lint: %d file(s), %d finding(s), engine=%s" % (
        len(files), len(findings), engine), file=sys.stderr)
    return 1 if findings else 0


def analyze_main(argv):
    ap = common_parser("nomad_analyze", ("internal", "clang", "auto"), "internal")
    ap.add_argument("--baseline", default=None,
                    help="baseline file (default tools/nomad_analyze/"
                         "baseline.txt under --root)")
    ap.add_argument("--update-baseline", action="store_true")
    ap.add_argument("--only", default=None, choices=[r for r, _, _ in ANALYZE_RULES],
                    help="run a single rule")
    ap.add_argument("--file", action="append", default=None,
                    help="restrict to these files (repeatable)")
    ap.add_argument("--print-ownership", action="store_true",
                    help="dump the confined-type closure and exit")
    args = ap.parse_args(argv)
    if args.update_baseline and (args.only or args.file):
        # A partial run sees only part of the findings; writing them would
        # drop every justified entry outside its scope.
        ap.error("--update-baseline needs the whole tree and every rule, "
                 "not --only or --file")

    if args.list_rules:
        return print_rules(ANALYZE_RULES)
    if args.selftest:
        def findings_of(f):
            support = SourceFile("<selftest>/src/base/support.h", "src/base/support.h",
                                 ANALYZE_SELFTEST_SUPPORT)
            return analyze([support, f])[0]
        return run_selftest(
            "nomad_analyze", ANALYZE_RULES, ANALYZE_SELFTEST_CASES, findings_of,
            [("a missing path", lambda: analyze_main(["--file", "src/no_such_file.cc"])),
             ("--update-baseline --only",
              lambda: partial_baseline_update(["--only", "NA001"])),
             ("--update-baseline --file",
              lambda: partial_baseline_update(["--file", "src/a.cc"]))])

    root = os.path.abspath(args.root)
    files = load_files("nomad_analyze", root, args.file)
    findings, ctx = analyze(files, only=args.only)
    # A run with --only or --file vouches only for the rule and files it
    # covered: baseline entries and clang findings outside them are neither
    # reported nor stale.
    covered = {f.rel for f in files}

    def in_scope(rule, rel):
        return args.only in (None, rule) and (args.file is None or rel in covered)

    if args.print_ownership:
        print("marked: %s" % " ".join(sorted(ctx["marked"])))
        print("confined closure (%d types): %s"
              % (len(ctx["confined"]), " ".join(sorted(ctx["confined"]))))
        return 0

    cindex = try_import_clang("nomad_analyze", args.backend)
    if cindex is not None:
        annotated, ast_findings = analyze_clang_findings(root, args.compdb, cindex,
                                                         ctx["confined"])
        lost = ctx["marked"] - annotated
        if lost:
            print("nomad_analyze: NOMAD_SHARD_CONFINED markers missing from "
                  "the AST (macro not expanding?): %s"
                  % " ".join(sorted(lost)), file=sys.stderr)
            return 1
        known = {x.baseline_key() for x in findings}
        findings.extend(x for x in ast_findings
                        if x.baseline_key() not in known and in_scope(x.rule, x.rel))

    baseline_path = args.baseline or os.path.join(
        root, "tools", "nomad_analyze", "baseline.txt")
    if args.update_baseline:
        write_baseline(baseline_path, findings)
        print("nomad_analyze: wrote %d entries to %s"
              % (len(findings), baseline_path))
        return 0

    baseline = {k for k in load_baseline(baseline_path) if in_scope(k[0], k[1])}
    new = [x for x in findings if x.baseline_key() not in baseline]
    stale = baseline - {x.baseline_key() for x in findings}
    for x in new:
        print(x.report_line())
    for k in sorted(stale):
        print("nomad_analyze: stale baseline entry (finding no longer "
              "fires — remove it): %s" % "|".join(k), file=sys.stderr)
    print("nomad_analyze: %d finding(s), %d baselined, %d file(s), "
          "%d confined type(s)" % (len(new), len(findings) - len(new), len(files),
                                   len(ctx["confined"])))
    return 1 if new or stale else 0
