#!/usr/bin/env python3
"""nomad_analyze: shard-ownership escape analysis for the Nomad simulator.

Upgrades nomad_lint's token-level shard rule (NL008) to a structural
analysis over the whole tree. The analyzer builds an *ownership map* of
shard-confined types — seeded by the NOMAD_SHARD_CONFINED marker attribute
(src/base/annotations.h) and the Sim root, then closed over the member
object graph (everything a Sim owns is confined with it) — and reports:

  NA001  pointer/reference to confined state smuggled into a ShardMsg
         payload (reinterpret_cast / C-cast of an address into the integer
         arguments of ShardRouter::Send / Stage or a ShardMsg initializer)
  NA002  by-reference lambda capture crossing a thread seam (std::thread,
         std::async, a thread-pool emplace, or a shard_setup assignment)
         outside the sanctioned shard runtime
  NA003  pointer/reference to a shard-confined type in static or
         namespace-scope storage (confined state must never be reachable
         from another shard through a global)
  NA004  cross-shard object access (`sims[i]->`, `shards[i].`) outside the
         shard runtime's epoch/drain/setup/merge entry points
  NA005  nondeterminism source (wall clock, OS randomness) reachable from
         simulation code via the call graph — the call-graph upgrade of
         nomad_lint NL003

Two backends:
  internal  no-deps structural engine (default; carries the full selftest)
  clang     python3 clang.cindex over compile_commands.json; cross-checks
            the ownership seeds against the real AST annotate attributes
            and runs AST-level escape checks. Strict: unavailable bindings
            or TU parse errors fail the run.
  auto      clang when importable, internal otherwise

Findings are suppressed through a baseline file (default
tools/nomad_analyze/baseline.txt) of `rule|path|fingerprint` lines, where
the fingerprint hashes the finding's normalized source line so entries
survive unrelated line drift. Every baseline entry must carry a
justification comment; --update-baseline regenerates the file from current
findings with TODO placeholders.

Exit codes: 0 = clean (or fully baselined), 1 = findings, 2 = usage/error.
"""

import argparse
import hashlib
import json
import os
import re
import sys

TOOL_VERSION = "nomad-analyze-1"

RULES = {
    "NA001": "pointer escapes into ShardMsg payload",
    "NA002": "by-ref lambda capture crosses a thread seam",
    "NA003": "pointer to shard-confined type in static storage",
    "NA004": "cross-shard object access outside the shard runtime",
    "NA005": "nondeterminism source reachable from sim code",
}

# Files that ARE the shard runtime: the lockstep loop, the router, and the
# chaos harness own the cross-shard seams, so thread spawns and sims[s]
# indexing inside them are the mechanism, not a violation.
SHARD_RUNTIME_FILES = {
    "src/sim/shard.cc",
    "src/sim/shard.h",
    "src/harness/sharded_sim.cc",
    "src/harness/sharded_sim.h",
}

# Function names allowed to index across the shard array even outside the
# runtime files (single-threaded setup and merge phases).
SHARD_RUNTIME_FUNCS = {
    "RunLockstep",
    "RunShardedMicro",
    "RunShardedYcsb",
    "RunChaosCell",
}

# Ownership-map roots beyond the NOMAD_SHARD_CONFINED markers. Sim is the
# canonical per-shard object: everything it transitively owns is confined.
OWNERSHIP_SEEDS = {"Sim"}

# Wall-clock / OS-randomness sinks (NA005). The sim's virtual clock methods
# (Engine::now, Clock) do not match: every pattern is anchored on the
# std::chrono / libc spelling.
NONDET_SINKS = [
    (re.compile(r"steady_clock::now"), "std::chrono::steady_clock::now"),
    (re.compile(r"system_clock::now"), "std::chrono::system_clock::now"),
    (re.compile(r"high_resolution_clock::now"), "std::chrono::high_resolution_clock::now"),
    (re.compile(r"std::random_device|\brandom_device\s+\w"), "std::random_device"),
    (re.compile(r"(?<![\w:.])rand\s*\(\s*\)"), "rand()"),
    (re.compile(r"(?<![\w:.])srand\s*\("), "srand()"),
    (re.compile(r"(?<![\w:.])time\s*\(\s*(nullptr|NULL|0)?\s*\)"), "time()"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday()"),
    (re.compile(r"\bclock_gettime\s*\("), "clock_gettime()"),
]

# Directories whose functions count as "simulation paths" for NA005 roots.
SIM_PATH_PREFIXES = ("src/",)


# --------------------------------------------------------------------------
# Source model
# --------------------------------------------------------------------------

def strip_comments_and_strings(text):
    """Blanks comments and string/char literals, preserving offsets and
    newlines so line numbers survive."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and nxt == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = out[i + 1] = " "
                i += 2
        elif c == '"' or c == "'":
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out[i] = " "
                    i += 1
                    if i < n and text[i] != "\n":
                        out[i] = " "
                    i += 1
                    continue
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            i += 1
        else:
            i += 1
    return "".join(out)


class SourceFile:
    def __init__(self, path, text):
        self.path = path
        self.text = text
        self.stripped = strip_comments_and_strings(text)
        self.lines = self.stripped.split("\n")
        self.raw_lines = text.split("\n")


class Finding:
    def __init__(self, rule, path, line, message, snippet):
        self.rule = rule
        self.path = path
        self.line = line  # 1-based
        self.message = message
        self.snippet = snippet.strip()

    def fingerprint(self):
        norm = re.sub(r"\s+", " ", self.snippet)
        h = hashlib.sha1(
            ("%s|%s|%s" % (self.rule, self.path, norm)).encode()).hexdigest()
        return h[:12]

    def report_line(self):
        return "%s:%d: [%s] %s\n    %s\n    repro: nomad_analyze.py --only %s --file %s" % (
            self.path, self.line, self.rule, self.message, self.snippet,
            self.rule, self.path)

    def to_json(self):
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "snippet": self.snippet,
            "fingerprint": self.fingerprint(),
        }


def match_brace_span(text, open_idx):
    """Returns the index one past the brace that closes text[open_idx]=='{',
    or len(text) if unbalanced."""
    depth = 0
    for i in range(open_idx, len(text)):
        c = text[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


CLASS_RE = re.compile(
    r"\b(class|struct)\s+(?:NOMAD_SHARD_CONFINED\s+)?([A-Za-z_]\w*)\s*(?::[^;{]*)?\{")
MARKED_CLASS_RE = re.compile(
    r"\b(?:class|struct)\s+NOMAD_SHARD_CONFINED\s+([A-Za-z_]\w*)")


def collect_classes(files):
    """Returns (marked, members) where marked is the set of class names
    carrying NOMAD_SHARD_CONFINED and members maps class name -> set of
    type-name tokens referenced by its member declarations."""
    marked = set()
    members = {}
    for f in files:
        for m in MARKED_CLASS_RE.finditer(f.stripped):
            marked.add(m.group(2) if m.lastindex == 2 else m.group(1))
        for m in CLASS_RE.finditer(f.stripped):
            name = m.group(2)
            open_idx = f.stripped.index("{", m.end() - 1)
            body = f.stripped[open_idx:match_brace_span(f.stripped, open_idx)]
            # Type-name tokens from member declarations: every identifier
            # that begins with an uppercase letter (repo convention for
            # class names), including template arguments, e.g.
            # std::unique_ptr<Sim>, std::vector<MicroShardState>.
            refs = set(re.findall(r"\b([A-Z]\w+)\b", body))
            members.setdefault(name, set()).update(refs)
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
    for m in FUNC_RE.finditer(f.stripped):
        name = m.group(1).split("::")[-1]
        if name in FUNC_KEYWORD_BLOCKLIST:
            continue
        open_idx = f.stripped.index("{", m.end() - 1)
        close_idx = match_brace_span(f.stripped, open_idx)
        start_line = f.stripped.count("\n", 0, m.start()) + 1
        end_line = f.stripped.count("\n", 0, close_idx) + 1
        spans.append(FuncSpan(name, start_line, end_line,
                              f.stripped[open_idx:close_idx]))
    return spans


def enclosing_function(spans, line):
    """Innermost (shortest) span containing the line."""
    best = None
    for s in spans:
        if s.start_line <= line <= s.end_line:
            if best is None or (s.end_line - s.start_line) < (best.end_line - best.start_line):
                best = s
    return best


# --------------------------------------------------------------------------
# Rules
# --------------------------------------------------------------------------

SEND_CALL_RE = re.compile(r"\b(?:Send|Stage)\s*\(")
SHARDMSG_INIT_RE = re.compile(r"\bShardMsg\s*\{")
PTR_SMUGGLE_RE = re.compile(
    r"reinterpret_cast\s*<\s*(?:u?int(?:64|ptr)_t|unsigned\s+long(?:\s+long)?)\s*>"
    r"|\(\s*(?:u?int(?:64|ptr)_t|unsigned\s+long)\s*\)\s*&")


def balanced_args(text, open_idx, open_ch="(", close_ch=")"):
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return text[open_idx:i + 1]
    return text[open_idx:]


def rule_na001(f, ctx):
    """Pointers cast to integers inside Send/Stage arguments or ShardMsg
    initializers: the payload words are value-only by contract."""
    for pat, open_ch, close_ch in ((SEND_CALL_RE, "(", ")"),
                                   (SHARDMSG_INIT_RE, "{", "}")):
        for m in pat.finditer(f.stripped):
            open_idx = f.stripped.index(open_ch, m.end() - 1)
            args = balanced_args(f.stripped, open_idx, open_ch, close_ch)
            sm = PTR_SMUGGLE_RE.search(args)
            if sm is None:
                continue
            line = f.stripped.count("\n", 0, open_idx + sm.start()) + 1
            yield Finding("NA001", f.path, line,
                          "pointer cast to integer inside a ShardMsg payload; "
                          "messages may carry values only — the pointee is "
                          "confined to the sending shard",
                          f.raw_lines[line - 1])


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
    if f.path in SHARD_RUNTIME_FILES:
        return
    for pat, what in THREAD_SEAM_RES:
        for m in pat.finditer(f.stripped):
            # The capture list must open shortly after the seam token —
            # same statement, allowing the lambda to start on a following
            # line.
            window = f.stripped[m.end():m.end() + 160]
            stmt_end = window.find(";")
            if stmt_end != -1:
                window = window[:stmt_end + 1]
            cm = BYREF_CAPTURE_RE.search(window)
            if cm is None:
                continue
            line = f.stripped.count("\n", 0, m.start()) + 1
            yield Finding("NA002", f.path, line,
                          "by-reference lambda capture handed to %s; captured "
                          "references cross the thread seam — capture by "
                          "value or route through ShardRouter messages" % what,
                          f.raw_lines[line - 1])


STATIC_DECL_RE = re.compile(
    r"(?:^|\n)[ \t]*(static\s+)?((?:[\w:]+\s+)*?([A-Za-z_]\w*)\s*(?:<[^;<>]*>)?\s*[*&])\s*"
    r"([A-Za-z_]\w*)\s*(?:=[^;]*)?;")

NAMESPACE_BRACE_RE = re.compile(r"\bnamespace(\s+[A-Za-z_]\w*)?\s*$")


def namespace_scope_mask(stripped):
    """Per-character: True iff the position is at namespace scope — outside
    every paren and outside every brace pair except namespace braces. This
    is what separates a real global from a class member, a function local,
    or a default argument."""
    mask = [False] * len(stripped)
    brace_stack = []  # one bool per open brace: is it a namespace brace?
    paren = 0
    for i, c in enumerate(stripped):
        if c == "(":
            paren += 1
        elif c == ")":
            paren = max(0, paren - 1)
        elif c == "{":
            back = stripped[max(0, i - 64):i]
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
    mask = namespace_scope_mask(f.stripped)
    for m in STATIC_DECL_RE.finditer(f.stripped):
        is_static, decl, type_name, var = m.group(1), m.group(2), m.group(3), m.group(4)
        if "constexpr" in decl or "const char" in decl:
            continue
        if type_name not in confined:
            continue
        decl_start = m.start() + (1 if f.stripped[m.start():m.start() + 1] == "\n" else 0)
        # Skip leading whitespace to the first declaration token.
        while decl_start < len(f.stripped) and f.stripped[decl_start] in " \t\n":
            decl_start += 1
        # A namespace-scope declaration is static storage with or without
        # the keyword; everywhere else (class member, function local,
        # parameter default) only an explicit `static` makes it static.
        if not is_static and not (decl_start < len(mask) and mask[decl_start]):
            continue
        line = f.stripped.count("\n", 0, decl_start) + 1
        yield Finding("NA003", f.path, line,
                      "'%s' stores a pointer to shard-confined type %s in "
                      "static storage; confined state must only be reachable "
                      "through its owning shard" % (var, type_name),
                      f.raw_lines[line - 1])


CROSS_SHARD_RE = re.compile(r"\b(sims?|shards)\s*\[\s*[^]]+\]\s*(?:->|\.)")


def rule_na004(f, ctx):
    """Indexing the shard array outside the shard runtime: only the
    lockstep loop's entry points may reach across sims[i]."""
    if f.path in SHARD_RUNTIME_FILES:
        return
    if not f.path.startswith("src/"):
        return
    spans = ctx["functions"][f.path]
    for m in CROSS_SHARD_RE.finditer(f.stripped):
        line = f.stripped.count("\n", 0, m.start()) + 1
        inside = enclosing_function(spans, line)
        if inside is not None and inside.name in SHARD_RUNTIME_FUNCS:
            continue
        yield Finding("NA004", f.path, line,
                      "cross-shard object access outside the shard runtime "
                      "(function %s); route through ShardRouter messages or "
                      "one of %s" % (inside.name if inside else "<file scope>",
                                     "/".join(sorted(SHARD_RUNTIME_FUNCS))),
                      f.raw_lines[line - 1])


CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")


def rule_na005(files, ctx):
    """Call-graph reachability from simulation functions to wall-clock /
    randomness sinks. Direct uses and transitive chains both fire; the
    chain is spelled out in the message."""
    # function name -> list of (path, span)
    defs = {}
    for f in files:
        for s in ctx["functions"][f.path]:
            defs.setdefault(s.name, []).append((f.path, s))

    def sink_in(body):
        for pat, label in NONDET_SINKS:
            if pat.search(body):
                return label
        return None

    # memo: func name -> (sink label, chain tuple) or None
    memo = {}

    def reach(name, stack):
        if name in memo:
            return memo[name]
        if name in stack:
            return None
        entries = defs.get(name)
        if not entries:
            return None
        stack = stack | {name}
        for _path, span in entries:
            label = sink_in(span.body)
            if label:
                memo[name] = (label, (name,))
                return memo[name]
        for _path, span in entries:
            for callee in set(CALL_RE.findall(span.body)):
                if callee == name or callee in FUNC_KEYWORD_BLOCKLIST:
                    continue
                r = reach(callee, stack)
                if r:
                    memo[name] = (r[0], (name,) + r[1])
                    return memo[name]
        memo[name] = None
        return None

    for f in files:
        if not f.path.startswith(SIM_PATH_PREFIXES):
            continue
        for span in ctx["functions"][f.path]:
            label = sink_in(span.body)
            chain = None
            if label:
                chain = (span.name,)
            else:
                for callee in set(CALL_RE.findall(span.body)):
                    if callee == span.name or callee in FUNC_KEYWORD_BLOCKLIST:
                        continue
                    r = reach(callee, frozenset({span.name}))
                    if r:
                        label, chain = r[0], (span.name,) + r[1]
                        break
            if label is None:
                continue
            line = span.start_line
            yield Finding("NA005", f.path, line,
                          "nondeterminism source %s reachable from sim "
                          "function via %s; use the virtual clock / seeded "
                          "RNG instead" % (label, " -> ".join(chain)),
                          f.raw_lines[line - 1])


PER_FILE_RULES = {
    "NA001": rule_na001,
    "NA002": rule_na002,
    "NA003": rule_na003,
    "NA004": rule_na004,
}


# --------------------------------------------------------------------------
# Engine
# --------------------------------------------------------------------------

def build_context(files):
    marked, members = collect_classes(files)
    confined = ownership_closure(marked, members)
    functions = {f.path: collect_functions(f) for f in files}
    return {"marked": marked, "confined": confined, "functions": functions}


def analyze(files, only=None, cache_dir=None):
    ctx = build_context(files)
    findings = []
    ctx_key = hashlib.sha256(
        (TOOL_VERSION + "|" + ",".join(sorted(ctx["confined"]))).encode()).hexdigest()
    for f in files:
        cached = None
        cache_path = None
        if cache_dir:
            key = hashlib.sha256(
                (ctx_key + "|" + f.path + "|" + f.text).encode()).hexdigest()
            cache_path = os.path.join(cache_dir, key + ".json")
            if os.path.exists(cache_path):
                try:
                    with open(cache_path) as fh:
                        cached = json.load(fh)
                except (OSError, ValueError):
                    cached = None
        if cached is not None:
            file_findings = [Finding(d["rule"], d["path"], d["line"],
                                     d["message"], d["snippet"])
                             for d in cached]
        else:
            file_findings = []
            for rule_id, fn in PER_FILE_RULES.items():
                file_findings.extend(fn(f, ctx))
            if cache_path:
                os.makedirs(cache_dir, exist_ok=True)
                with open(cache_path, "w") as fh:
                    json.dump([x.to_json() for x in file_findings], fh)
        findings.extend(file_findings)
    findings.extend(rule_na005(files, ctx))  # cross-file: never cached
    if only:
        findings = [x for x in findings if x.rule == only]
    findings.sort(key=lambda x: (x.path, x.line, x.rule))
    return findings, ctx


def load_files(root, paths=None):
    files = []
    if paths is None:
        paths = []
        for sub in ("src", "bench", "tools"):
            top = os.path.join(root, sub)
            for dirpath, _dirs, names in os.walk(top):
                for name in sorted(names):
                    if name.endswith((".cc", ".h")):
                        paths.append(os.path.relpath(
                            os.path.join(dirpath, name), root))
        paths.sort()
    for rel in paths:
        full = os.path.join(root, rel)
        try:
            with open(full, encoding="utf-8", errors="replace") as fh:
                files.append(SourceFile(rel.replace(os.sep, "/"), fh.read()))
        except OSError as e:
            print("nomad_analyze: cannot read %s: %s" % (rel, e), file=sys.stderr)
            sys.exit(2)
    return files


# --------------------------------------------------------------------------
# Baseline
# --------------------------------------------------------------------------

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


def baseline_key(finding):
    return (finding.rule, finding.path, finding.fingerprint())


def write_baseline(path, findings):
    with open(path, "w") as fh:
        fh.write("# nomad_analyze findings baseline.\n")
        fh.write("# Format: rule|path|fingerprint   (fingerprint = content hash,\n")
        fh.write("# stable across line drift). Every entry needs a justification\n")
        fh.write("# comment explaining why the finding is a false positive.\n")
        for x in findings:
            fh.write("# TODO: justify.\n")
            fh.write("%s|%s|%s\n" % baseline_key(x))


# --------------------------------------------------------------------------
# clang.cindex backend (optional, strict when requested)
# --------------------------------------------------------------------------

def try_import_clang():
    try:
        import clang.cindex as cindex  # type: ignore
        return cindex
    except Exception:
        return None


def clang_findings(root, compdb_dir, cindex, text_confined):
    """Walks every TU from compile_commands.json; returns the set of class
    names carrying the nomad::shard_confined annotate attribute in the AST
    plus AST-level NA003 findings. Strict: TU parse errors are fatal — a
    TU the analyzer cannot see is a TU it cannot vouch for."""
    try:
        db = cindex.CompilationDatabase.fromDirectory(compdb_dir)
    except cindex.CompilationDatabaseError:
        print("nomad_analyze: cannot load compile_commands.json from %s"
              % compdb_dir, file=sys.stderr)
        sys.exit(2)
    index = cindex.Index.create()
    annotated = set()
    findings = []
    seen_files = set()
    for cmd in db.getAllCompileCommands():
        path = os.path.normpath(cmd.filename)
        if path in seen_files:
            continue
        seen_files.add(path)
        args = [a for a in list(cmd.arguments)[1:] if a != cmd.filename]
        tu = index.parse(cmd.filename, args=args)
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
# Selftest corpus
# --------------------------------------------------------------------------

SELFTEST_SUPPORT = """
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

# (case name, rule, path, code, expect_fire)
SELFTEST_CASES = [
    ("na001_reinterpret_into_stage", "NA001", "src/sim/bad1.cc", """
void Leak(ShardRouter& r, FramePool& pool) {
  r.Stage(0, 1, kShardMsgUser, reinterpret_cast<uint64_t>(&pool), 0);
}
""", True),
    ("na001_uintptr_into_send", "NA001", "src/sim/bad2.cc", """
void Leak(ShardRouter& r, CounterSet* c) {
  r.Send(0, 1, kShardMsgUser, reinterpret_cast<uintptr_t>(c), 0);
}
""", True),
    ("na001_ccast_into_msg_init", "NA001", "src/sim/bad3.cc", """
ShardMsg Make(FramePool& pool) {
  return ShardMsg{0, kShardMsgUser, 0, (uint64_t)&pool, 0};
}
""", True),
    ("na001_plain_values_ok", "NA001", "src/sim/good1.cc", """
void Report(ShardRouter& r, uint64_t ops, uint64_t now) {
  r.Stage(0, 1, kShardMsgProgress, ops, now);
}
""", False),
    ("na002_std_thread_byref", "NA002", "src/nomad/bad4.cc", """
void Spawn(CounterSet& counters) {
  std::thread t([&] { counters.Add(1); });
  t.join();
}
""", True),
    ("na002_async_byref", "NA002", "src/nomad/bad5.cc", """
void Launch(FramePool& pool) {
  auto fut = std::async(std::launch::async, [&pool] { pool.Use(); });
}
""", True),
    ("na002_pool_emplace_byref", "NA002", "src/nomad/bad6.cc", """
void Fill(std::vector<std::thread>& pool, Sim& sim) {
  pool.emplace_back([&sim] { sim.Step(); });
}
""", True),
    ("na002_shard_setup_byref", "NA002", "src/nomad/bad7.cc", """
void Arm(ShardedRunConfig& cfg, FaultPlan& plan) {
  cfg.shard_setup = [&plan](uint32_t shard, Sim& sim) { plan.Install(shard, sim); };
}
""", True),
    ("na002_byvalue_ok", "NA002", "src/nomad/good2.cc", """
void Spawn(uint64_t seed) {
  std::thread t([seed] { Work(seed); });
  t.join();
}
""", False),
    ("na002_runtime_file_ok", "NA002", "src/harness/sharded_sim.cc", """
void RunPool(std::vector<std::thread>& pool) {
  pool.emplace_back([&] { Work(); });
}
""", False),
    ("na003_static_confined_ptr", "NA003", "src/mm/bad8.cc", """
static FramePool* g_pool = nullptr;
void Touch() { g_pool = nullptr; }
""", True),
    ("na003_namespace_scope_ptr", "NA003", "src/mm/bad9.cc", """
Sim* g_current_sim = nullptr;
""", True),
    ("na003_closure_member_ptr", "NA003", "src/mm/bad10.cc", """
static LruList* g_lru = nullptr;
""", True),
    ("na003_function_local_ok", "NA003", "src/mm/good3.cc", """
void Use(FramePool& pool) {
  FramePool* local = &pool;
  local->Tick();
}
""", False),
    ("na003_unconfined_type_ok", "NA003", "src/mm/good4.cc", """
static FreeType* g_free = nullptr;
""", False),
    ("na004_cross_shard_access", "NA004", "src/nomad/bad11.cc", """
void Steal(std::vector<Sim*>& sims, uint32_t victim) {
  sims[victim]->pool_.Take(1);
}
""", True),
    ("na004_shards_array_access", "NA004", "src/nomad/bad12.cc", """
void Peek(std::vector<ShardState>& shards, uint32_t s) {
  shards[s].counters.Add(1);
}
""", True),
    ("na004_runtime_func_ok", "NA004", "src/nomad/good5.cc", """
void RunLockstep(std::vector<Sim*>& sims) {
  for (uint32_t s = 0; s < sims.size(); s++) {
    sims[s]->Step();
  }
}
""", False),
    ("na005_direct_wall_clock", "NA005", "src/sim/bad13.cc", """
uint64_t Stamp() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}
""", True),
    ("na005_transitive_chain", "NA005", "src/sim/bad14.cc", """
static uint64_t Helper() {
  return std::chrono::system_clock::now().time_since_epoch().count();
}
uint64_t Epoch() {
  return Helper();
}
""", True),
    ("na005_libc_rand", "NA005", "src/nomad/bad15.cc", """
int Jitter() {
  return rand() % 7;
}
""", True),
    ("na005_virtual_clock_ok", "NA005", "src/sim/good6.cc", """
uint64_t Now(const Engine& engine) {
  return engine.now();
}
""", False),
    ("na005_bench_wall_clock_ok", "NA005", "bench/good7.cc", """
double WallSeconds() {
  return std::chrono::duration<double>(
      std::chrono::steady_clock::now().time_since_epoch()).count();
}
""", False),
]


def run_selftest():
    failures = []
    fired_total = 0
    for name, rule, path, code, expect in SELFTEST_CASES:
        files = [SourceFile("src/base/support.h", SELFTEST_SUPPORT),
                 SourceFile(path, code)]
        findings, _ctx = analyze(files)
        fired = any(x.rule == rule and x.path == path for x in findings)
        if fired != expect:
            failures.append("%s: expected %s, got findings: %s" % (
                name, "fire" if expect else "quiet",
                "; ".join(x.report_line().split("\n")[0] for x in findings) or "none"))
        elif expect:
            fired_total += 1
    positives = sum(1 for c in SELFTEST_CASES if c[4])
    print("nomad_analyze selftest: %d/%d violation cases caught, %d/%d clean "
          "cases quiet" % (fired_total, positives,
                           sum(1 for c in SELFTEST_CASES if not c[4]) - sum(
                               1 for fmsg in failures if "quiet" in fmsg),
                           sum(1 for c in SELFTEST_CASES if not c[4])))
    if failures:
        for msg in failures:
            print("FAIL %s" % msg)
        return 1
    if positives < 12:
        print("FAIL selftest corpus shrank below 12 violation cases")
        return 1
    print("nomad_analyze selftest: OK")
    return 0


# --------------------------------------------------------------------------
# main
# --------------------------------------------------------------------------

def main(argv):
    ap = argparse.ArgumentParser(
        prog="nomad_analyze",
        description="shard-ownership escape analysis over the Nomad tree")
    ap.add_argument("--root", default=".", help="repository root")
    ap.add_argument("--backend", choices=("internal", "clang", "auto"),
                    default="internal")
    ap.add_argument("--compdb", default="build",
                    help="directory containing compile_commands.json "
                         "(clang backend)")
    ap.add_argument("--baseline", default=None,
                    help="baseline file (default tools/nomad_analyze/"
                         "baseline.txt under --root)")
    ap.add_argument("--update-baseline", action="store_true")
    ap.add_argument("--json_out", default=None, help="write findings JSON")
    ap.add_argument("--cache", default=None,
                    help="directory for per-file result cache")
    ap.add_argument("--only", default=None, choices=sorted(RULES),
                    help="run a single rule")
    ap.add_argument("--file", action="append", default=None,
                    help="restrict to these files (repeatable)")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--print-ownership", action="store_true",
                    help="dump the confined-type closure and exit")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule_id in sorted(RULES):
            print("%s  %s" % (rule_id, RULES[rule_id]))
        return 0
    if args.selftest:
        return run_selftest()

    root = os.path.abspath(args.root)
    files = load_files(root, args.file)
    findings, ctx = analyze(files, only=args.only, cache_dir=args.cache)

    if args.print_ownership:
        print("marked: %s" % " ".join(sorted(ctx["marked"])))
        print("confined closure (%d types): %s"
              % (len(ctx["confined"]), " ".join(sorted(ctx["confined"]))))
        return 0

    cindex = None
    if args.backend in ("clang", "auto"):
        cindex = try_import_clang()
        if cindex is None and args.backend == "clang":
            print("nomad_analyze: --backend=clang requested but clang.cindex "
                  "is unavailable", file=sys.stderr)
            return 2
    if cindex is not None:
        annotated, ast_findings = clang_findings(root, args.compdb, cindex,
                                                 ctx["confined"])
        textual_marked = ctx["marked"]
        lost = textual_marked - annotated
        if lost:
            print("nomad_analyze: NOMAD_SHARD_CONFINED markers missing from "
                  "the AST (macro not expanding?): %s"
                  % " ".join(sorted(lost)), file=sys.stderr)
            return 1
        known = {baseline_key(x) for x in findings}
        findings.extend(x for x in ast_findings if baseline_key(x) not in known)

    baseline_path = args.baseline or os.path.join(
        root, "tools", "nomad_analyze", "baseline.txt")
    if args.update_baseline:
        write_baseline(baseline_path, findings)
        print("nomad_analyze: wrote %d entries to %s"
              % (len(findings), baseline_path))
        return 0

    baseline = load_baseline(baseline_path)
    new = [x for x in findings if baseline_key(x) not in baseline]
    suppressed = [x for x in findings if baseline_key(x) in baseline]
    stale = baseline - {baseline_key(x) for x in findings}

    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump({
                "version": TOOL_VERSION,
                "findings": [x.to_json() for x in new],
                "suppressed": [x.to_json() for x in suppressed],
                "stale_baseline": sorted("|".join(k) for k in stale),
                "confined_types": sorted(ctx["confined"]),
            }, fh, indent=2)
            fh.write("\n")

    for x in new:
        print(x.report_line())
    if stale:
        for k in sorted(stale):
            print("nomad_analyze: stale baseline entry (finding no longer "
                  "fires — remove it): %s" % "|".join(k), file=sys.stderr)
    print("nomad_analyze: %d finding(s), %d baselined, %d file(s), "
          "%d confined type(s)" % (len(new), len(suppressed), len(files),
                                   len(ctx["confined"])))
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
