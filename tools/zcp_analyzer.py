#!/usr/bin/env python3
"""zcp_analyzer: interprocedural ZCP conformance analysis.

The Meerkat fast path (functions marked ZCP_FAST_PATH) must stay free of
cross-core coordination (paper §3). That is a whole-program property: a
blocking lock hidden one call deep breaks it as surely as one in the marked
body. This analyzer builds the interprocedural call graph of src/, computes
the transitive closure of every ZCP_FAST_PATH root, and audits everything
reachable, plus three repo-wide checks (atomic orders, writable globals,
lock order) and an inventory that pins the root set and every atomic order.

Rules (fingerprints never embed line numbers, so baselines survive churn):

  ZCPA001  a blocking mutex acquisition (Mutex, RecursiveMutex, SharedMutex,
           std::mutex guards) is reachable from a fast-path root. KeyLock
           (the per-key/structural spinlock) is sanctioned.
  ZCPA002  an allocating call (new, malloc, make_unique, make_shared) is
           reachable from a fast-path root. Container ops that may allocate
           are out of scope (steady-state capacity reuse).
  ZCPA003  a cross-partition trecord access is reachable from a fast-path
           root (Partition(expr) with a non-self core, or the *All helpers).
  ZCPA004  std::atomic operation without an explicit memory order, anywhere
           in src/. Receivers are resolved through the class member-type
           map (members inherited from base classes included), locals
           (including `auto` range-for variables) and arrays of atomics, so
           any atomic is covered no matter what it is called.
           Atomics inside lambda bodies count too.
  ZCPA005  a writable global: any writable namespace-scope variable in
           src/, atomic or not, is a finding at its declaration unless it
           carries an inline waiver with a reason; a writable non-atomic
           global referenced from the fast-path closure is a finding at the
           reference. Writable process-globals are cross-core shared state
           by construction.
  ZCPA010  lock-order cycle: the lock-order graph extracted from nested
           guard scopes (including locks acquired by callees while a guard
           is held) contains a cycle — a static deadlock.
  ZCPA020  inventory drift: the fast-path root set or the set of atomic
           operations and their explicit orders no longer matches the
           committed inventory (tools/atomic_order_baseline.json). Deleting
           a ZCP_FAST_PATH marker shows up here. Run with --update-inventory
           after updating DESIGN.md §8.

Backends (--backend auto|libclang|internal):

  libclang   clang.cindex over compile_commands.json (-p DIR) contributes
             the semantic call graph on top of the internal model.
  internal   pure-stdlib C++ source model: scope-aware function extraction,
             class member-type maps for receiver resolution, brace-matched
             guard scopes. The reference backend — always available, used
             by the ctest entries, and the cross-check in CI.

  `auto` tries libclang and falls back to internal (with a warning) if it
  is missing or crashes; --strict-backend makes such a fallback fatal (CI
  uses it so a broken clang setup cannot silently weaken the job).

Boundaries: a function marked ZCP_SLOW_PATH (src/common/annotations.h) is
an explicit fast/slow boundary — its caller provably leaves the fast path
before invoking it (the dispatch loop releases the shared gate and flushes
staged replies before maintenance handling). Closure traversal stops there;
--list-roots prints every boundary so the set stays reviewable. Calls
inside lambda bodies are treated as deferred (thread entry functions,
stored callbacks) and are not attributed to the enclosing function's locks
or call edges — the one known soundness gap, shared with the guard-scope
extraction, for immediately-invoked lambdas. Their atomic sites are still
recorded.

Calls: a call through a variable (`v(field)`, a visitor walking a record)
is a call of its operator(). A name too common to follow repo-wide still
reaches the candidates defined in the caller's own file, so an overload set
such as the wire codec's Layout functions stays inside the closure. Calls
through a template parameter reach every instantiation's candidates, so a
chain may pass through a visitor that never makes the call.

Baseline (--baseline): {"findings": [{"fp": <fingerprint>, "why": <reason>},
...]}. Every entry must carry a non-empty "why"; anything else is an error.
Suppression: append `// zcp-analyzer: allow(ZCPAxxx) <reason>` to the
offending line, or put it in a standalone comment block directly above it.
A waiver without a reason is ignored.

--self-test runs the fixture corpus in tools/zcp_analyzer_fixtures/: one
known-bad TU per rule asserting the rule fires (with the full call chain),
lines marked `// planted: ZCPAxxx` asserting one finding per planted site,
clean TUs asserting silence, and marker-removal variants asserting that the
silence is earned.
"""

import argparse
import json
import re
import shlex
import sys
from collections import Counter, defaultdict
from pathlib import Path

RULES = {
    "ZCPA001": "blocking mutex acquisition reachable from fast-path root",
    "ZCPA002": "allocating call reachable from fast-path root",
    "ZCPA003": "cross-partition access reachable from fast-path root",
    "ZCPA004": "atomic operation without explicit memory order",
    "ZCPA005": "writable global",
    "ZCPA010": "lock-order cycle (static deadlock)",
    "ZCPA020": "inventory drift vs committed baseline",
}

DEFAULT_SRC_GLOBS = ["src/**/*.h", "src/**/*.cc"]
MAX_CHAIN_DEPTH = 32

BLOCKING_GUARD_TYPES = {"Mutex", "RecursiveMutex", "SharedMutex", "std::mutex",
                        "std::recursive_mutex", "std::shared_mutex"}
SPIN_GUARD_TYPES = {"KeyLock"}

ALLOC_RE = re.compile(
    r"(?<![\w.])new\b(?!\s*\()"
    r"|(?<![\w.])(?:std::)?(?:malloc|calloc|realloc)\s*\("
    r"|\bstd::make_unique\b|\bstd::make_shared\b"
    r"|(?<!std::)(?<![\w.])make_unique\s*<|(?<!std::)(?<![\w.])make_shared\s*<")

CROSS_PARTITION_CALLS_RE = re.compile(
    r"\b(?:SnapshotAll|ReplaceAll|ClearPendingAll|ClearAll|"
    r"ForEachCommitted)\s*\(")
PARTITION_CALL_RE = re.compile(r"\bPartition\s*\(\s*([^()]*?)\s*\)")
PARTITION_SELF_ARG_RE = re.compile(
    r"(?:\w+\s*%\s*)?(?:\w*core\w*|\w*partition\w*|dap_index_)")

ATOMIC_OPS = ("load", "store", "exchange", "fetch_add", "fetch_sub",
              "fetch_and", "fetch_or", "fetch_xor", "compare_exchange_weak",
              "compare_exchange_strong", "test_and_set", "clear", "test",
              "wait", "notify_one", "notify_all")
# `.op(` / `->op(`; the receiver is recovered by scanning backwards over the
# postfix expression (receiver_before), so subscripts holding operators and
# calls (`core_load_[core % core_load_.size()].inflight`) resolve too.
ATOMIC_OP_RE = re.compile(
    r"(?:\.|->)\s*(" + "|".join(ATOMIC_OPS) + r")\s*\(")
FENCE_RE = re.compile(r"\b(?:std::)?atomic_thread_fence\s*\(")
ORDER_RE = re.compile(r"memory_order(?:_|::\s*)(\w+)")
NO_ORDER_PARAM_OPS = {"notify_one", "notify_all"}
# Method names shared with containers (clear), futures/condvars (wait,
# notify_*) or bitsets (test): never attributed to an atomic by name-match
# fallback alone — the receiver's type must resolve.
GENERIC_NAME_OPS = {"clear", "test", "wait", "notify_one", "notify_all"}

# A waiver in a source comment: the rule id plus a reason on the same line.
# The comment stripper keeps only the waived rule ids, as `//zcp:ZCPAxxx`.
WAIVER_RE = re.compile(r"zcp-analyzer:\s*allow\((ZCPA\d{3})\)(?=[ \t]*\S)")
KEPT_WAIVER_RE = re.compile(r"//zcp:(ZCPA\d{3})")

# Function-like annotation macros (src/common/annotations.h). An all-caps
# name followed by '(' is one of these only if listed here; any other
# (WireWriter::U32, U64) is an ordinary function.
ANNOTATION_MACROS = {
    "CAPABILITY", "GUARDED_BY", "PT_GUARDED_BY", "ACQUIRED_BEFORE",
    "ACQUIRED_AFTER", "REQUIRES", "REQUIRES_SHARED", "ACQUIRE",
    "ACQUIRE_SHARED", "RELEASE", "RELEASE_SHARED", "RELEASE_GENERIC",
    "TRY_ACQUIRE", "TRY_ACQUIRE_SHARED", "EXCLUDES", "ASSERT_CAPABILITY",
    "ASSERT_SHARED_CAPABILITY", "RETURN_CAPABILITY",
}

CALL_RE = re.compile(r"(?<![\w.>:])((?:[A-Za-z_]\w*::)*[A-Za-z_]\w*)\s*\(")
MEMBER_CALL_RE = re.compile(
    r"([A-Za-z_]\w*(?:\[[^\]]*\])?)\s*(?:\.|->)\s*([A-Za-z_]\w*)\s*\(")
NOT_CALLS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof", "alignas",
    "catch", "new", "delete", "static_cast", "dynamic_cast", "const_cast",
    "reinterpret_cast", "decltype", "defined", "assert", "static_assert",
    "noexcept", "throw", "operator", "typeid", "co_await", "co_return",
} | ANNOTATION_MACROS
# Words that may precede a call expression without declaring anything: a
# variable name after any other word is a declaration (`Reader r(data, n)`).
CALL_KEYWORDS = {"return", "co_return", "co_yield", "throw", "else", "do",
                 "case", "not", "and", "or"}

GUARD_DECL_RE = re.compile(
    r"\b(LockGuard|MutexLock|RecursiveMutexLock|std::lock_guard|"
    r"std::unique_lock|std::scoped_lock|std::shared_lock)\b"
    r"\s*(?:<\s*([\w:]+)\s*>)?\s+\w+\s*[({]\s*([^;{}]*?)\s*[)}]\s*;")
MANUAL_LOCK_RE = re.compile(r"([\w.>\[\]-]+?)\s*(?:\.|->)\s*lock\s*\(\s*\)")

# A namespace-scope variable definition (the statement text, whitespace-
# joined, without its ';'). Immutable and per-thread storage is exempt, as
# are declarations that are not definitions (extern, using, friend, ...).
GLOBAL_DECL_RE = re.compile(
    r"^(?:(?:static|inline)\s+)*"
    r"(?!.*\b(?:const|constexpr|constinit|thread_local|typedef|using|return|"
    r"class|struct|union|enum|namespace|template|extern|friend|operator|"
    r"static_assert)\b)"
    r"(?P<type>[A-Za-z_][\w:]*(?:\s*<.*>)?)\s*[*&]*\s*"
    r"(?P<name>[A-Za-z_]\w*)\s*(?:\[[^\]]*\]\s*)?(?:=.*|\{.*\})?$")
ATOMIC_IN_TYPE_RE = re.compile(r"\batomic(?:_\w+)?\b")

FUNC_NAME_RE = re.compile(
    r"((?:[A-Za-z_]\w*::)*(?:~?[A-Za-z_]\w*|operator\s*(?:\(\)|\[\]|[^\s(]{1,3})))\s*\($")


def strip_comments_and_strings(text):
    """Blanks comments and string/char literals, preserving line structure.
    A `//` comment carrying waivers keeps only their rule ids, as
    `//zcp:ZCPAxxx`, so suppressions survive the strip but no comment text
    (a stray ';', words) leaks into the code around it."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            rules = WAIVER_RE.findall(text[i:j])
            kept = "".join(f"//zcp:{r} " for r in rules)
            out.append(kept.ljust(j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("".join("\n" if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif (c == "'" and i > 0 and text[i - 1].isdigit()
              and i + 1 < n and text[i + 1].isalnum()):
            out.append(c)  # A digit separator (10'000), not a char literal.
            i += 1
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote:
                    j += 1
                    break
                if text[j] == "\n":
                    break
                j += 1
            out.append(quote + " " * max(0, j - i - 2) + (quote if j <= n else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


PREPROC_RE = re.compile(r"^[ \t]*#.*$", re.MULTILINE)


def blank_preprocessor(text):
    """Blanks preprocessor directives (incl. backslash continuations) so
    they cannot corrupt scope-introducer classification. Keeps ZCP_FAST_PATH
    uses visible — only lines *starting* with '#' are blanked."""
    lines = text.split("\n")
    i = 0
    while i < len(lines):
        if lines[i].lstrip().startswith("#"):
            while lines[i].rstrip().endswith("\\") and i + 1 < len(lines):
                lines[i] = " " * len(lines[i])
                i += 1
            lines[i] = " " * len(lines[i])
        i += 1
    return "\n".join(lines)


LAMBDA_INTRO_RE = re.compile(
    r"\[[^\[\]]*\]\s*(?:\([^()]*\)\s*)?(?:mutable\s*|noexcept\s*|"
    r"->\s*[\w:<>&*\s]+?\s*)*\{")


def blank_lambda_bodies(body):
    """Blanks the interior of lambda bodies (preserving newlines and
    offsets) so deferred work — thread entry functions, callbacks stored
    for later — is not attributed to the enclosing function's lock scopes
    or call edges. A lambda invoked immediately still runs on this thread,
    but treating it as deferred only loses findings inside the lambda, it
    never fabricates a lock-order edge that cannot happen. Documented
    limitation: calls made *inside* lambdas are invisible to the closure."""
    out = body
    while True:
        changed = False
        for m in LAMBDA_INTRO_RE.finditer(out):
            # Reject subscripts: `arr[i] {` — the capture list must not be
            # preceded by an identifier char, `)` or `]`.
            j = m.start() - 1
            while j >= 0 and out[j] in " \t\n":
                j -= 1
            if j >= 0 and (out[j].isalnum() or out[j] in "_)]"):
                continue
            open_brace = m.end() - 1
            depth = 0
            for i in range(open_brace, len(out)):
                if out[i] == "{":
                    depth += 1
                elif out[i] == "}":
                    depth -= 1
                    if depth == 0:
                        interior = out[open_brace + 1:i]
                        if interior.strip():
                            blanked = "".join(
                                c if c == "\n" else " " for c in interior)
                            out = out[:open_brace + 1] + blanked + out[i:]
                            changed = True
                        break
            if changed:
                break
        if not changed:
            return out


class Op:
    """A coordination-relevant operation inside a function body."""
    __slots__ = ("kind", "file", "line", "snippet", "detail")

    def __init__(self, kind, file, line, snippet, detail=""):
        self.kind = kind          # lock | alloc | cross_partition | global_ref
        self.file = file
        self.line = line
        self.snippet = " ".join(snippet.split())[:160]
        self.detail = detail


class Call:
    __slots__ = ("name", "receiver", "line", "pos")

    def __init__(self, name, receiver, line, pos):
        self.name = name          # bare or Class::Method qualified text
        self.receiver = receiver  # receiver expression text or None
        self.line = line
        self.pos = pos            # offset within the function body


class LockAcq:
    __slots__ = ("lock_id", "kind", "line", "pos", "scope_end")

    def __init__(self, lock_id, kind, line, pos, scope_end):
        self.lock_id = lock_id    # normalized Class::member identity
        self.kind = kind          # blocking | spin
        self.line = line
        self.pos = pos
        self.scope_end = scope_end  # offset within body where the guard dies


class AtomicSite:
    __slots__ = ("file", "line", "object", "op", "order", "implicit",
                 "suppressed", "func")

    def __init__(self, file, line, object_, op, order, implicit, suppressed,
                 func):
        self.file = file
        self.line = line
        self.object = object_     # Class::member / file-scope name / <fence>
        self.op = op
        self.order = order        # e.g. "release", "acq_rel/acquire", "n/a"
        self.implicit = implicit
        self.suppressed = suppressed
        self.func = func


class Func:
    __slots__ = ("qual", "name", "cls", "file", "line", "fast_path",
                 "slow_path", "calls", "ops", "lock_acqs", "param_types",
                 "local_types", "local_atomics")

    def __init__(self, qual, name, cls, file, line, fast_path,
                 slow_path=False):
        self.qual = qual
        self.name = name
        self.cls = cls
        self.file = file
        self.line = line
        self.fast_path = fast_path
        self.slow_path = slow_path
        self.calls = []
        self.ops = []
        self.lock_acqs = []
        self.param_types = {}
        self.local_types = {}
        self.local_atomics = []   # (pos, `auto` range-for var, object or None)


class Model:
    """Backend-independent program model the analyses run on."""

    def __init__(self):
        self.funcs = []                       # all Func definitions
        self.by_qual = defaultdict(list)      # "Class::Name" and "Name" tails
        self.by_name = defaultdict(list)
        self.class_members = defaultdict(dict)   # cls -> member -> base type
        self.atomic_members = defaultdict(set)   # cls -> {member}
        self.class_bases = defaultdict(list)     # cls -> [base class]
        self.atomic_globals = set()
        self.writable_globals = {}            # non-atomic name -> (file, line, snippet)
        self.global_decls = []                # (file, line, name, waived)
        self.atomic_sites = []
        self.marked_decl_names = set()        # ZCP_FAST_PATH on declarations
        self.slow_decl_names = set()          # ZCP_SLOW_PATH on declarations
        self.backend = "internal"
        self.notes = []
        self.resolver = None   # the InternalBackend that built it: receiver types

    def declaring_class(self, cls, member, table=None):
        """The class, `cls` or one of its bases, that declares `member` in
        `table` (class_members by default), or None."""
        table = self.class_members if table is None else table
        seen, todo = set(), [cls]
        while todo:
            c = todo.pop(0)
            if c in seen:
                continue
            seen.add(c)
            if member in table.get(c, ()):
                return c
            todo.extend(self.class_bases.get(c, ()))
        return None

    def add_func(self, f):
        self.funcs.append(f)
        self.by_name[f.name].append(f)
        self.by_qual[f.qual].append(f)
        if f.cls:
            self.by_qual[f.cls + "::" + f.name].append(f)

    def finalize(self):
        # A ZCP_FAST_PATH marker on a declaration promotes every definition
        # of that name to a root, so a marker that looks applied is never
        # silently skipped.
        for f in self.funcs:
            key = (f.cls + "::" + f.name) if f.cls else f.name
            if key in self.marked_decl_names or f.name in self.marked_decl_names:
                f.fast_path = True
            if key in self.slow_decl_names or f.name in self.slow_decl_names:
                f.slow_path = True
        # A function cannot be both a root and a boundary; the root marker
        # wins (losing the boundary keeps findings, never hides them).
        for f in self.funcs:
            if f.fast_path and f.slow_path:
                self.notes.append(
                    f"{f.file}:{f.line}: {f.qual} carries both ZCP_FAST_PATH "
                    "and ZCP_SLOW_PATH; treating it as a fast-path root")
                f.slow_path = False


def suppressions_at(lines, idx):
    """Rules waived at stripped line `idx`: the waivers on the line itself
    plus a standalone comment block directly above it (the readable form for
    multi-line reasons). A trailing comment on the previous statement does
    not leak downward. Comment lines without a waiver were blanked by the
    stripper, so the walk crosses whitespace-only lines to reach the waiver
    at the top of a comment block."""
    out = set(KEPT_WAIVER_RE.findall(lines[idx]))
    j = idx - 1
    while j >= 0 and (not lines[j].strip() or lines[j].strip().startswith("//")):
        out |= set(KEPT_WAIVER_RE.findall(lines[j]))
        j -= 1
    return out


# ---------------------------------------------------------------------------
# Internal backend: scope-aware pure-Python C++ source model.
# ---------------------------------------------------------------------------

MEMBER_DECL_RE = re.compile(
    r"^(?P<type>(?:[\w:]+\s*<[^;]*>|[\w:]+))\s*[&*]*\s*"
    r"(?P<name>[A-Za-z_]\w*)\s*(?:\[[^\]]*\])?\s*(?:\{[^;]*\}|=[^;]*)?$")
DECL_QUALIFIERS_RE = re.compile(
    r"\b(?:mutable|static|inline|constexpr|constinit|volatile|alignas\s*\([^)]*\)|"
    r"GUARDED_BY\s*\([^)]*\)|PT_GUARDED_BY\s*\([^)]*\)|"
    r"ACQUIRED_BEFORE\s*\([^)]*\)|ACQUIRED_AFTER\s*\([^)]*\))\s*")
LOCAL_DECL_RE = re.compile(
    r"\b([A-Z]\w*(?:::\w+)*)\s*[&*]*\s+([a-z_]\w*)\s*(?:=|\(|\{|;)")
# Atomic locals and references, whatever their name: `std::atomic<bool>
# stop{false};`, `std::atomic<uint64_t>& word = ...`.
ATOMIC_LOCAL_RE = re.compile(
    r"\b(?:std::)?atomic(?:\s*<[^;{}()]*>|_\w+)\s*[&*]*\s*([A-Za-z_]\w*)"
    r"\s*(?:=|\{|\(|;)")
RANGE_FOR_RE = re.compile(
    r"\bfor\s*\(\s*(?:const\s+)?([\w:]+(?:\s*<[^;()]*?>)?)\s*[&*]*\s*"
    r"(\w+)\s*:(?!:)")
# Template arguments that never name a container's element.
NOT_ELEMENT_RE = re.compile(r"(?:Hash|Eq|Equal|Less|Compare|Allocator)$")
LOCK_MEMBER_TYPES = {"Mutex", "RecursiveMutex", "SharedMutex", "KeyLock",
                     "std::mutex", "std::recursive_mutex", "std::shared_mutex"}


def class_bases(intro):
    """Base class names from a class introducer (`struct D : public A::B`
    -> ["B"])."""
    s = " ".join(KEPT_WAIVER_RE.sub("", intro).split())
    m = re.search(r"\b(?:class|struct)\b[^:]*?(?:[A-Za-z_]\w*::)*[A-Za-z_]\w*"
                  r"\s*(?:final\s*)?:(?!:)(.*)$", s)
    if not m:
        return []
    bases = []
    for part in m.group(1).split(","):
        name = re.sub(r"<.*", "", part)
        name = re.sub(r"\b(?:public|protected|private|virtual)\b", "", name).strip()
        if name:
            bases.append(name.rsplit("::", 1)[-1])
    return bases


def classify_introducer(intro):
    """Classifies the text before a `{` at namespace/class level."""
    s = " ".join(KEPT_WAIVER_RE.sub("", intro).split())
    # `alignas(64) std::atomic<bool> parked{false}` is a member, not a call.
    s = re.sub(r"\balignas\s*\([^)]*\)\s*", "", s)
    if not s:
        return ("block", "")
    if re.match(r"^(?:inline\s+)?namespace\b", s):
        m = re.match(r"^(?:inline\s+)?namespace\s+([\w:]+)?", s)
        return ("namespace", (m.group(1) or "") if m else "")
    if s.startswith('extern "C"') or s.startswith("extern"):
        return ("namespace", "")
    m = re.search(r"\b(class|struct|union)\b(?:\s+\[\[[^\]]*\]\])?"
                  r"(?:\s+(?:alignas\s*\([^)]*\)|CAPABILITY\s*\([^)]*\)|"
                  r"SCOPED_CAPABILITY|\w+\s*\([^)]*\)))*"
                  r"\s+((?:[A-Za-z_]\w*::)*[A-Za-z_]\w*)\s*(?:final\s*)?"
                  r"(?::(?!:)[^;{]*)?$", s)
    if m and "=" not in s.split(m.group(1))[0]:
        return ("class", m.group(2).rsplit("::", 1)[-1])
    if re.search(r"\benum\b", s):
        return ("enum", "")
    name = extract_func_name(s)
    if name is not None and "=" not in s.split(name.split("::")[-1] + "(")[0]:
        return ("func", name)
    return ("braceinit", "")


def extract_func_name(intro):
    """Finds the function name in a definition introducer: the first
    identifier followed by '(' at angle/paren depth 0; trailing qualifiers
    (const/noexcept/init-list) after the matching ')' are tolerated."""
    m = re.search(r"\boperator\b\s*(?:\(\)|\[\]|[^\s(]{1,3})\s*\(", intro)
    if m:
        return re.sub(r"\s+|\($", "", m.group(0)[:-1])
    depth = 0
    i = 0
    n = len(intro)
    while i < n:
        c = intro[i]
        if c in "<([":
            # Angle brackets only count as nesting when they look like
            # template args (heuristic: previous char is ident or '>').
            if c == "<" and (i == 0 or not (intro[i - 1].isalnum()
                                            or intro[i - 1] in "_>")):
                i += 1
                continue
            if c == "(" and depth == 0:
                m = FUNC_NAME_RE.search(intro[:i + 1])
                if m:
                    name = m.group(1)
                    # Skip annotation wrappers (REQUIRES(mu_) ...).
                    if name in ANNOTATION_MACROS:
                        depth += 1
                        i += 1
                        continue
                    return name
            depth += 1
        elif c in ">)]":
            if c == ">" and (i == 0 or intro[i - 1] in "-="):
                i += 1
                continue
            depth = max(0, depth - 1)
        i += 1
    return None


def parse_params(intro, model):
    """Best-effort parameter name -> base type map from an introducer."""
    m = re.search(r"\(", intro)
    if not m:
        return {}
    depth = 0
    start = None
    for i, c in enumerate(intro):
        if c == "(":
            if depth == 0 and start is None:
                mname = FUNC_NAME_RE.search(intro[:i + 1])
                if mname and mname.group(1) not in ANNOTATION_MACROS:
                    start = i + 1
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0 and start is not None:
                params = intro[start:i]
                break
    else:
        return {}
    out = {}
    for piece in split_top_level(params, ","):
        mm = re.search(r"([\w:]+(?:<[^<>]*>)?)\s*[&*]*\s+(\w+)\s*$", piece.strip())
        if mm:
            out[mm.group(2)] = mm.group(1).split("<")[0].split("::")[-1]
    return out


def split_top_level(s, sep):
    out, depth, cur = [], 0, []
    for c in s:
        if c in "<([{":
            depth += 1
        elif c in ">)]}":
            depth -= 1
        if c == sep and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(c)
    out.append("".join(cur))
    return out


def split_postfix(expr):
    """Splits a postfix expression at its top-level `.`/`->` into member
    names, dropping subscripts and call arguments:
    `a->b[i % n].c()` -> ['a', 'b', 'c']."""
    parts, cur, depth, i = [], [], 0, 0
    while i < len(expr):
        c = expr[i]
        if c in "([":
            depth += 1
        elif c in ")]":
            depth -= 1
        elif depth == 0 and (c == "." or expr.startswith("->", i)):
            parts.append("".join(cur))
            cur = []
            i += 2 if c == "-" else 1
            continue
        elif depth == 0:
            cur.append(c)
        i += 1
    parts.append("".join(cur))
    return [p.strip().lstrip(":&*(").strip() for p in parts]


def receiver_before(text, end):
    """The postfix expression ending just before offset `end` (the `.`/`->`
    of a member call), scanned backwards over identifiers, `.`, `->`, `::`
    and balanced (...)/[...] groups: `core_load_[core % n].inflight`."""
    i = end
    while True:
        j = i
        while j > 0 and text[j - 1] in " \t\n":
            j -= 1
        if j > 0 and text[j - 1] in ")]":
            close = text[j - 1]
            opener = "(" if close == ")" else "["
            depth, k = 0, j - 1
            while k >= 0:
                if text[k] == close:
                    depth += 1
                elif text[k] == opener:
                    depth -= 1
                    if depth == 0:
                        break
                k -= 1
            if k < 0:
                break
            i = k
            continue
        k = j
        while k > 0 and (text[k - 1].isalnum() or text[k - 1] == "_"):
            k -= 1
        if k == j:
            break
        i = k
        while k > 0 and text[k - 1] in " \t\n":
            k -= 1
        if text[max(0, k - 2):k] in ("->", "::"):
            i = k - 2
        elif k > 0 and text[k - 1] == ".":
            i = k - 1
        else:
            break
    return text[i:end].strip()


def range_expr(text, pos):
    """The range expression of a range-for whose ':' ends at `pos`."""
    depth = 1
    for i in range(pos, len(text)):
        if text[i] in "([":
            depth += 1
        elif text[i] in ")]":
            depth -= 1
            if depth == 0:
                return text[pos:i].strip()
    return ""


class InternalBackend:
    """Builds a Model from stripped source text, no compiler needed."""

    def __init__(self, root, files, texts=None):
        self.root = root
        self.files = files
        self.texts = texts        # rel -> source override (self-test hook)
        self.model = Model()

    def build(self):
        texts = {}
        for rel in self.files:
            raw = self.texts[rel] if self.texts else \
                (self.root / rel).read_text(errors="replace")
            texts[rel] = blank_preprocessor(strip_comments_and_strings(raw))
        # Pass 1: scopes, classes/members, globals, marked declarations.
        pending_bodies = []
        for rel, text in texts.items():
            pending_bodies.extend(self.parse_file(rel, text))
        # Pass 2: function bodies (needs the full member map for receiver
        # type resolution).
        for func, intro, body, body_start, rel, text in pending_bodies:
            func.param_types = parse_params(intro, self.model)
            self.parse_body(func, body, body_start, rel, text)
        self.model.finalize()
        self.model.resolver = self
        return self.model

    def parse_file(self, rel, text):
        model = self.model
        pending = []
        stack = []  # (kind, name, open_pos)
        seg_start = 0
        i, n = 0, len(text)
        lines = text.split("\n")

        def scope_classes():
            return [name for kind, name, _ in stack if kind == "class"]

        while i < n:
            c = text[i]
            if c == "{":
                in_func = any(k == "func" for k, _, _ in stack)
                if in_func:
                    stack.append(("block", "", i))
                    seg_start = i + 1
                else:
                    intro = text[seg_start:i]
                    kind, name = classify_introducer(intro)
                    if kind == "func":
                        cls = name.rsplit("::", 1)[0] if "::" in name else \
                            (scope_classes()[-1] if scope_classes() else "")
                        short = name.rsplit("::", 1)[-1]
                        qual = (cls + "::" + short) if cls else short
                        line = text.count("\n", 0, seg_start) + 1 + \
                            intro[:len(intro) - len(intro.lstrip())].count("\n")
                        f = Func(qual, short, cls, rel,
                                 text.count("\n", 0, i) + 1,
                                 "ZCP_FAST_PATH" in intro,
                                 "ZCP_SLOW_PATH" in intro)
                        model.add_func(f)
                        stack.append(("func", qual, i))
                        pending.append([f, intro, None, i, rel, text])
                        seg_start = i + 1
                    elif kind == "braceinit":
                        stack.append(("braceinit", "", i))
                        # Statement continues through the brace-init.
                    else:
                        if kind == "class":
                            model.class_bases[name] = class_bases(intro)
                        stack.append((kind, name, i))
                        seg_start = i + 1
            elif c == "}":
                if stack:
                    kind, name, open_pos = stack.pop()
                    if kind == "func" and not any(
                            k == "func" for k, _, _ in stack):
                        for p in pending:
                            if p[3] == open_pos:
                                p[2] = text[open_pos:i + 1]
                    if kind != "braceinit":
                        seg_start = i + 1
            elif c == ";":
                if not stack or stack[-1][0] in ("namespace", "class"):
                    # Waivers count from the declaration's first line (and
                    # the comment block above it) and from its ';' line.
                    seg = KEPT_WAIVER_RE.sub(lambda w: " " * len(w.group(0)),
                                             text[seg_start:i])
                    first = text.count("\n", 0, seg_start + len(seg)
                                       - len(seg.lstrip()))
                    waived = suppressions_at(lines, first) | set(
                        KEPT_WAIVER_RE.findall(lines[text.count("\n", 0, i)]))
                    self.handle_statement(" ".join(seg.split()), rel,
                                          first + 1, scope_classes(), stack,
                                          waived)
                if not stack or stack[-1][0] != "braceinit":
                    seg_start = i + 1
            i += 1
        return [p for p in pending if p[2] is not None]

    def handle_statement(self, stmt, rel, line, classes, stack, waived):
        model = self.model
        stmt = re.sub(r"^(?:\s*(?:public|private|protected)\s*:)+\s*", "",
                      stmt)
        if not stmt:
            return
        for marker, names in (("ZCP_FAST_PATH", model.marked_decl_names),
                              ("ZCP_SLOW_PATH", model.slow_decl_names)):
            if marker in stmt and "(" in stmt and "#define" not in stmt:
                m = re.search(r"((?:[A-Za-z_]\w*::)*[A-Za-z_]\w*)\s*\(",
                              stmt.split(marker, 1)[1])
                if m:
                    short = m.group(1).rsplit("::", 1)[-1]
                    cls = classes[-1] if classes else ""
                    names.add((cls + "::" + short) if cls else short)
        at_class = bool(stack) and stack[-1][0] == "class"
        cleaned = DECL_QUALIFIERS_RE.sub("", stmt).strip()
        if at_class and "(" not in cleaned.split("=")[0].split("{")[0]:
            m = MEMBER_DECL_RE.match(cleaned)
            if m and m.group("type") not in ("public", "private", "protected",
                                             "using", "typedef", "friend",
                                             "return"):
                cls = classes[-1]
                base = m.group("type")
                model.class_members[cls][m.group("name")] = base
                # Arrays and smart-pointer arrays of atomics count: their
                # elements are the atomics (`pub_words[i].load(...)`).
                if ATOMIC_IN_TYPE_RE.search(base):
                    model.atomic_members[cls].add(m.group("name"))
        elif not at_class:
            m = GLOBAL_DECL_RE.match(stmt)
            if m:
                name = m.group("name")
                model.global_decls.append((rel, line, name,
                                           "ZCPA005" in waived))
                if ATOMIC_IN_TYPE_RE.search(m.group("type")):
                    model.atomic_globals.add(name)
                else:
                    model.writable_globals[name] = (rel, line, stmt[:120])

    # -- body-level extraction ---------------------------------------------

    def parse_body(self, func, body, body_start, rel, text):
        model = self.model
        base_line = text.count("\n", 0, body_start) + 1
        lines = body.split("\n")
        # Deferred work (lambda bodies handed to std::thread, stored
        # callbacks) does not run under this function's locks and is not a
        # synchronous callee; blanking preserves offsets and line numbers.
        # Locals and atomic sites still come from the full body.
        full = body
        body = blank_lambda_bodies(body)

        # Block extents for guard scopes.
        closes = {}  # open offset -> close offset
        bstack = []
        for i, c in enumerate(body):
            if c == "{":
                bstack.append(i)
            elif c == "}" and bstack:
                closes[bstack.pop()] = i

        def enclosing_close(pos):
            # Innermost block containing pos; the whole body if none.
            inner = (0, len(body) - 1)
            for o, cl in closes.items():
                if o <= pos <= cl and (cl - o) < (inner[1] - inner[0]):
                    inner = (o, cl)
            return inner[1]

        def line_at(pos):
            return base_line + body.count("\n", 0, pos)

        def raw_line(pos):
            return lines[body.count("\n", 0, pos)]

        def sup_at(pos):
            return suppressions_at(lines, body.count("\n", 0, pos))

        def suppressed(pos, rule):
            return rule in sup_at(pos)

        # Local declarations (for receiver type resolution).
        for m in LOCAL_DECL_RE.finditer(full):
            t = m.group(1).split("<")[0].split("::")[-1]
            if t not in ("ZCP", "NO") and m.group(2) not in func.local_types:
                func.local_types[m.group(2)] = t
        for m in ATOMIC_LOCAL_RE.finditer(full):
            func.local_types.setdefault(m.group(1), "atomic")
        # Range-for loop variables are locals too; without this, `for
        # (auto& table : pending_) table.clear();` leaves `table` unknown
        # and the unique-atomic-member fallback can misresolve it. An `auto`
        # variable takes its type from the range: it is bound to the atomic
        # object when the range is an array of atomics (None otherwise, per
        # loop, since loops reuse names), else to the container's element.
        for m in RANGE_FOR_RE.finditer(full):
            t = m.group(1).split("<")[0].split("::")[-1].strip()
            var = m.group(2)
            if t == "auto":
                rng = range_expr(full, m.end())
                obj = self.atomic_object(func, rng, "load") if rng else None
                func.local_atomics.append((m.start(), var, obj))
                if obj is None and var not in func.local_types:
                    cls = self.resolve_receiver_class(func, rng)
                    if cls:
                        func.local_types[var] = cls
            elif var not in func.local_types:
                func.local_types[var] = t

        # Calls.
        seen_spans = []
        for m in MEMBER_CALL_RE.finditer(body):
            recv, name = m.group(1), m.group(2)
            if name in NOT_CALLS or name in ATOMIC_OPS or name == "lock" \
                    or name == "unlock":
                continue
            func.calls.append(Call(name, recv, line_at(m.start()), m.start()))
            seen_spans.append((m.start(), m.end()))
        for m in CALL_RE.finditer(body):
            name = m.group(1)
            short = name.rsplit("::", 1)[-1]
            if short in NOT_CALLS or short in ATOMIC_OPS:
                continue
            if any(s <= m.start(1) < e for s, e in seen_spans):
                continue
            prev = body[m.start(1) - 1] if m.start(1) > 0 else ""
            if prev in ".>":
                continue
            if name in func.param_types or name in func.local_types:
                # A call through a variable is a call of its operator(),
                # unless a type precedes it and it is declared there.
                before = re.search(r"(\w+|>)\s*$", body[:m.start(1)])
                if before is None or before.group(1) in CALL_KEYWORDS:
                    func.calls.append(Call("operator()", name,
                                           line_at(m.start()), m.start()))
                continue
            func.calls.append(Call(name, None, line_at(m.start()), m.start()))

        # Ops: allocation.
        for m in ALLOC_RE.finditer(body):
            if not suppressed(m.start(), "ZCPA002"):
                func.ops.append(Op("alloc", rel, line_at(m.start()),
                                   raw_line(m.start())))
        # Ops: cross-partition.
        for m in CROSS_PARTITION_CALLS_RE.finditer(body):
            if not suppressed(m.start(), "ZCPA003"):
                func.ops.append(Op("cross_partition", rel, line_at(m.start()),
                                   raw_line(m.start())))
        allowed = set(func.param_types) | {"core", "core_", "dap_index_",
                                           "partition", "partition_index"}
        for m in PARTITION_CALL_RE.finditer(body):
            arg = m.group(1).strip()
            if arg and arg not in allowed and \
                    not PARTITION_SELF_ARG_RE.fullmatch(arg) and \
                    not suppressed(m.start(), "ZCPA003"):
                func.ops.append(Op("cross_partition", rel, line_at(m.start()),
                                   raw_line(m.start()), detail=arg))

        # Ops: global references (reads or writes of writable globals).
        for g in model.writable_globals:
            for m in re.finditer(r"\b" + re.escape(g) + r"\b", body):
                if not suppressed(m.start(), "ZCPA005"):
                    func.ops.append(Op("global_ref", rel, line_at(m.start()),
                                       raw_line(m.start()), detail=g))
                break  # one finding per function per global is enough

        # Guard scopes + blocking-lock ops.
        self.parse_guards(func, body, rel, line_at, raw_line,
                          enclosing_close, sup_at)

        # Atomic sites, lambda bodies included.
        self.parse_atomics(func, full, rel, line_at, sup_at)

    def class_of_type(self, type_str):
        """The class a declared type leads to: the last known class named in
        it (`std::vector<std::shared_ptr<TraceRing>>` -> TraceRing), else
        its base name."""
        known = [n for n in re.findall(r"[A-Za-z_]\w*", type_str)
                 if n in self.model.class_members
                 and not NOT_ELEMENT_RE.search(n)]
        if known:
            return known[-1]
        return type_str.split("<")[0].split("::")[-1].strip()

    def resolve_receiver_class(self, func, recv):
        """Receiver expression -> class name, via locals/params/members."""
        parts = split_postfix(recv)
        head = parts[0]
        if head == "this":
            cls = func.cls
        elif head in func.local_types:
            cls = func.local_types[head]
        elif head in func.param_types:
            cls = func.param_types[head]
        elif func.cls and head in self.model.class_members.get(func.cls, {}):
            cls = self.class_of_type(self.model.class_members[func.cls][head])
        else:
            return None
        rest = [p for p in parts[1:] if p]
        for p in rest:
            decl = self.model.declaring_class(cls, p)
            if decl is None:
                return cls if p == rest[-1] else None
            cls = self.class_of_type(self.model.class_members[decl][p])
        return cls

    def lock_identity(self, func, expr):
        """Normalizes a lock expression to an instance-insensitive
        `Class::member` identity."""
        expr = expr.strip().lstrip("&*").replace("this->", "")
        parts = re.split(r"\.|->", expr)
        member = re.sub(r"\[[^\]]*\]", "", parts[-1]).strip()
        if len(parts) == 1:
            owner = func.cls or Path(func.file).stem
            return f"{owner}::{member}"
        recv = expr[:len(expr) - len(parts[-1])].rstrip(".->")
        owner_cls = self.resolve_receiver_class(func, recv) or "?"
        return f"{owner_cls}::{member}"

    def parse_guards(self, func, body, rel, line_at, raw_line,
                     enclosing_close, sup_at):
        model = self.model
        for m in GUARD_DECL_RE.finditer(body):
            guard, tparam, expr = m.group(1), m.group(2), m.group(3)
            if guard == "MutexLock":
                ltype = "Mutex"
            elif guard == "RecursiveMutexLock":
                ltype = "RecursiveMutex"
            elif tparam:
                ltype = tparam.split("::")[-1]
            else:
                ltype = "?"
            if guard == "std::scoped_lock":
                exprs = [e.strip() for e in split_top_level(expr, ",")]
            else:
                exprs = [split_top_level(expr, ",")[0].strip()]
            exprs = [e.split(",")[0].strip() for e in exprs if e.strip()]
            kind = "spin" if ltype in SPIN_GUARD_TYPES else "blocking"
            for e in exprs:
                # std::unique_lock(mu, std::defer_lock) etc: first arg only.
                lock_id = self.lock_identity(func, e)
                if ltype == "?" and "mu" not in e and "lock" not in e.lower():
                    kind_eff = "blocking"
                else:
                    kind_eff = kind
                func.lock_acqs.append(LockAcq(
                    lock_id, kind_eff, line_at(m.start()), m.start(),
                    enclosing_close(m.start())))
                if kind_eff == "blocking" and \
                        "ZCPA001" not in sup_at(m.start()):
                    func.ops.append(Op("lock", rel, line_at(m.start()),
                                       raw_line(m.start()), detail=lock_id))
        for m in MANUAL_LOCK_RE.finditer(body):
            expr = m.group(1)
            if re.search(r"\bmu|mutex|_mu\b", expr) is None and \
                    self.resolve_receiver_class(func, expr) not in \
                    LOCK_MEMBER_TYPES:
                continue
            lock_id = self.lock_identity(func, expr)
            unlock = re.search(re.escape(expr) +
                               r"\s*(?:\.|->)\s*unlock\s*\(", body[m.end():])
            scope_end = m.end() + unlock.start() if unlock else len(body) - 1
            func.lock_acqs.append(LockAcq(lock_id, "blocking",
                                          line_at(m.start()), m.start(),
                                          scope_end))
            if "ZCPA001" not in sup_at(m.start()):
                func.ops.append(Op("lock", rel, line_at(m.start()),
                                   raw_line(m.start()), detail=lock_id))

    def parse_atomics(self, func, body, rel, line_at, sup_at):
        model = self.model
        for m in FENCE_RE.finditer(body):
            args = balanced_args(body, m.end() - 1)
            om = ORDER_RE.search(args or "")
            model.atomic_sites.append(AtomicSite(
                rel, line_at(m.start()), "<fence>", "fence",
                om.group(1) if om else "seq_cst?", om is None,
                "ZCPA004" in sup_at(m.start()),
                func.qual))
        for m in ATOMIC_OP_RE.finditer(body):
            op = m.group(1)
            recv = receiver_before(body, m.start())
            obj = self.atomic_object(func, recv, op, m.start()) if recv \
                else None
            if obj is None:
                continue
            if op in NO_ORDER_PARAM_OPS:
                model.atomic_sites.append(AtomicSite(
                    rel, line_at(m.start()), obj, op, "n/a", False, True,
                    func.qual))
                continue
            args = balanced_args(body, m.end() - 1)
            orders = ORDER_RE.findall(args or "")
            order = "/".join(orders) if orders else "seq_cst(implicit)"
            model.atomic_sites.append(AtomicSite(
                rel, line_at(m.start()), obj, op, order, not orders,
                "ZCPA004" in sup_at(m.start()),
                func.qual))

    def atomic_object(self, func, recv, op, pos=None):
        """Returns the canonical object id if the receiver is an atomic, or
        None when it is provably/probably not (vector.clear() etc.)."""
        model = self.model
        parts = split_postfix(recv)
        head, member = parts[0], parts[-1]
        if len(parts) == 1:
            if head in model.atomic_globals:
                return f"{Path(func.file).stem}::{head}"
            # An `auto` range-for variable: the nearest loop binding it.
            bound = [o for p, v, o in func.local_atomics
                     if v == head and (pos is None or p < pos)]
            if bound:
                return bound[-1]
            if func.cls and member in model.atomic_members.get(func.cls, ()):
                return f"{func.cls}::{member}"
        else:
            # Receiver chain resolution: owner class of the last component.
            owner = self.resolve_receiver_class(func, ".".join(parts[:-1]))
            decl = owner and model.declaring_class(owner, member,
                                                   model.atomic_members)
            if decl:
                return f"{decl}::{member}"
        # Local or parameter of atomic type?
        if len(parts) == 1 and "atomic" in (func.local_types.get(head),
                                            func.param_types.get(head)):
            return f"{func.qual}::{head}(local)"
        # A receiver whose type we *did* resolve (local, param, member of
        # the enclosing class) and that was not atomic above is a definitive
        # negative — `for (auto& table : pending_) table.clear();` must not
        # fall through to the name-match below.
        if head in func.local_types or head in func.param_types or \
                (func.cls and head in model.class_members.get(func.cls, {})):
            return None
        # Method names shared with containers/condvars never qualify by
        # name match alone; only unambiguous atomic ops may use it.
        if op in GENERIC_NAME_OPS:
            return None
        # Unique atomic member name anywhere in the program: accept — the
        # receiver is a pointer/ref whose static type we failed to track.
        owners = [c for c, ms in model.atomic_members.items() if member in ms]
        if len(owners) == 1:
            return f"{owners[0]}::{member}"
        return None


def balanced_args(text, open_paren_pos):
    """The call's argument list at nesting depth 1 only: an order passed to
    a nested call (`x.store(y.load(relaxed) + 1)`) is not this call's."""
    depth = 0
    out = []
    for i in range(open_paren_pos, min(len(text), open_paren_pos + 2000)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return "".join(out)
        elif depth == 1:
            out.append(text[i])
    return None


# ---------------------------------------------------------------------------
# libclang backend: the internal model plus semantic call edges. The internal
# backend remains the reference (and the fallback when no clang toolchain is
# installed).
# ---------------------------------------------------------------------------

def load_compile_commands(cc_dir, root):
    p = Path(cc_dir) / "compile_commands.json"
    if not p.exists():
        raise RuntimeError(f"{p} not found (configure with "
                           "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON)")
    entries = []
    for e in json.loads(p.read_text()):
        f = Path(e["file"])
        if not f.is_absolute():
            f = Path(e["directory"]) / f
        try:
            rel = f.resolve().relative_to(root).as_posix()
        except ValueError:
            continue
        if not rel.startswith("src/"):
            continue
        args = e.get("arguments") or shlex.split(e.get("command", ""))
        entries.append((rel, args, e["directory"]))
    return entries


def build_model_libclang(root, cc_dir, files):
    import clang.cindex as ci  # raises ImportError when unavailable
    if cc_dir is None:
        raise RuntimeError("needs -p <build-dir> for compile_commands.json")
    index = ci.Index.create()
    # The internal parser still supplies member maps, globals, guard scopes
    # and atomic sites (token-exact); libclang contributes the call graph,
    # which is the part regexes get wrong. This hybrid keeps the clang
    # backend's advantage (semantic call resolution) without re-deriving
    # the token-level extractors through the C API.
    model = InternalBackend(root, files).build()
    model.backend = "libclang"
    calls = defaultdict(list)

    def qual_of(cur):
        parts = []
        c = cur
        while c is not None and c.kind != ci.CursorKind.TRANSLATION_UNIT:
            if c.spelling:
                parts.append(c.spelling)
            c = c.semantic_parent
        return "::".join(reversed(parts[:2]))

    for rel, args, _d in load_compile_commands(cc_dir, root):
        clang_args = [a for a in args[1:] if a != str(root / rel)]
        tu = index.parse(str(root / rel), args=clang_args)
        stack = [(tu.cursor, None)]
        while stack:
            cur, enclosing = stack.pop()
            k = cur.kind
            if k in (ci.CursorKind.FUNCTION_DECL, ci.CursorKind.CXX_METHOD,
                     ci.CursorKind.CONSTRUCTOR, ci.CursorKind.DESTRUCTOR) \
                    and cur.is_definition():
                enclosing = qual_of(cur)
            elif k == ci.CursorKind.CALL_EXPR and enclosing:
                ref = cur.referenced
                if ref is not None:
                    calls[enclosing].append(qual_of(ref))
            for ch in cur.get_children():
                stack.append((ch, enclosing))
    # Merge semantic call edges into the regex-built functions.
    for f in model.funcs:
        for callee in calls.get(f.qual, []):
            f.calls.append(Call(callee, None, f.line, 0))
    return model


def build_model(root, backend, cc_dir, files, strict):
    """Builds the Model with the requested backend. With --strict-backend a
    missing/broken libclang backend is fatal; otherwise the tool degrades to
    the internal backend with a warning (findings still gate)."""
    if backend in ("auto", "libclang"):
        try:
            return build_model_libclang(root, cc_dir, files)
        except Exception as e:  # ImportError, LibclangError, parse errors
            msg = f"libclang backend unavailable: {e.__class__.__name__}: {e}"
            if strict:
                raise RuntimeError(msg)
            print(f"zcp_analyzer: {msg}; using internal backend",
                  file=sys.stderr)
    return InternalBackend(root, files).build()


# ---------------------------------------------------------------------------
# Analyses.
# ---------------------------------------------------------------------------

class Finding:
    __slots__ = ("rule", "file", "line", "message", "fp", "chain")

    def __init__(self, rule, file, line, message, fp, chain=()):
        self.rule = rule
        self.file = file
        self.line = line
        self.message = message
        self.fp = fp
        self.chain = chain


def resolve_call(model, func, call):
    """Returns the list of Func candidates a call site may reach. Empty for
    external/library calls. Over-approximates on ambiguity, capped so a
    common method name cannot fan the closure out to everything; past the
    cap, the candidates defined in the caller's own file still count (an
    overload set such as a codec's per-record Layout functions, or the
    operator() overloads of the visitors that walk them)."""
    def local(cands):
        return [c for c in cands if c.file == func.file]

    name = call.name
    if "::" in name:
        cands = model.by_qual.get(name, [])
        if not cands:
            cands = model.by_name.get(name.rsplit("::", 1)[-1], [])
        return cands[:4]
    if call.receiver is not None:
        cls = model.resolver.resolve_receiver_class(func, call.receiver)
        if cls:
            exact = model.by_qual.get(cls + "::" + name, [])
            if exact:
                return exact
        cands = model.by_name.get(name, [])
        return cands if len(cands) <= 3 else local(cands)
    if func.cls:
        exact = model.by_qual.get(func.cls + "::" + name, [])
        if exact:
            return exact
    cands = model.by_name.get(name, [])
    if len(cands) == 1:
        return cands
    return cands if len(cands) <= 3 else local(cands)


OP_RULE = {"lock": "ZCPA001", "alloc": "ZCPA002",
           "cross_partition": "ZCPA003", "global_ref": "ZCPA005"}


def closure_findings(model):
    findings = []
    root_counts = defaultdict(set)   # fp -> {root quals}
    by_fp = {}
    roots = [f for f in model.funcs if f.fast_path]
    boundaries = set()               # ZCP_SLOW_PATH functions reached
    for root in roots:
        parent = {id(root): None}
        queue = [(root, 0)]
        seen = {id(root)}
        while queue:
            func, depth = queue.pop(0)
            if func.slow_path:
                # Explicit fast/slow boundary: the caller leaves the fast
                # path before invoking this (e.g. DispatchBatch releases
                # the gate and flushes replies ahead of maintenance
                # handling). Traversal stops; the boundary is recorded so
                # --list-roots can audit the set.
                boundaries.add(func.qual)
                continue
            for op in func.ops:
                rule = OP_RULE.get(op.kind)
                if rule is None:
                    continue
                fp = f"{rule}:{op.file}:{func.qual}:{op.snippet}"
                root_counts[fp].add(root.qual)
                if fp in by_fp:
                    continue
                chain = []
                f = func
                while f is not None:
                    chain.append(f.qual)
                    f = parent.get(id(f))
                chain.reverse()
                finding = Finding(
                    rule, op.file, op.line,
                    f"{RULES[rule]}: {op.snippet}"
                    + (f" [{op.detail}]" if op.detail else ""),
                    fp, tuple(chain))
                by_fp[fp] = finding
                findings.append(finding)
            if depth >= MAX_CHAIN_DEPTH:
                continue
            for call in func.calls:
                for cand in resolve_call(model, func, call):
                    if id(cand) not in seen:
                        seen.add(id(cand))
                        parent[id(cand)] = func
                        queue.append((cand, depth + 1))
    for f in findings:
        n = len(root_counts[f.fp])
        if n > 1:
            f.message += f" (reachable from {n} fast-path roots)"
    model.notes.extend(
        f"closure stops at ZCP_SLOW_PATH boundary {q}"
        for q in sorted(boundaries))
    return findings


def global_decl_findings(model):
    """ZCPA005 at the declaration: every writable namespace-scope variable
    needs an inline waiver with a reason."""
    return [Finding("ZCPA005", f, line,
                    f"{RULES['ZCPA005']}: `{name}` is a writable "
                    "namespace-scope variable without a waiver",
                    f"ZCPA005:{f}:{name}:declaration")
            for f, line, name, waived in model.global_decls if not waived]


def implicit_order_findings(model):
    findings = []
    for s in model.atomic_sites:
        if s.implicit and not s.suppressed and s.order != "n/a":
            findings.append(Finding(
                "ZCPA004", s.file, s.line,
                f"{RULES['ZCPA004']}: {s.object}.{s.op}(...) in {s.func}",
                f"ZCPA004:{s.file}:{s.object}:{s.op}"))
    return findings


def acquired_closure(model, func, memo, visiting):
    """Lock ids a call to `func` may acquire, transitively."""
    if id(func) in memo:
        return memo[id(func)]
    if id(func) in visiting:
        return set()
    visiting.add(id(func))
    out = {(a.lock_id, a.kind) for a in func.lock_acqs}
    for call in func.calls:
        for cand in resolve_call(model, func, call):
            out |= acquired_closure(model, cand, memo, visiting)
    visiting.discard(id(func))
    memo[id(func)] = out
    return out


def lock_order_findings(model):
    edges = defaultdict(set)       # lock_id -> {lock_id}
    examples = {}                  # (a, b) -> "file:line via ..."
    memo = {}
    for func in model.funcs:
        for acq in func.lock_acqs:
            # Nested guards inside this guard's scope.
            for other in func.lock_acqs:
                if acq.pos < other.pos <= acq.scope_end \
                        and other.lock_id != acq.lock_id:
                    edges[acq.lock_id].add(other.lock_id)
                    examples.setdefault(
                        (acq.lock_id, other.lock_id),
                        f"{func.file}:{other.line} in {func.qual}")
                if acq.pos < other.pos <= acq.scope_end \
                        and other.lock_id == acq.lock_id:
                    edges[acq.lock_id].add(acq.lock_id)
                    examples.setdefault(
                        (acq.lock_id, acq.lock_id),
                        f"{func.file}:{other.line} in {func.qual} "
                        "(same-identity nested acquisition)")
            # Locks acquired by calls made while this guard is held.
            for call in func.calls:
                if not (acq.pos < call.pos <= acq.scope_end):
                    continue
                for cand in resolve_call(model, func, call):
                    for lock_id, _kind in acquired_closure(
                            model, cand, memo, set()):
                        if lock_id != acq.lock_id:
                            edges[acq.lock_id].add(lock_id)
                            examples.setdefault(
                                (acq.lock_id, lock_id),
                                f"{func.file}:{call.line} in {func.qual} "
                                f"via {cand.qual}")
                        else:
                            edges[acq.lock_id].add(lock_id)
                            examples.setdefault(
                                (acq.lock_id, lock_id),
                                f"{func.file}:{call.line} in {func.qual} "
                                f"via {cand.qual} (re-acquisition)")
    # Cycle detection: iterative DFS looking for back edges.
    findings = []
    seen_cycles = set()
    color = {}

    def dfs(start):
        stack = [(start, iter(sorted(edges.get(start, ()))))]
        path = [start]
        color[start] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color.get(nxt, 0) == 1:
                    cyc = path[path.index(nxt):] + [nxt]
                    key = frozenset(cyc)
                    if key not in seen_cycles:
                        seen_cycles.add(key)
                        why = "; ".join(
                            examples.get((cyc[i], cyc[i + 1]), "?")
                            for i in range(len(cyc) - 1))
                        findings.append(Finding(
                            "ZCPA010", "", 0,
                            f"{RULES['ZCPA010']}: "
                            + " -> ".join(cyc) + f"  ({why})",
                            "ZCPA010:" + "->".join(sorted(set(cyc)))))
                    continue
                if color.get(nxt, 0) == 0:
                    color[nxt] = 1
                    path.append(nxt)
                    stack.append((nxt, iter(sorted(edges.get(nxt, ())))))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                path.pop()
                stack.pop()

    for n in sorted(edges):
        if color.get(n, 0) == 0:
            dfs(n)
    return findings, edges


# ---------------------------------------------------------------------------
# Atomic-order inventory + DESIGN.md table.
# ---------------------------------------------------------------------------

INVENTORY_SCHEMA = "zcp-inventory-v2"


def build_inventory(model):
    """The fast-path root set (one `file:Class::Func` entry per marked
    definition) and every atomic operation aggregated by file, object, op and
    order. Pinning the roots is what keeps the fast-path rules binding: they
    only reach code below a ZCP_FAST_PATH marker."""
    agg = defaultdict(int)
    for s in model.atomic_sites:
        if s.order != "n/a":
            agg[(s.file, s.object, s.op, s.order)] += 1
    sites = [{"file": f, "object": o, "op": op, "order": order, "count": c}
             for (f, o, op, order), c in sorted(agg.items())]
    roots = sorted(f"{f.file}:{f.qual}" for f in model.funcs if f.fast_path)
    return {"schema": INVENTORY_SCHEMA, "fast_path_roots": roots,
            "sites": sites}


def inventory_findings(inventory, baseline_path):
    if not baseline_path.exists():
        return [Finding("ZCPA020", str(baseline_path), 0,
                        f"{RULES['ZCPA020']}: baseline file missing "
                        "(run --update-inventory)", "ZCPA020:missing")]
    try:
        committed = json.loads(baseline_path.read_text())
    except json.JSONDecodeError as e:
        return [Finding("ZCPA020", str(baseline_path), 0,
                        f"unparseable inventory baseline: {e}",
                        "ZCPA020:unparseable")]
    cur = {(s["file"], s["object"], s["op"], s["order"]): s["count"]
           for s in inventory["sites"]}
    old = {(s["file"], s["object"], s["op"], s["order"]): s["count"]
           for s in committed.get("sites", [])}
    findings = []
    now_roots = Counter(inventory["fast_path_roots"])
    was_roots = Counter(committed.get("fast_path_roots", []))
    for root in sorted(set(now_roots) | set(was_roots)):
        if now_roots[root] != was_roots[root]:
            what = "added" if now_roots[root] > was_roots[root] else "removed"
            f, qual = root.split(":", 1)
            findings.append(Finding(
                "ZCPA020", f, 0,
                f"{RULES['ZCPA020']}: fast-path root {qual} in {f}: {what} — "
                "a ZCP_FAST_PATH marker changed; --update-inventory if meant",
                f"ZCPA020:root:{root}:{what}"))
    for key in sorted(set(cur) | set(old)):
        a, b = old.get(key), cur.get(key)
        if a == b:
            continue
        f, o, op, order = key
        what = ("added" if a is None else
                "removed" if b is None else f"count {a}->{b}")
        findings.append(Finding(
            "ZCPA020", f, 0,
            f"{RULES['ZCPA020']}: {o}.{op}({order}) in {f}: {what} — "
            "update DESIGN.md §8, then --update-inventory",
            f"ZCPA020:{f}:{o}:{op}:{order}:{what.split()[0]}"))
    return findings


TABLE_BEGIN = ("<!-- BEGIN zcp-analyzer atomic-order table "
               "(generated: tools/zcp_analyzer.py --render-design-table; "
               "do not edit by hand) -->")
TABLE_END = "<!-- END zcp-analyzer atomic-order table -->"


def render_design_table(inventory):
    """Markdown table for DESIGN.md §8, grouped by file + object."""
    groups = defaultdict(list)
    for s in inventory["sites"]:
        groups[(s["file"], s["object"])].append(
            (s["op"], s["order"], s["count"]))
    lines = [TABLE_BEGIN,
             "",
             "| File | Atomic object | Operations (explicit order × sites) |",
             "|---|---|---|"]
    for (f, obj), ops in sorted(groups.items()):
        cell = ", ".join(
            f"`{op}({order})`" + (f" ×{c}" if c > 1 else "")
            for op, order, c in sorted(ops))
        lines.append(f"| `{f}` | `{obj}` | {cell} |")
    lines += ["", TABLE_END]
    return "\n".join(lines)


def check_design_table(doc_path, inventory):
    text = doc_path.read_text()
    b = text.find(TABLE_BEGIN)
    e = text.find(TABLE_END)
    if b == -1 or e == -1:
        return [f"{doc_path}: generated-table markers not found"]
    committed = text[b:e + len(TABLE_END)]
    expected = render_design_table(inventory)
    if " ".join(committed.split()) != " ".join(expected.split()):
        return [f"{doc_path}: atomic-order table is stale — regenerate with "
                "`tools/zcp_analyzer.py --render-design-table` and paste "
                "between the markers"]
    return []


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------

def collect_files(root, globs):
    seen = []
    have = set()
    for pattern in globs:
        for p in sorted(root.glob(pattern)):
            rel = p.relative_to(root).as_posix()
            if rel not in have and p.is_file():
                have.add(rel)
                seen.append(rel)
    return seen


def rule_findings(model):
    """Every rule's findings but inventory drift, and the lock-order edges."""
    lock_findings, lock_edges = lock_order_findings(model)
    return (closure_findings(model) + global_decl_findings(model)
            + implicit_order_findings(model) + lock_findings), lock_edges


def analyze(root, backend, cc_dir, globs, strict, inventory_path=None,
            design_doc=None):
    files = collect_files(root, globs)
    model = build_model(root, backend, cc_dir, files, strict)
    findings, lock_edges = rule_findings(model)
    inventory = build_inventory(model)
    if inventory_path is not None:
        findings += inventory_findings(inventory, inventory_path)
    doc_errors = []
    if design_doc is not None and design_doc.exists():
        doc_errors = check_design_table(design_doc, inventory)
    return model, findings, inventory, lock_edges, doc_errors


def load_baseline(path):
    """{fingerprint: why} from a baseline file ({"findings": [{"fp": ...,
    "why": ...}, ...]}); no file, no baseline. An entry without a non-empty
    "why" is an error: every accepted finding carries its justification."""
    if path is None or not path.exists():
        return {}
    out = {}
    for entry in json.loads(path.read_text()).get("findings", []):
        if not isinstance(entry, dict) or not entry.get("fp") \
                or not str(entry.get("why", "")).strip():
            raise RuntimeError(f"{path}: baseline entry without a 'why': "
                               f"{entry!r}")
        out[entry["fp"]] = entry["why"]
    return out


def save_baseline(path, findings):
    """Writes {fingerprint: why} in the baseline schema, sorted."""
    entries = [{"fp": fp, "why": why} for fp, why in sorted(findings.items())]
    path.write_text(json.dumps({"findings": entries}, indent=2) + "\n")


def print_finding(f, file=sys.stderr):
    loc = f"{f.file}:{f.line}: " if f.file else ""
    print(f"{loc}{f.rule}: {f.message}", file=file)
    if f.chain and len(f.chain) > 1:
        print("    call chain: " + " -> ".join(f.chain), file=file)


PLANTED_RE = re.compile(r"//\s*planted:\s*(ZCPA\d{3})")


def fixture_findings(root, rel, text=None):
    """Model and rule findings (inventory aside) for one fixture TU;
    `text` overrides the file's contents."""
    model = InternalBackend(root, [rel], {rel: text} if text else None).build()
    return model, rule_findings(model)[0]


def self_test(root):
    fixtures = root / "tools" / "zcp_analyzer_fixtures"
    expectations = {
        "bad_transitive_lock.cc": {"ZCPA001"},
        "bad_decl_marker.cc": {"ZCPA001"},
        "bad_transitive_alloc.cc": {"ZCPA002"},
        "bad_caps_method_alloc.cc": {"ZCPA002"},
        "bad_transitive_visitor_alloc.cc": {"ZCPA002"},
        "bad_cross_partition.cc": {"ZCPA003"},
        "bad_implicit_seq_cst.cc": {"ZCPA004"},
        "bad_atomic_shapes.cc": {"ZCPA004"},
        "bad_global_touch.cc": {"ZCPA005"},
        "bad_writable_global.cc": {"ZCPA005"},
        "bad_lock_order_cycle.cc": {"ZCPA010"},
        "clean.cc": set(),
        "clean_slow_path_boundary.cc": set(),
    }
    failures = []
    for name, expected in sorted(expectations.items()):
        rel = f"tools/zcp_analyzer_fixtures/{name}"
        if not (root / rel).exists():
            failures.append(f"missing fixture {rel}")
            continue
        _, findings = fixture_findings(root, rel)
        got = {f.rule for f in findings}
        if expected - got:
            failures.append(f"{name}: expected {sorted(expected - got)} "
                            "not reported")
        if got - expected:
            for f in findings:
                if f.rule in got - expected:
                    print_finding(f)
            failures.append(f"{name}: unexpected {sorted(got - expected)}")
        # One finding per planted site, on exactly the planted lines.
        planted = defaultdict(list)
        for i, line in enumerate((root / rel).read_text().split("\n"), 1):
            for rule in PLANTED_RE.findall(line):
                planted[rule].append(i)
        for rule, lines in planted.items():
            hit = sorted(f.line for f in findings if f.rule == rule)
            if hit != sorted(lines):
                failures.append(f"{name}: {rule} on lines {hit}, planted on "
                                f"{sorted(lines)}")
        # Transitive rules must carry a >= 2-deep call chain.
        if name.startswith("bad_transitive"):
            if not any(len(f.chain) >= 2 for f in findings):
                failures.append(f"{name}: no interprocedural call chain in "
                                "the diagnostic")
    # Boundary-marker removal: the same TU minus ZCP_SLOW_PATH must report
    # the transitive lock — the silence above is earned by the marker, not
    # by the analyzer failing to look.
    brel = "tools/zcp_analyzer_fixtures/clean_slow_path_boundary.cc"
    stripped = (root / brel).read_text().replace(
        "ZCP_SLOW_PATH void", "void").replace("#define ZCP_SLOW_PATH", "")
    if "ZCPA001" not in {f.rule for f in fixture_findings(root, brel,
                                                          stripped)[1]}:
        failures.append("clean_slow_path_boundary.cc without the marker: "
                        "expected ZCPA001 not reported")
    # Inventory drift: the same TU against a stale and a matching baseline,
    # and with its fast-path marker deleted against the matching one.
    drift_rel = "tools/zcp_analyzer_fixtures/inventory_subject.cc"
    unmarked = (root / drift_rel).read_text().replace(
        "ZCP_FAST_PATH uint64_t", "uint64_t")
    for baseline, text, expect_drift in (
            ("atomic_order_stale.json", None, True),
            ("atomic_order_ok.json", None, False),
            ("atomic_order_ok.json", unmarked, True)):
        model, _ = fixture_findings(root, drift_rel, text)
        drift = inventory_findings(build_inventory(model),
                                   fixtures / baseline)
        what = baseline + (" (marker deleted)" if text else "")
        if expect_drift and not drift:
            failures.append(f"{what}: expected ZCPA020 drift not reported")
        if not expect_drift and drift:
            for f in drift:
                print_finding(f)
            failures.append(f"{what}: unexpected ZCPA020 drift")
    # A baseline entry without a "why" is an error, not a warning.
    try:
        load_baseline(fixtures / "baseline_without_why.json")
        failures.append("baseline_without_why.json: loaded without error")
    except RuntimeError:
        pass
    if failures:
        for f in failures:
            print(f"zcp_analyzer self-test FAIL: {f}", file=sys.stderr)
        return 1
    print(f"zcp_analyzer self-test: {len(expectations) + 5} fixture "
          "checks OK")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        epilog="See docs/STATIC_ANALYSIS.md.")
    ap.add_argument("--root", type=Path, default=Path("."))
    ap.add_argument("--backend", choices=["auto", "libclang", "internal"],
                    default="auto")
    ap.add_argument("--strict-backend", action="store_true",
                    help="fail instead of falling back to the internal "
                         "backend when libclang is unavailable")
    ap.add_argument("-p", "--compile-commands", default=None, metavar="DIR",
                    help="build dir containing compile_commands.json "
                         "(needed by the libclang backend)")
    ap.add_argument("--baseline", type=Path, default=None)
    ap.add_argument("--update-baseline", action="store_true")
    ap.add_argument("--inventory", type=Path, default=None,
                    help="root-set and atomic-order inventory JSON "
                         "(default tools/atomic_order_baseline.json when "
                         "present)")
    ap.add_argument("--update-inventory", action="store_true")
    ap.add_argument("--emit-inventory", type=Path, default=None,
                    help="also write the current inventory JSON here")
    ap.add_argument("--render-design-table", action="store_true",
                    help="print the DESIGN.md §8 atomic-order table and exit")
    ap.add_argument("--check-design-table", type=Path, default=None,
                    help="verify the generated table block in this doc "
                         "matches the code")
    ap.add_argument("--glob", action="append", default=None)
    ap.add_argument("--list-roots", action="store_true")
    ap.add_argument("--dump-lock-graph", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    root = args.root.resolve()
    if args.self_test:
        return self_test(root)

    inventory_path = args.inventory
    if inventory_path is None:
        default_inv = root / "tools" / "atomic_order_baseline.json"
        if default_inv.exists() or args.update_inventory:
            inventory_path = default_inv
    elif not inventory_path.is_absolute():
        inventory_path = root / inventory_path

    try:
        model, findings, inventory, lock_edges, doc_errors = analyze(
            root, args.backend, args.compile_commands,
            args.glob or DEFAULT_SRC_GLOBS,
            args.strict_backend, inventory_path,
            args.check_design_table)
    except RuntimeError as e:
        print(f"zcp_analyzer: {e}", file=sys.stderr)
        return 2

    if args.render_design_table:
        print(render_design_table(inventory))
        return 0
    if args.list_roots:
        for f in sorted({x.qual for x in model.funcs if x.fast_path}):
            print(f)
        for f in sorted({x.qual for x in model.funcs if x.slow_path}):
            print(f"{f} [ZCP_SLOW_PATH boundary]")
        return 0
    if args.dump_lock_graph:
        for a in sorted(lock_edges):
            for b in sorted(lock_edges[a]):
                print(f"{a} -> {b}")
        return 0
    if args.emit_inventory:
        args.emit_inventory.write_text(json.dumps(inventory, indent=2) + "\n")
    if args.update_inventory:
        inventory_path.write_text(json.dumps(inventory, indent=2) + "\n")
        print(f"inventory updated: {len(inventory['sites'])} aggregated "
              f"sites -> {inventory_path}")
        findings = [f for f in findings if f.rule != "ZCPA020"]

    baseline_path = args.baseline
    if baseline_path is not None and not baseline_path.is_absolute():
        baseline_path = root / baseline_path
    try:
        baseline = load_baseline(baseline_path)
    except (RuntimeError, json.JSONDecodeError) as e:
        print(f"zcp_analyzer: {e}", file=sys.stderr)
        return 2

    fps = {}
    for f in findings:
        fps.setdefault(f.fp, f)
    if args.update_baseline:
        if baseline_path is None:
            print("--update-baseline requires --baseline", file=sys.stderr)
            return 2
        save_baseline(baseline_path,
                      {fp: baseline.get(fp, "") for fp in fps})
        print(f"baseline updated: {len(fps)} findings -> {baseline_path}; "
              "give every new entry a 'why' before committing")
        return 0

    new = {fp: f for fp, f in fps.items() if fp not in baseline}
    fixed = set(baseline) - set(fps)
    for fp in sorted(new):
        print_finding(new[fp])
    for err in doc_errors:
        print(f"zcp_analyzer: {err}", file=sys.stderr)
    if fixed:
        print(f"zcp_analyzer: {len(fixed)} baselined finding(s) no longer "
              "present; run --update-baseline to shrink the baseline.")
    nroots = sum(1 for f in model.funcs if f.fast_path)
    if new or doc_errors:
        print(f"zcp_analyzer[{model.backend}]: {len(new)} new violation(s), "
              f"{len(doc_errors)} doc error(s) "
              f"({len(fps)} total, {len(baseline)} baselined, "
              f"{nroots} fast-path roots, {len(model.funcs)} functions)",
              file=sys.stderr)
        return 1
    print(f"zcp_analyzer[{model.backend}]: clean — {nroots} fast-path roots "
          f"verified over {len(model.funcs)} functions, lock-order graph "
          f"acyclic ({sum(len(v) for v in lock_edges.values())} edges), "
          f"{len(inventory['sites'])} inventoried atomic sites, "
          f"{len(baseline)} baselined finding(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
