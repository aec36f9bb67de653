#!/usr/bin/env python3
"""fastjoin-lint: project-specific static checks the compiler can't do.

AST-lite: the pass works on comment/string-stripped, tokenized source
lines (stdlib only, no libclang). Rules:

  atomic-order       every std::atomic load/store/RMW names an explicit
                     std::memory_order (no seq_cst-by-default). RMW
                     methods (fetch_add, compare_exchange_*, exchange,
                     test_and_set) are atomic-only and always checked;
                     .load()/.store() and operator forms (++, +=, =) are
                     checked against a cross-file set of identifiers
                     declared std::atomic, so InstanceLoad::load() and
                     friends don't false-positive.
  hot-path-blocking  files tagged `// FASTJOIN_HOT_PATH` (whole file) or
                     regions between `// FASTJOIN_HOT_PATH_BEGIN` and
                     `// FASTJOIN_HOT_PATH_END` must not use mutexes,
                     condition variables, sleeps, or allocate inside a
                     loop.
  stub-parity        headers that carry both a real and a
                     FASTJOIN_NO_TELEMETRY stub branch must declare the
                     same classes with the same method names in both.
  banned-api         no C PRNG (rand/srand/random_shuffle), no gets, no
                     volatile-as-synchronization, no wall-clock/date
                     includes (<ctime>, <sys/time.h>) in src/ — steady
                     clocks only.
  protocol-clock     files tagged `// FASTJOIN_PROTOCOL_FILE` (the
                     migration/replay control plane and its model) must
                     not read steady_clock::now() or sleep directly —
                     time goes through the injectable Clock
                     (common/clock.hpp) so the protocol checker can run
                     it under virtual time. clk_->sleep_for(...) is
                     fine; std::this_thread::sleep_for is not.
  net-socket         raw socket/epoll usage (the <sys/socket.h> include
                     family, ::send/::recv and friends, epoll_*) is
                     confined to files tagged `// FASTJOIN_NET_FILE` —
                     which must live in src/net/. Everything else goes
                     through the Socket/Connection/EventLoop layer, so
                     framing, CRC checking and backpressure cannot be
                     bypassed by an ad-hoc write().
  parse-surface      files tagged `// FASTJOIN_PARSE_FILE` (the byte
                     decoders that face attacker-controlled input) must
                     fail by returning false, never by crashing: no
                     assert/abort/exit/throw; no ByteReader read whose
                     bool result is discarded (a statement-position
                     `r.u32(x);` silently continues on truncation); no
                     resize/reserve/new[] whose size expression
                     multiplies (`count * size` overflows before the
                     bound check — divide the bound instead, see
                     net::read_count). Additionally every
                     `bool decode(const std::vector<std::byte>&, T&)`
                     overload declared in a tagged header must have its
                     message type exercised by a fuzz harness under
                     --fuzz-dir (default: tests/fuzz), so new decoders
                     cannot land without harness coverage.
  atomic-padding     in FASTJOIN_HOT_PATH files/regions, a std::atomic
                     member declared without alignas() must not sit
                     directly next to a plain data member: an RMW on
                     the atomic invalidates the cache line carrying the
                     hot field (the false-sharing regression class that
                     cost SpscRing its close-flag padding). Atomics
                     next to other atomics are not flagged — packed
                     all-atomic records are a deliberate layout.
  dead-source        when a scanned directory is a `src/`, every header
                     under it must be reached by some program: the rule
                     follows quoted #includes from every file under the
                     sibling tools/, bench/, examples/ and perfbench/src/
                     (resolved against src/ and the including file's
                     directory; a reached header also pulls in its
                     same-name .cpp) and reports each src/**/X.hpp left
                     over. Without any of those siblings the rule does
                     not run. Its allow() goes on the header's first
                     line.

Escape hatch: `// fastjoin-lint: allow(<rule>)` on the offending line or
the line directly above suppresses that rule there (add a one-line
justification after a colon). A committed baseline
(scripts/lint/fastjoin_lint_baseline.json) gates only NEW findings;
refresh it with --update-baseline.

Usage:
  scripts/lint/fastjoin_lint.py [paths...]            # default: src/
  scripts/lint/fastjoin_lint.py --baseline FILE [--update-baseline]
  scripts/lint/fastjoin_lint.py --json out.json       # machine-readable

Exit status: 0 clean, 1 new findings, 2 usage/IO error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
from dataclasses import dataclass, field

CPP_EXTS = {".hpp", ".cpp", ".h", ".cc", ".cxx", ".hh"}

ALLOW_RE = re.compile(r"fastjoin-lint:\s*allow\(([a-z\-]+(?:\s*,\s*[a-z\-]+)*)\)")

# ---------------------------------------------------------------------------
# Source model
# ---------------------------------------------------------------------------


@dataclass
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str
    snippet: str

    def fingerprint(self) -> str:
        # Line-content based (not line-number based) so unrelated edits
        # above a baselined finding don't resurrect it.
        norm = re.sub(r"\s+", " ", self.snippet.strip())
        h = hashlib.sha256(f"{self.path}|{self.rule}|{norm}".encode())
        return h.hexdigest()[:16]

    def render(self) -> str:
        return (f"{self.path}:{self.line}: [{self.rule}] {self.message}\n"
                f"    {self.snippet.strip()}")


@dataclass
class SourceFile:
    path: str
    raw_lines: list[str]
    code_lines: list[str]  # comments and string literals blanked
    allow: dict[int, set[str]] = field(default_factory=dict)  # 0-based

    def allowed(self, idx: int, rule: str) -> bool:
        for at in (idx, idx - 1):
            rules = self.allow.get(at)
            if rules and (rule in rules or "*" in rules):
                return True
        return False


def strip_comments_and_strings(lines: list[str]) -> list[str]:
    """Blank out comments and string/char literals, preserving layout
    (each construct is replaced with spaces so columns and line counts
    survive)."""
    out = []
    in_block = False
    for line in lines:
        buf = []
        i = 0
        n = len(line)
        while i < n:
            c = line[i]
            if in_block:
                if c == "*" and i + 1 < n and line[i + 1] == "/":
                    in_block = False
                    buf.append("  ")
                    i += 2
                else:
                    buf.append(" ")
                    i += 1
                continue
            if c == "/" and i + 1 < n and line[i + 1] == "/":
                buf.append(" " * (n - i))
                break
            if c == "/" and i + 1 < n and line[i + 1] == "*":
                in_block = True
                buf.append("  ")
                i += 2
                continue
            if c in "\"'":
                quote = c
                buf.append(quote)
                i += 1
                while i < n:
                    if line[i] == "\\" and i + 1 < n:
                        buf.append("  ")
                        i += 2
                        continue
                    if line[i] == quote:
                        buf.append(quote)
                        i += 1
                        break
                    buf.append(" ")
                    i += 1
                continue
            buf.append(c)
            i += 1
        out.append("".join(buf))
    return out


def load_file(path: str) -> SourceFile:
    with open(path, encoding="utf-8", errors="replace") as f:
        raw = f.read().splitlines()
    sf = SourceFile(path=path, raw_lines=raw,
                    code_lines=strip_comments_and_strings(raw))
    for idx, line in enumerate(raw):
        m = ALLOW_RE.search(line)
        if m:
            sf.allow[idx] = {r.strip() for r in m.group(1).split(",")}
    return sf


# ---------------------------------------------------------------------------
# Rule: atomic-order
# ---------------------------------------------------------------------------

# Methods that only exist on std::atomic / std::atomic_flag: flag any
# call without a memory_order argument, receiver-independent.
ATOMIC_ONLY_METHODS = (
    "fetch_add", "fetch_sub", "fetch_and", "fetch_or", "fetch_xor",
    "compare_exchange_weak", "compare_exchange_strong", "test_and_set",
)
# Methods shared with non-atomic types (InstanceLoad::load, ...): flag
# only when the receiver identifier is known to be a std::atomic.
ATOMIC_AMBIGUOUS_METHODS = ("load", "store", "exchange")

ATOMIC_DECL_RE = re.compile(
    r"std\s*::\s*atomic(?:_flag|_bool|_int|_uint|_size_t|_uint64_t)?\b")
# Identifier (with optional {...} init) that ends a declaration.
DECL_NAME_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*(?:\{[^{}]*\}|=[^,;]*)?\s*(?:[;,]|$)")

CPP_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "alignas", "decltype", "static_assert", "catch", "new", "delete",
    "const", "constexpr", "static", "mutable", "explicit", "inline",
    "class", "struct", "public", "private", "protected", "namespace",
    "template", "typename", "using", "operator", "noexcept", "default",
    "true", "false", "nullptr", "do", "else", "break", "continue",
}


INCLUDE_RE = re.compile(r'#\s*include\s*"([^"]+)"')


# Declaration-shaped line WITHOUT std::atomic: a type token directly
# before the name. Used to un-shadow names that are atomic in an
# included header but plain in this file (`bool closed_` vs SpscRing's
# `std::atomic<bool> closed_`).
PLAIN_DECL_RE = re.compile(
    r"(?:\bauto\b|[A-Za-z_][\w:]*(?:<[^<>;]*>)?|[>\*&\]])\s+"
    r"([A-Za-z_]\w*)\s*(?:[A-Z_]+\([^)]*\)\s*)?(?:=|\{|;)")
DECL_KEYWORDS = {"return", "delete", "throw", "new", "co_return",
                 "case", "goto"}


def file_plain_names(sf: SourceFile) -> set[str]:
    names: set[str] = set()
    for line in sf.code_lines:
        if ATOMIC_DECL_RE.search(line):
            continue
        for m in PLAIN_DECL_RE.finditer(line):
            before = line[:m.start(1)].strip()
            first = before.split()[-1] if before else ""
            if first.rstrip("*&") in DECL_KEYWORDS:
                continue
            if m.group(1) not in CPP_KEYWORDS:
                names.add(m.group(1))
    return names


def file_atomic_names(sf: SourceFile) -> tuple[set[str], set[str]]:
    """(direct, wrapped) identifiers declared with std::atomic type in
    this file. `wrapped` names are containers OF atomics (e.g.
    unique_ptr<std::atomic<T>[]>): only their subscripted form is an
    atomic access."""
    names: set[str] = set()
    wrapped: set[str] = set()
    for line in sf.code_lines:
        m0 = ATOMIC_DECL_RE.search(line)
        if not m0:
            continue
        is_wrapped = line[:m0.start()].rstrip().endswith("<")
        # Only declaration-shaped lines: drop everything through the
        # last '>' of the template args, then take trailing identifiers
        # (handles alignas(64), mutable, arrays-in-unique_ptr and brace
        # inits).
        tail = line
        rest = line[m0.end():]
        gt = _skip_template_args(rest)
        if gt is not None:
            tail = rest[gt:]
        for dm in DECL_NAME_RE.finditer(tail):
            name = dm.group(1)
            if name not in CPP_KEYWORDS:
                (wrapped if is_wrapped else names).add(name)
    return names, wrapped


@dataclass
class AtomicScope:
    direct: set[str] = field(default_factory=set)
    wrapped: set[str] = field(default_factory=set)

    def __contains__(self, name: str) -> bool:
        return name in self.direct or name in self.wrapped


def collect_atomic_names(files: list[SourceFile]) -> dict[str, AtomicScope]:
    """Per-file atomic-identifier sets, scoped to the translation unit:
    a file sees its own std::atomic declarations plus those of project
    headers it directly #include-s (matched by path suffix), minus any
    name this file re-declares with a plain type. A global set would
    false-positive on common member names (`v`, `head`, `total_`) that
    are atomic in one class and plain in another."""
    own = {sf.path: file_atomic_names(sf) for sf in files}
    plain = {sf.path: file_plain_names(sf) for sf in files}
    by_suffix: dict[str, list[str]] = {}
    for sf in files:
        parts = sf.path.replace("\\", "/").split("/")
        for i in range(len(parts)):
            by_suffix.setdefault("/".join(parts[i:]), []).append(sf.path)
    scoped: dict[str, AtomicScope] = {}
    for sf in files:
        direct, wrapped = (set(own[sf.path][0]), set(own[sf.path][1]))
        for line in sf.raw_lines:
            m = INCLUDE_RE.search(line)
            if not m:
                continue
            for target in by_suffix.get(m.group(1), []):
                inc_direct, inc_wrapped = own[target]
                # Included names lose to this file's own plain decls.
                direct |= inc_direct - plain[sf.path]
                wrapped |= inc_wrapped - plain[sf.path]
        scoped[sf.path] = AtomicScope(direct, wrapped)
    return scoped


def _skip_template_args(s: str) -> int | None:
    """Given text starting right after 'std::atomic', return the index
    just past the balanced <...> (or 0 when there is none, e.g.
    atomic_flag)."""
    i = 0
    while i < len(s) and s[i].isspace():
        i += 1
    if i >= len(s) or s[i] != "<":
        return 0
    depth = 0
    while i < len(s):
        if s[i] == "<":
            depth += 1
        elif s[i] == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return None  # unbalanced (multi-line decl) — skip


def _call_args(line: str, open_paren: int) -> str | None:
    """Text inside the balanced parens opening at `open_paren`, or None
    when the call spans lines (caller then peeks ahead)."""
    depth = 0
    for i in range(open_paren, len(line)):
        if line[i] == "(":
            depth += 1
        elif line[i] == ")":
            depth -= 1
            if depth == 0:
                return line[open_paren + 1:i]
    return None


METHOD_CALL_RE = re.compile(
    r"(?:([A-Za-z_]\w*)\s*(?:\[[^\]]*\])?\s*(?:\.|->)\s*)?"
    r"\b(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|"
    r"fetch_xor|compare_exchange_weak|compare_exchange_strong|"
    r"test_and_set)\s*\(")

ATOMIC_OP_ASSIGN_RE = re.compile(
    r"(?:^|[^\w.])([A-Za-z_]\w*)\s*(\[[^\]]*\])?\s*"
    r"(\+\+|--|\+=|-=|\|=|&=|\^=|=(?![=]))")
ATOMIC_PREFIX_RE = re.compile(
    r"(\+\+|--)\s*([A-Za-z_]\w*)\s*(\[[^\]]*\])?")


def _shadowed_decl(line: str, name_start: int) -> bool:
    """True when the match site is a declaration of a NEW variable with
    that name (`const auto pushed = lane->pushed.load(...)`) — a type
    token directly precedes the identifier. `->`/`(` / statement starts
    are real accesses."""
    prev = line[:name_start].rstrip()
    if not prev or prev.endswith(("->", "(", ",", ";", "{", "&&", "||",
                                  "=", "return")):
        return False
    return prev[-1].isalnum() or prev[-1] in "_>*&]"


def check_atomic_order(sf: SourceFile, scope: "AtomicScope",
                       findings: list[Finding]) -> None:
    rule = "atomic-order"
    lines = sf.code_lines
    for idx, line in enumerate(lines):
        for m in METHOD_CALL_RE.finditer(line):
            receiver, method = m.group(1), m.group(2)
            if method in ATOMIC_AMBIGUOUS_METHODS:
                if receiver is None or receiver not in scope:
                    continue
            # Balanced argument text; peek up to 3 continuation lines
            # for calls broken across lines.
            paren = line.index("(", m.end() - 1)
            args = _call_args(line, paren)
            peek = idx
            joined = line
            while args is None and peek + 1 < len(lines) and peek - idx < 3:
                peek += 1
                joined = joined + " " + lines[peek]
                args = _call_args(joined, paren)
            if args is None:
                continue
            if "memory_order" in args:
                continue
            if sf.allowed(idx, rule):
                continue
            findings.append(Finding(
                sf.path, idx + 1, rule,
                f"{method}() on std::atomic without an explicit "
                f"std::memory_order (implicit seq_cst)",
                sf.raw_lines[idx]))
    # Operator forms on known atomics: ++x / x++ / x += / x = v are all
    # implicit seq_cst RMWs or stores.
    for idx, line in enumerate(lines):
        if ATOMIC_DECL_RE.search(line):
            continue  # declaration with brace/equals init
        hits: set[str] = set()
        for m in ATOMIC_OP_ASSIGN_RE.finditer(line):
            name, sub = m.group(1), m.group(2)
            if name not in scope or name in CPP_KEYWORDS:
                continue
            if name in scope.wrapped and not sub:
                continue  # assigning the container, not an element
            if _shadowed_decl(line, m.start(1)):
                continue
            hits.add(name)
        for m in ATOMIC_PREFIX_RE.finditer(line):
            name, sub = m.group(2), m.group(3)
            if name not in scope or (name in scope.wrapped and not sub):
                continue
            hits.add(name)
        for name in sorted(hits):
            if sf.allowed(idx, "atomic-order"):
                continue
            findings.append(Finding(
                sf.path, idx + 1, "atomic-order",
                f"operator on std::atomic `{name}` is an implicit "
                f"seq_cst access; use an explicit-order method",
                sf.raw_lines[idx]))


# ---------------------------------------------------------------------------
# Rule: hot-path-blocking
# ---------------------------------------------------------------------------

BLOCKING_TOKEN_RE = re.compile(
    r"std\s*::\s*(mutex|timed_mutex|recursive_mutex|shared_mutex|"
    r"condition_variable(?:_any)?|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock)\b"
    r"|\b(MutexLockMaybe|MutexLock|UniqueLock|CondVar|Mutex)\b"
    r"|\b(sleep_for|sleep_until)\s*\(")

ALLOC_IN_LOOP_RE = re.compile(
    r"\bnew\b|\bmake_unique\b|\bmake_shared\b|\bmalloc\s*\(|"
    r"\bcalloc\s*\(|\bpush_back\s*\(|\bemplace_back\s*\(|"
    r"\bresize\s*\(|\breserve\s*\(")

LOOP_HEADER_RE = re.compile(r"(?:^|[^\w])(for|while)\s*\(")


def hot_regions(sf: SourceFile) -> list[tuple[int, int]]:
    """[start, end) line ranges (0-based) under hot-path rules."""
    head = "\n".join(sf.raw_lines[:5])
    if re.search(r"//\s*FASTJOIN_HOT_PATH\s*$", head, re.M):
        return [(0, len(sf.raw_lines))]
    regions = []
    start = None
    for idx, line in enumerate(sf.raw_lines):
        if "FASTJOIN_HOT_PATH_BEGIN" in line:
            start = idx
        elif "FASTJOIN_HOT_PATH_END" in line and start is not None:
            regions.append((start, idx + 1))
            start = None
    if start is not None:  # unterminated region runs to EOF
        regions.append((start, len(sf.raw_lines)))
    return regions


def check_hot_path(sf: SourceFile, findings: list[Finding]) -> None:
    rule = "hot-path-blocking"
    regions = hot_regions(sf)
    if not regions:
        return
    # Loop extents: a stack of brace depths entered via a braced
    # for/while header.
    depth = 0
    loop_depths: list[int] = []
    in_loop_at: list[bool] = []
    pending_loop = False
    for idx, line in enumerate(sf.code_lines):
        if LOOP_HEADER_RE.search(line):
            pending_loop = True
        for c in line:
            if c == "{":
                if pending_loop:
                    loop_depths.append(depth)
                    pending_loop = False
                depth += 1
            elif c == "}":
                depth -= 1
                if loop_depths and depth == loop_depths[-1]:
                    loop_depths.pop()
        if pending_loop and line.rstrip().endswith(";"):
            pending_loop = False  # braceless single-statement loop
        in_loop_at.append(bool(loop_depths))

    def in_region(idx: int) -> bool:
        return any(a <= idx < b for a, b in regions)

    for idx, line in enumerate(sf.code_lines):
        if not in_region(idx) or sf.allowed(idx, rule):
            continue
        m = BLOCKING_TOKEN_RE.search(line)
        if m:
            tok = next(g for g in m.groups() if g)
            findings.append(Finding(
                sf.path, idx + 1, rule,
                f"blocking primitive `{tok}` in a FASTJOIN_HOT_PATH "
                f"file/region", sf.raw_lines[idx]))
            continue
        if in_loop_at[idx]:
            am = ALLOC_IN_LOOP_RE.search(line)
            if am:
                findings.append(Finding(
                    sf.path, idx + 1, rule,
                    f"allocation-shaped call `{am.group(0).strip('(')}` "
                    f"inside a loop in a FASTJOIN_HOT_PATH file/region",
                    sf.raw_lines[idx]))


# ---------------------------------------------------------------------------
# Rule: stub-parity
# ---------------------------------------------------------------------------

CLASS_DECL_RE = re.compile(r"^(class|struct)\s+([A-Za-z_]\w*)")
METHOD_NAME_RE = re.compile(r"(?<![\w.:>])([A-Za-z_]\w*)\s*\(")
MACROISH_RE = re.compile(r"^[A-Z][A-Z0-9_]*$")


def split_telemetry_branches(sf: SourceFile) -> tuple[list[str], list[str]] | None:
    """(real_lines, stub_lines) for a header with an
    #ifndef FASTJOIN_NO_TELEMETRY / #else / #endif split, else None."""
    real: list[str] = []
    stub: list[str] = []
    stack: list[str] = []  # 'real' / 'stub' / 'other'
    has_split = False
    for raw, code in zip(sf.raw_lines, sf.code_lines):
        s = raw.strip()
        if s.startswith("#ifndef") and "FASTJOIN_NO_TELEMETRY" in s:
            stack.append("real")
            continue
        if s.startswith("#ifdef") and "FASTJOIN_NO_TELEMETRY" in s:
            stack.append("stub")
            continue
        if s.startswith("#if"):
            stack.append("other")
            continue
        if s.startswith("#else"):
            if stack and stack[-1] == "real":
                stack[-1] = "stub"
                has_split = True
            elif stack and stack[-1] == "stub":
                stack[-1] = "real"
                has_split = True
            continue
        if s.startswith("#endif"):
            if stack:
                stack.pop()
            continue
        branch = next((b for b in reversed(stack) if b != "other"), None)
        if branch == "real":
            real.append(code)
        elif branch == "stub":
            stub.append(code)
    if not has_split or not stub:
        return None
    return real, stub


def extract_api(lines: list[str]) -> dict[str, set[str]]:
    """{class_name: {method names}} plus {'<free>': {...}} for functions
    at namespace scope. Only declarations at the class-body / namespace
    brace depth count, so calls inside inline bodies are ignored."""
    api: dict[str, set[str]] = {}
    depth = 0
    # (name or None-for-non-class scope, body_depth, access_public)
    class_stack: list[tuple[str | None, int, bool]] = []
    pending: tuple[str, str] | None = None  # (kind, name) awaiting '{'
    for line in lines:
        stripped = line.strip()
        m = CLASS_DECL_RE.match(stripped)
        if m and not stripped.rstrip().endswith(";"):
            pending = (m.group(1), m.group(2))
        if class_stack and stripped.startswith(("public:", "private:",
                                                "protected:")):
            name, bdepth, _ = class_stack[-1]
            class_stack[-1] = (name, bdepth,
                               stripped.startswith("public:"))
        # Method extraction happens before brace tracking so one-line
        # inline bodies are seen at class depth.
        at_class_depth = (class_stack
                          and depth == class_stack[-1][1] + 1
                          and class_stack[-1][0] is not None
                          and class_stack[-1][2])
        at_ns_depth = not class_stack and depth <= 1
        if (at_class_depth or at_ns_depth) \
                and not stripped.startswith(("#", ":", ",", ")")):
            mm = METHOD_NAME_RE.search(line)
            if mm:
                name = mm.group(1)
                if (name not in CPP_KEYWORDS
                        and not MACROISH_RE.match(name)):
                    key = class_stack[-1][0] if at_class_depth else "<free>"
                    api.setdefault(key, set()).add(name)
        for c in line:
            if c == "{":
                if pending:
                    kind, name = pending
                    top_level = depth <= 1
                    class_stack.append(
                        (name if top_level else None, depth,
                         kind == "struct"))
                    pending = None
                else:
                    # Any other brace (function body, namespace, enum):
                    # track anonymous scope when inside a class so
                    # nested depths don't count as class depth.
                    pass
                depth += 1
            elif c == "}":
                depth -= 1
                if class_stack and depth == class_stack[-1][1]:
                    class_stack.pop()
        if pending and stripped.endswith(";"):
            pending = None
    return api


def check_stub_parity(sf: SourceFile, findings: list[Finding]) -> None:
    rule = "stub-parity"
    if not sf.path.endswith((".hpp", ".h", ".hh")):
        return  # .cpp bodies are legitimately real-branch-only
    branches = split_telemetry_branches(sf)
    if branches is None:
        return
    real_api = extract_api(branches[0])
    stub_api = extract_api(branches[1])
    if sf.allowed(0, rule) or sf.allowed(1, rule):
        return

    def report(msg: str) -> None:
        findings.append(Finding(sf.path, 1, rule, msg, sf.raw_lines[0]))

    for cls in sorted(set(real_api) | set(stub_api)):
        r = real_api.get(cls)
        s = stub_api.get(cls)
        if r is None or s is None:
            which = "stub" if s is None else "real"
            report(f"`{cls}` is declared in only one branch (missing "
                   f"from the {which} FASTJOIN_NO_TELEMETRY branch)")
            continue
        for name in sorted(r - s):
            report(f"`{cls}::{name}` exists in the real branch but not "
                   f"in the FASTJOIN_NO_TELEMETRY stub")
        for name in sorted(s - r):
            report(f"`{cls}::{name}` exists in the FASTJOIN_NO_TELEMETRY "
                   f"stub but not in the real branch")


# ---------------------------------------------------------------------------
# Rule: banned-api
# ---------------------------------------------------------------------------

BANNED_PATTERNS = [
    (re.compile(r"(?<![\w:])s?rand\s*\("), "C PRNG (rand/srand)",
     "use common/rng.hpp (seeded, reproducible)"),
    (re.compile(r"\brandom_shuffle\b"), "std::random_shuffle",
     "removed in C++17; use std::shuffle with common/rng"),
    (re.compile(r"(?<![\w:])gets\s*\("), "gets()",
     "unbounded read; removed from the standard"),
    (re.compile(r"\bvolatile\b"), "volatile",
     "volatile is not a synchronization primitive; use std::atomic"),
    (re.compile(r'#\s*include\s*<(ctime|time\.h|sys/time\.h)>'),
     "wall-clock/date include",
     "steady clocks only (telemetry/clock.hpp); wall time breaks "
     "replay determinism"),
]


def check_banned_api(sf: SourceFile, findings: list[Finding]) -> None:
    rule = "banned-api"
    for idx, line in enumerate(sf.code_lines):
        # Includes are stripped? No: '<ctime>' survives stripping (not a
        # string), but use raw for include matching to be safe.
        for pat, what, why in BANNED_PATTERNS:
            target = sf.raw_lines[idx] if pat.pattern.startswith("#") \
                else line
            if pat.search(target):
                if sf.allowed(idx, rule):
                    continue
                findings.append(Finding(
                    sf.path, idx + 1, rule, f"{what}: {why}",
                    sf.raw_lines[idx]))


# ---------------------------------------------------------------------------
# Rule: protocol-clock
# ---------------------------------------------------------------------------

PROTOCOL_TAG = "FASTJOIN_PROTOCOL_FILE"

# Direct clock reads and raw sleeps. Deliberately narrow: sleeps routed
# through the injectable Clock (`clk_->sleep_for(...)`) must stay legal,
# so only the this_thread-qualified forms and the C sleep family are
# banned; `steady_clock::time_point` as a type is fine, only ::now() is
# a wall-clock read.
PROTOCOL_CLOCK_RE = re.compile(
    r"\b(?:steady_clock|system_clock|high_resolution_clock)\s*::\s*now\s*\("
    r"|\bthis_thread\s*::\s*(?:sleep_for|sleep_until)\s*\("
    r"|(?<![\w:.>])(?:usleep|nanosleep)\s*\(")


def check_protocol_clock(sf: SourceFile, findings: list[Finding]) -> None:
    rule = "protocol-clock"
    head = "\n".join(sf.raw_lines[:5])
    if PROTOCOL_TAG not in head:
        return
    for idx, line in enumerate(sf.code_lines):
        m = PROTOCOL_CLOCK_RE.search(line)
        if not m:
            continue
        if sf.allowed(idx, rule):
            continue
        findings.append(Finding(
            sf.path, idx + 1, rule,
            f"direct wall-clock/sleep `{m.group(0).rstrip('(').strip()}` "
            f"in a {PROTOCOL_TAG}; route time through the injectable "
            f"Clock (common/clock.hpp) so the protocol checker can run "
            f"this path under virtual time",
            sf.raw_lines[idx]))


# ---------------------------------------------------------------------------
# Rule: net-socket
# ---------------------------------------------------------------------------

NET_TAG = "FASTJOIN_NET_FILE"

NET_INCLUDE_RE = re.compile(
    r'#\s*include\s*<(sys/socket\.h|sys/epoll\.h|sys/un\.h|'
    r'netinet/[\w./]+|arpa/inet\.h|poll\.h|sys/select\.h)>')

# Global-scope-qualified socket syscalls (`::send`, never
# `Connection::send` — the lookbehind rejects a qualified name) plus
# the epoll family, whose bare names are unambiguous. poll/select are
# qualified-only: bare `poll(` is a legitimate method name elsewhere.
NET_CALL_RE = re.compile(
    r"(?<![\w>])::\s*(send|recv|sendto|recvfrom|sendmsg|recvmsg|"
    r"socket|connect|accept4?|bind|listen|shutdown|"
    r"getsockopt|setsockopt|poll|ppoll|select)\s*\("
    r"|(?<![\w:.])(epoll_create1?|epoll_ctl|epoll_wait|epoll_pwait)\s*\(")


def check_net_socket(sf: SourceFile, findings: list[Finding]) -> None:
    rule = "net-socket"
    norm = sf.path.replace("\\", "/")
    head = "\n".join(sf.raw_lines[:5])
    in_net = "/src/net/" in norm or norm.startswith("src/net/")
    in_src = "/src/" in norm or norm.startswith("src/")
    in_server = "/src/server/" in norm or norm.startswith("src/server/")
    if NET_TAG in head:
        # The tag is the exemption — and it is reserved for the
        # transport layer itself, or the boundary means nothing. The
        # serving layer in particular never qualifies: its whole design
        # is to reuse src/net (frames, event loop, connections).
        if in_src and not in_net and not sf.allowed(0, rule):
            where = ("src/server/ (the serving layer rides on src/net "
                     "by design)" if in_server else "src/net/")
            findings.append(Finding(
                sf.path, 1, rule,
                f"{NET_TAG} tag outside src/net/: the raw-socket "
                f"exemption is reserved for the transport layer, not "
                f"{where}",
                sf.raw_lines[0]))
        return
    for idx, line in enumerate(sf.code_lines):
        m = NET_INCLUDE_RE.search(sf.raw_lines[idx])
        if not m:
            m = NET_CALL_RE.search(line)
        if not m:
            continue
        if sf.allowed(idx, rule):
            continue
        what = next(g for g in m.groups() if g)
        hint = ("the serving front door must speak through src/net "
                "(Acceptor/Connection/EventLoop); raw sockets here "
                "bypass framing, CRC and backpressure"
                if in_server else
                "go through src/net (Socket/Connection/EventLoop), "
                "which owns framing, CRC and backpressure — or tag the "
                f"file {NET_TAG} if it IS the transport layer")
        findings.append(Finding(
            sf.path, idx + 1, rule,
            f"raw socket/epoll usage `{what}` outside the net layer; "
            f"{hint}",
            sf.raw_lines[idx]))


# ---------------------------------------------------------------------------
# Rule: parse-surface
# ---------------------------------------------------------------------------

PARSE_TAG = "FASTJOIN_PARSE_FILE"

# Crash-on-input: a decoder that asserts or throws hands the attacker a
# remote kill switch. static_assert is compile-time and stays legal.
PARSE_CRASH_RE = re.compile(
    r"(?<![\w_])(?<!static_)assert\s*\("
    r"|(?<![\w:.])(?:abort|_exit|exit)\s*\("
    r"|(?<![\w:.])throw\b")

READER_DECL_RE = re.compile(r"\bByteReader\b\s*&?\s+([A-Za-z_]\w*)")

ALLOC_SIZE_RE = re.compile(r"\.\s*(resize|reserve)\s*(\()")
NEW_ARRAY_RE = re.compile(r"\bnew\s+[A-Za-z_][\w:<>\s]*\[([^\]]*)\]")


def is_parse_file(sf: SourceFile) -> bool:
    return PARSE_TAG in "\n".join(sf.raw_lines[:5])


def check_parse_surface(sf: SourceFile, findings: list[Finding]) -> None:
    rule = "parse-surface"
    if not is_parse_file(sf):
        return
    reader_names = {m.group(1)
                    for line in sf.code_lines
                    for m in READER_DECL_RE.finditer(line)}
    reader_names -= CPP_KEYWORDS
    discard_re = None
    if reader_names:
        alts = "|".join(sorted(re.escape(n) for n in reader_names))
        # Statement-position read: nothing consumes the bool, so a
        # truncated buffer sails through with a zero-filled field.
        discard_re = re.compile(
            rf"^\s*(?:\(\s*void\s*\)\s*)?({alts})\s*\.\s*"
            rf"[A-Za-z_]\w*\s*\(")
    for idx, line in enumerate(sf.code_lines):
        m = PARSE_CRASH_RE.search(line)
        if m and not sf.allowed(idx, rule):
            what = m.group(0).rstrip("(").strip()
            findings.append(Finding(
                sf.path, idx + 1, rule,
                f"`{what}` in a {PARSE_TAG}: decoders face untrusted "
                f"bytes and must fail by returning false, not by "
                f"crashing the process",
                sf.raw_lines[idx]))
            continue
        if discard_re:
            # A line that merely continues an expression from above
            # (`return r.u64(a) &&\n  r.u32(b);`) has its result
            # consumed by the operator on the previous line.
            prev = ""
            for j in range(idx - 1, -1, -1):
                if sf.code_lines[j].strip():
                    prev = sf.code_lines[j].rstrip()
                    break
            continuation = prev.endswith(("&&", "||", "(", ",", "=",
                                          "?", ":", "return", "+", "!"))
            dm = discard_re.match(line)
            if dm and not continuation and line.rstrip().endswith(";") \
                    and not sf.allowed(idx, rule):
                findings.append(Finding(
                    sf.path, idx + 1, rule,
                    f"discarded ByteReader read on `{dm.group(1)}`: the "
                    f"bool result must be checked or truncated input "
                    f"silently yields zero-filled fields",
                    sf.raw_lines[idx]))
                continue
        sized = None
        for am in ALLOC_SIZE_RE.finditer(line):
            args = _call_args(line, am.start(2))
            if args is not None and "*" in args:
                sized = f".{am.group(1)}({args.strip()})"
                break
        if sized is None:
            nm = NEW_ARRAY_RE.search(line)
            if nm and "*" in nm.group(1):
                sized = nm.group(0)
        if sized is not None and not sf.allowed(idx, rule):
            findings.append(Finding(
                sf.path, idx + 1, rule,
                f"multiplied size expression `{sized}` in a "
                f"{PARSE_TAG}: `count * size` can overflow before any "
                f"bound check — divide the bound instead "
                f"(net::read_count)",
                sf.raw_lines[idx]))


# A decode overload declaration: bool decode(const std::vector<std::byte>&,
# T&). Matched in tagged headers only (definitions in .cpp would
# double-report the same surface).
DECODE_DECL_RE = re.compile(
    r"\bbool\s+decode\s*\(\s*const\s+std\s*::\s*vector\s*<\s*std\s*::\s*"
    r"byte\s*>\s*&\s*\w+\s*,\s*([A-Za-z_]\w*)\s*&")


def check_decode_parity(files: list[SourceFile], fuzz_dir: str | None,
                        findings: list[Finding]) -> None:
    """Every decode overload in a tagged header must have its message
    type named somewhere under the fuzz harness tree — a new decoder
    cannot land without a harness exercising it."""
    rule = "parse-surface"
    decls: list[tuple[SourceFile, int, str]] = []
    for sf in files:
        if not sf.path.endswith((".hpp", ".h", ".hh")):
            continue
        if not is_parse_file(sf):
            continue
        for idx, line in enumerate(sf.code_lines):
            m = DECODE_DECL_RE.search(line)
            if m:
                decls.append((sf, idx, m.group(1)))
    if not decls or fuzz_dir is None or not os.path.isdir(fuzz_dir):
        return
    corpus = []
    for root, dirs, names in os.walk(fuzz_dir):
        dirs[:] = [d for d in dirs if d != "corpus"]
        for f in sorted(names):
            if os.path.splitext(f)[1] in CPP_EXTS:
                with open(os.path.join(root, f), encoding="utf-8",
                          errors="replace") as fh:
                    corpus.append(fh.read())
    harness_text = "\n".join(corpus)
    for sf, idx, type_name in decls:
        if re.search(rf"\b{re.escape(type_name)}\b", harness_text):
            continue
        if sf.allowed(idx, rule):
            continue
        findings.append(Finding(
            sf.path, idx + 1, rule,
            f"decode overload for `{type_name}` has no fuzz harness: "
            f"no file under {os.path.relpath(fuzz_dir)} names the type. "
            f"Register it in the wire/client harness (tests/fuzz/) "
            f"and add seed corpus entries",
            sf.raw_lines[idx]))


# ---------------------------------------------------------------------------
# Rule: atomic-padding
# ---------------------------------------------------------------------------

# A member-declaration-shaped line: ends with ';', no parens (excludes
# prototypes, macros, method bodies), not a brace/label/preprocessor
# line. Arrays and =/{...} initializers included.
MEMBER_DECL_RE = re.compile(
    r"^[A-Za-z_][\w:<>,\s\*&]*\s[A-Za-z_]\w*"
    r"(?:\s*\[[^\]]*\])?\s*(?:=[^;()]*|\{[^}()]*\})?\s*;\s*$")
NON_MEMBER_STARTS = ("using ", "typedef ", "return", "friend ",
                     "static_assert", "public", "private", "protected")


def _member_decl_kind(code_line: str) -> str | None:
    """'atomic' / 'plain' / None for a class-body line. Wrapped atomics
    (containers/pointers OF atomics) count as plain: the member itself
    is not the contended word."""
    s = code_line.strip()
    if not s or s.startswith(("#", "}", "{")) or \
            s.startswith(NON_MEMBER_STARTS):
        return None
    m = ATOMIC_DECL_RE.search(s)
    if m and not s[:m.start()].rstrip().endswith("<") and s.endswith(";"):
        return "atomic"
    if MEMBER_DECL_RE.match(s):
        return "plain"
    return None


def check_atomic_padding(sf: SourceFile, findings: list[Finding]) -> None:
    rule = "atomic-padding"
    regions = hot_regions(sf)
    if not regions:
        return

    def in_region(idx: int) -> bool:
        return any(a <= idx < b for a, b in regions)

    def neighbor_kind(idx: int, step: int) -> str | None:
        """Kind of the nearest non-blank code line in direction `step`,
        skipping pure-comment lines (blank after stripping)."""
        j = idx + step
        while 0 <= j < len(sf.code_lines):
            if sf.code_lines[j].strip():
                return _member_decl_kind(sf.code_lines[j])
            j += step
        return None

    for idx, line in enumerate(sf.code_lines):
        if not in_region(idx):
            continue
        if _member_decl_kind(line) != "atomic":
            continue
        if "alignas" in line:
            continue
        if neighbor_kind(idx, -1) != "plain" and \
                neighbor_kind(idx, +1) != "plain":
            continue
        if sf.allowed(idx, rule):
            continue
        findings.append(Finding(
            sf.path, idx + 1, rule,
            "unpadded std::atomic member adjacent to a plain data "
            "member in a FASTJOIN_HOT_PATH file/region: RMWs on it "
            "invalidate the neighbor's cache line (false sharing); "
            "alignas(64) the atomic or justify with an allow()",
            sf.raw_lines[idx]))


# ---------------------------------------------------------------------------
# Rule: dead-source
# ---------------------------------------------------------------------------

# Where the programs live, relative to the parent of the scanned src/.
PROGRAM_ROOTS = ("tools", "bench", "examples", os.path.join("perfbench", "src"))
QUOTED_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')
HEADER_EXTS = {".hpp", ".h", ".hh"}


def reached_sources(src_dir: str, roots: list[str]) -> set[str]:
    """Real paths of every file under `roots` plus every file they reach
    by quoted #include, transitively. An include resolves against
    src_dir, then against the including file's directory; a reached
    header also reaches its same-name .cpp."""
    todo = [os.path.realpath(p) for p in iter_sources(roots)]
    seen = set(todo)
    while todo:
        path = todo.pop()
        with open(path, encoding="utf-8", errors="replace") as f:
            includes = [m.group(1) for m in map(QUOTED_INCLUDE_RE.match, f)
                        if m]
        for inc in includes:
            for base in (src_dir, os.path.dirname(path)):
                target = os.path.realpath(os.path.join(base, inc))
                if os.path.isfile(target):
                    break
            else:
                continue
            stem, ext = os.path.splitext(target)
            pulled = [target]
            if ext in HEADER_EXTS:
                pulled.append(stem + ".cpp")
            for p in pulled:
                if p not in seen and os.path.isfile(p):
                    seen.add(p)
                    todo.append(p)
    return seen


def check_dead_source(paths: list[str], files: list[SourceFile],
                      findings: list[Finding]) -> None:
    rule = "dead-source"
    for scanned in paths:
        if not os.path.isdir(scanned) or \
                os.path.basename(os.path.normpath(scanned)) != "src":
            continue
        src_dir = os.path.realpath(scanned)
        parent = os.path.dirname(src_dir)
        roots = [os.path.join(parent, r) for r in PROGRAM_ROOTS
                 if os.path.isdir(os.path.join(parent, r))]
        if not roots:
            continue
        reached = reached_sources(src_dir, roots)
        for sf in files:
            real = os.path.realpath(sf.path)
            if os.path.splitext(real)[1] not in HEADER_EXTS or \
                    not real.startswith(src_dir + os.sep) or \
                    real in reached or sf.allowed(0, rule):
                continue
            findings.append(Finding(
                sf.path, 1, rule,
                "no program reaches this header: no file under "
                f"{', '.join(PROGRAM_ROOTS)} includes it, directly or "
                "through other src/ files. Delete the module and its "
                "tests, or allow() it on this line with the reason",
                sf.raw_lines[0] if sf.raw_lines else ""))


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def iter_sources(paths: list[str]) -> list[str]:
    out = []
    for p in paths:
        if os.path.isfile(p):
            out.append(p)
            continue
        for root, dirs, files in os.walk(p):
            dirs[:] = [d for d in dirs if not d.startswith((".", "build"))]
            for f in sorted(files):
                if os.path.splitext(f)[1] in CPP_EXTS:
                    out.append(os.path.join(root, f))
    return sorted(set(out))


def run(paths: list[str], fuzz_dir: str | None = None) -> list[Finding]:
    files = [load_file(p) for p in iter_sources(paths)]
    atomic_scopes = collect_atomic_names(files)
    findings: list[Finding] = []
    for sf in files:
        check_atomic_order(sf, atomic_scopes[sf.path], findings)
        check_hot_path(sf, findings)
        check_stub_parity(sf, findings)
        check_banned_api(sf, findings)
        check_protocol_clock(sf, findings)
        check_net_socket(sf, findings)
        check_parse_surface(sf, findings)
        check_atomic_padding(sf, findings)
    check_decode_parity(files, fuzz_dir, findings)
    check_dead_source(paths, files, findings)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="*", default=None,
                    help="files or directories to scan (default: src)")
    ap.add_argument("--baseline", help="baseline JSON; only findings "
                    "not in it fail the run")
    ap.add_argument("--update-baseline", action="store_true",
                    help="rewrite the baseline with current findings")
    ap.add_argument("--json", dest="json_out",
                    help="write findings as JSON to this path")
    ap.add_argument("--fuzz-dir", dest="fuzz_dir",
                    help="fuzz harness tree for the parse-surface "
                    "decode-parity check (default: <repo>/tests/fuzz)")
    args = ap.parse_args(argv)

    repo = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    paths = args.paths or [os.path.join(repo, "src")]
    fuzz_dir = args.fuzz_dir or os.path.join(repo, "tests", "fuzz")
    try:
        findings = run(paths, fuzz_dir)
    except OSError as e:
        print(f"fastjoin-lint: {e}", file=sys.stderr)
        return 2

    # Report paths relative to the repo root for stable baselines.
    for f in findings:
        f.path = os.path.relpath(f.path, repo) \
            if os.path.isabs(f.path) else f.path

    baseline_counts: dict[str, int] = {}
    if args.baseline and os.path.exists(args.baseline) \
            and not args.update_baseline:
        try:
            with open(args.baseline, encoding="utf-8") as bf:
                data = json.load(bf)
            for entry in data.get("findings", []):
                fp = entry["fingerprint"]
                baseline_counts[fp] = baseline_counts.get(fp, 0) + 1
        except (OSError, ValueError, KeyError) as e:
            print(f"fastjoin-lint: bad baseline {args.baseline}: {e}",
                  file=sys.stderr)
            return 2

    new = []
    seen: dict[str, int] = {}
    for f in findings:
        fp = f.fingerprint()
        seen[fp] = seen.get(fp, 0) + 1
        if seen[fp] > baseline_counts.get(fp, 0):
            new.append(f)

    if args.json_out:
        payload = {"findings": [
            {"path": f.path, "line": f.line, "rule": f.rule,
             "message": f.message, "fingerprint": f.fingerprint(),
             "baselined": f not in new}
            for f in findings]}
        with open(args.json_out, "w", encoding="utf-8") as jf:
            json.dump(payload, jf, indent=2)
            jf.write("\n")

    if args.update_baseline:
        if not args.baseline:
            print("fastjoin-lint: --update-baseline needs --baseline",
                  file=sys.stderr)
            return 2
        payload = {"comment": "fastjoin-lint baseline: pre-existing "
                   "findings tolerated by CI. Regenerate with "
                   "--update-baseline after triage; new code must be "
                   "clean or carry an inline allow().",
                   "findings": [
                       {"path": f.path, "line": f.line, "rule": f.rule,
                        "message": f.message,
                        "fingerprint": f.fingerprint()}
                       for f in findings]}
        with open(args.baseline, "w", encoding="utf-8") as bf:
            json.dump(payload, bf, indent=2)
            bf.write("\n")
        print(f"fastjoin-lint: baseline updated with {len(findings)} "
              f"finding(s)")
        return 0

    for f in new:
        print(f.render())
    suppressed = len(findings) - len(new)
    print(f"fastjoin-lint: {len(new)} new finding(s), "
          f"{suppressed} baselined", file=sys.stderr)
    return 1 if new else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
