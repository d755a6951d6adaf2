#!/usr/bin/env python3
"""shedmon_lint — static enforcement of shedmon's load-bearing invariants.

Every shedding decision in this tree must be bit-reproducible at any
thread count, and observability must be strictly one-way: scraping a
run may never perturb it. The runtime test suites pin those properties after
the fact; this linter rejects the source patterns that break them before
they compile:

  wall-clock      Unsanctioned time sources (std::chrono::*_clock::now,
                  time(), gettimeofday, clock_gettime, ...) anywhere under
                  src/ outside the explicit allowlist. Decision paths take
                  time from the injectable rt::Clock; observability-only
                  measurement goes through util::MonotonicNowUs
                  (src/util/cycle_clock.*).
  rng             Nondeterministic or unseeded randomness anywhere under
                  src/: rand()/srand(), std::random_device, argless
                  std::mt19937, std::default_random_engine. All randomness
                  flows through explicitly seeded util::Rng.
  obs-read        Reading observability state from a decision subsystem
                  (src/core, src/shed, src/predict, src/query, src/features,
                  src/sketch): member calls to Snapshot()/Value() and uses of
                  obs::MetricsSnapshot. Decision code may *write* obs::
                  instruments, never read them back — that is what makes a
                  scraper unable to perturb a run.
  unordered-iter  Range-for over an unordered_{map,set,multimap,multiset} in
                  a decision subsystem, or an iterator-range copy of one
                  into a sequence (`std::vector<T> v(m.begin(), m.end())`,
                  `v.assign(m.begin(), m.end())`,
                  `v.insert(pos, m.begin(), m.end())`). Iteration order is
                  implementation-defined, so anything accumulated or copied
                  in that order can leak nondeterminism into BinLog or
                  accuracy output. Annotate genuinely order-insensitive
                  loops and copies.

Suppression grammar (same line or the line directly above):

  // lint: allow(<rule-id>) <rationale>     suppress one rule
  // lint: order-insensitive <rationale>    suppress unordered-iter only

Lexing uses libclang when the Python bindings are importable (exact token
stream) and falls back to a resilient built-in C++ lexer otherwise; both
feed the same rule engine, so results are stable across environments.

Usage:
  tools/lint/shedmon_lint.py                  # lint src/ under the repo root
  tools/lint/shedmon_lint.py src/core tools   # lint specific paths
  tools/lint/shedmon_lint.py --self-test      # run the testdata fixtures
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Dict, List, Optional, Sequence, Set, Tuple

# --------------------------------------------------------------------------
# Configuration
# --------------------------------------------------------------------------

SOURCE_SUFFIXES = (".cpp", ".cc", ".cxx", ".h", ".hpp")

# Files whose whole purpose is to BE a sanctioned time source.
WALL_CLOCK_ALLOWLIST_PREFIXES = (
    "src/rt/clock.",        # the injectable rt::Clock and its SystemClock
    "src/util/cycle_clock.",  # TSC + the observability-only monotonic clock
    "src/obs/server.",      # socket timeouts on the HTTP endpoint's thread
)

# Subsystems on the shedding-decision / accuracy path: one-way observability
# and deterministic iteration are enforced here.
DECISION_DIR_PREFIXES = (
    "src/core/",
    "src/shed/",
    "src/predict/",
    "src/query/",
    "src/features/",
    "src/sketch/",
)

UNORDERED_TYPES = ("unordered_map", "unordered_set", "unordered_multimap",
                   "unordered_multiset")

ALLOW_RE = re.compile(r"lint:\s*allow\(([a-z-]+)\)")
ORDER_OK_RE = re.compile(r"lint:\s*order-insensitive")


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __repr__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class LexedFile:
    """Comment/string-free view of one source file.

    `code_lines[i]` is line i+1 with string/char literal contents blanked and
    comments removed; `comments[line]` holds the comment text on that line
    (for suppression annotations and the self-test's expectation markers).
    """

    def __init__(self, path: str, code_lines: List[str], comments: Dict[int, str]):
        self.path = path
        self.code_lines = code_lines
        self.comments = comments

    def flat(self) -> Tuple[str, List[int]]:
        """The code joined with newlines plus an offset->line lookup table."""
        text = "\n".join(self.code_lines)
        line_starts = [0]
        for code_line in self.code_lines:
            line_starts.append(line_starts[-1] + len(code_line) + 1)
        return text, line_starts

    @staticmethod
    def line_of(offset: int, line_starts: List[int]) -> int:
        lo, hi = 0, len(line_starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if line_starts[mid] <= offset:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1


# --------------------------------------------------------------------------
# Lexers
# --------------------------------------------------------------------------

def lex_fallback(path: str, text: str) -> LexedFile:
    """Hand-rolled C++ lexer: tracks //, block comments, string/char literals
    (with escapes) and raw strings, which is all the rule engine needs."""
    code_lines: List[str] = []
    comments: Dict[int, str] = {}
    code: List[str] = []
    line_no = 1
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char | raw
    raw_terminator = ""

    def end_line() -> None:
        nonlocal code
        code_lines.append("".join(code))
        code = []

    def add_comment(ch: str) -> None:
        comments[line_no] = comments.get(line_no, "") + ch

    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "\n":
            if state == "line_comment":
                state = "code"
            end_line()
            line_no += 1
            i += 1
            continue
        if state == "code":
            if ch == "/" and nxt == "/":
                state = "line_comment"
                i += 2
                continue
            if ch == "/" and nxt == "*":
                state = "block_comment"
                i += 2
                continue
            if ch == '"':
                # Raw string? Look back for R / u8R / LR / uR / UR.
                m = re.search(r'(?:u8|[uUL])?R$', "".join(code[-3:]))
                if m:
                    dm = re.match(r'([^ ()\\\t\n]{0,16})\(', text[i + 1:i + 22])
                    if dm:
                        raw_terminator = ")" + dm.group(1) + '"'
                        state = "raw"
                        code.append('"')
                        i += 1 + len(dm.group(1)) + 1
                        continue
                state = "string"
                code.append('"')
                i += 1
                continue
            if ch == "'":
                prev = code[-1] if code else ""
                if prev.isalnum() or prev == "_":
                    # Digit separator (1'000'000); char literals are never
                    # preceded directly by an identifier/number character.
                    code.append("'")
                    i += 1
                    continue
                state = "char"
                code.append("'")
                i += 1
                continue
            code.append(ch)
            i += 1
            continue
        if state == "line_comment":
            add_comment(ch)
            i += 1
            continue
        if state == "block_comment":
            if ch == "*" and nxt == "/":
                state = "code"
                i += 2
            else:
                add_comment(ch)
                i += 1
            continue
        if state == "string":
            if ch == "\\":
                i += 2
            elif ch == '"':
                state = "code"
                code.append('"')
                i += 1
            else:
                i += 1
            continue
        if state == "char":
            if ch == "\\":
                i += 2
            elif ch == "'":
                state = "code"
                code.append("'")
                i += 1
            else:
                i += 1
            continue
        if state == "raw":
            if text.startswith(raw_terminator, i):
                state = "code"
                code.append('"')
                i += len(raw_terminator)
            else:
                if ch == "\n":
                    end_line()
                    line_no += 1
                i += 1
            continue
    end_line()
    return LexedFile(path, code_lines, comments)


def try_import_libclang():
    try:
        from clang import cindex  # type: ignore
        cindex.Index.create()
        return cindex
    except Exception:
        return None


def lex_libclang(cindex, path: str, text: str) -> Optional[LexedFile]:
    """Tokenize with libclang's lexer; returns None on any parse hiccup so
    the caller can fall back."""
    try:
        tu = cindex.TranslationUnit.from_source(
            path, args=["-std=c++20", "-fsyntax-only"],
            unsaved_files=[(path, text)],
            options=cindex.TranslationUnit.PARSE_DETAILED_PROCESSING_RECORD)
        num_lines = text.count("\n") + 1
        code_acc: Dict[int, List[Tuple[int, str]]] = {}
        comments: Dict[int, str] = {}
        for token in tu.get_tokens(extent=tu.cursor.extent):
            loc = token.location
            kind = token.kind.name
            spelling = token.spelling
            if kind == "COMMENT":
                stripped = spelling.lstrip("/").strip("*/ ")
                for off, comment_line in enumerate(spelling.splitlines()):
                    comments[loc.line + off] = (
                        comments.get(loc.line + off, "") + comment_line.strip("/* "))
                _ = stripped
                continue
            if kind == "LITERAL" and (spelling.startswith('"') or "\"" in spelling[:3]
                                      or spelling.startswith("'")):
                spelling = '""' if '"' in spelling else "''"
            code_acc.setdefault(loc.line, []).append((loc.column, spelling))
        code_lines = []
        for line in range(1, num_lines + 1):
            parts = sorted(code_acc.get(line, []))
            code_lines.append(" ".join(p[1] for p in parts))
        return LexedFile(path, code_lines, comments)
    except Exception:
        return None


# --------------------------------------------------------------------------
# Suppression
# --------------------------------------------------------------------------

def suppressed(lexed: LexedFile, line: int, rule: str) -> bool:
    for probe in (line, line - 1):
        comment = lexed.comments.get(probe, "")
        if not comment:
            continue
        for m in ALLOW_RE.finditer(comment):
            if m.group(1) == rule:
                return True
        if rule == "unordered-iter" and ORDER_OK_RE.search(comment):
            return True
    return False


# --------------------------------------------------------------------------
# Rules
# --------------------------------------------------------------------------

WALL_CLOCK_PATTERNS = [
    (re.compile(r"\b(?:system_clock|steady_clock|high_resolution_clock)\s*::\s*now\b"),
     "wall-clock read via std::chrono; decision paths must use rt::Clock, "
     "observability-only timing util::MonotonicNowUs"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday() is an unsanctioned time source"),
    (re.compile(r"\bclock_gettime\s*\("), "clock_gettime() is an unsanctioned time source"),
    (re.compile(r"\bstd\s*::\s*time\s*\("), "std::time() is an unsanctioned time source"),
    (re.compile(r"(?:^|[^\w:.>])time\s*\(\s*(?:&|NULL\b|nullptr\b|0\s*\)|\))"),
     "time() is an unsanctioned time source"),
    (re.compile(r"\b(?:localtime|gmtime)(?:_r)?\s*\("),
     "broken-down wall time is an unsanctioned time source"),
]

RNG_PATTERNS = [
    (re.compile(r"\brandom_device\b"),
     "std::random_device is nondeterministic; seed a util::Rng explicitly"),
    (re.compile(r"(?:^|[^\w:.>])srand\s*\("), "srand() seeds global nondeterministic state"),
    (re.compile(r"(?:^|[^\w:.>])rand\s*\(\s*\)"), "rand() is unseeded global state"),
    (re.compile(r"\b(?:rand_r|drand48|lrand48|mrand48)\s*\("),
     "libc PRNGs bypass the seeded util::Rng discipline"),
    (re.compile(r"\bdefault_random_engine\b"),
     "std::default_random_engine is implementation-defined even when seeded"),
]

MT19937_RE = re.compile(r"\bmt19937(?:_64)?\b")

OBS_READ_PATTERNS = [
    (re.compile(r"(?:\.|->)\s*Snapshot\s*\("),
     "decision subsystems may write obs:: instruments but never snapshot/read them"),
    (re.compile(r"(?:\.|->)\s*Value\s*\("),
     "reading a metric value from a decision subsystem breaks one-way observability"),
    (re.compile(r"\bMetricsSnapshot\b"),
     "obs::MetricsSnapshot has no business in a decision subsystem"),
]


def pattern_findings(lexed: LexedFile, rule: str,
                     patterns: Sequence[Tuple[re.Pattern, str]]) -> List[Finding]:
    findings = []
    for idx, code_line in enumerate(lexed.code_lines):
        line = idx + 1
        for pattern, message in patterns:
            if pattern.search(code_line) and not suppressed(lexed, line, rule):
                findings.append(Finding(lexed.path, line, rule, message))
                break
    return findings


def skip_ws(text: str, i: int) -> int:
    while i < len(text) and text[i] in " \t\n":
        i += 1
    return i


def matching(text: str, i: int, open_ch: str, close_ch: str) -> int:
    """Index just past the bracket that closes text[i] (which must be open_ch);
    returns -1 if unbalanced."""
    depth = 0
    while i < len(text):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return -1


def mt19937_findings(lexed: LexedFile) -> List[Finding]:
    """Flag default-constructed (unseeded) std::mt19937 / mt19937_64."""
    findings = []
    text, line_starts = lexed.flat()
    for m in MT19937_RE.finditer(text):
        i = skip_ws(text, m.end())
        if text[i:i + 2] == "::":
            continue  # mt19937::result_type etc. — a type access, not a use
        # Optional declarator name.
        name = re.match(r"[A-Za-z_]\w*", text[i:])
        if name:
            i = skip_ws(text, i + name.end())
        bad = False
        if i < len(text) and text[i] in "({":
            close = ")" if text[i] == "(" else "}"
            end = matching(text, i, text[i], close)
            bad = end != -1 and text[i + 1:end - 1].strip() == ""
        elif name and i < len(text) and text[i] in ";,":
            bad = True  # `std::mt19937 gen;` — default-seeded
        if bad:
            line = LexedFile.line_of(m.start(), line_starts)
            if not suppressed(lexed, line, "rng"):
                findings.append(Finding(
                    lexed.path, line, "rng",
                    "argless std::mt19937 uses the fixed default seed on every "
                    "platform differently; pass an explicit seed (or use util::Rng)"))
    return findings


UNORDERED_DECL_RE = re.compile(
    r"\b(?:unordered_map|unordered_set|unordered_multimap|unordered_multiset)\s*<")
USING_ALIAS_RE = re.compile(
    r"\busing\s+(\w+)\s*=\s*[\w:]*\b(?:unordered_map|unordered_set|"
    r"unordered_multimap|unordered_multiset)\s*<")


def unordered_symbols(text: str) -> Set[str]:
    """Names of variables/members/params declared with an unordered type in
    `text` (comment/string-free code), plus one level of type aliases."""
    symbols: Set[str] = set()
    aliases: Set[str] = set()
    for m in USING_ALIAS_RE.finditer(text):
        aliases.add(m.group(1))
    for m in UNORDERED_DECL_RE.finditer(text):
        open_idx = text.index("<", m.start())
        end = matching(text, open_idx, "<", ">")
        if end == -1:
            continue
        i = skip_ws(text, end)
        while i < len(text) and text[i] in "&*":
            i = skip_ws(text, i + 1)
        name = re.match(r"[A-Za-z_]\w*", text[i:])
        if name:
            symbols.add(name.group(0))
    for alias in aliases:
        for m in re.finditer(r"\b" + re.escape(alias) + r"\b\s*[&*]?\s*([A-Za-z_]\w*)", text):
            if m.group(1) != alias:
                symbols.add(m.group(1))
    return symbols


IDENT_RE = re.compile(r"[A-Za-z_]\w*")
FOR_RE = re.compile(r"\bfor\s*\(")


def range_for_findings(lexed: LexedFile, extra_symbol_text: str) -> List[Finding]:
    text, line_starts = lexed.flat()
    symbols = unordered_symbols(text) | unordered_symbols(extra_symbol_text)
    if not symbols:
        return []
    findings = []
    for m in FOR_RE.finditer(text):
        open_idx = m.end() - 1
        end = matching(text, open_idx, "(", ")")
        if end == -1:
            continue
        header = text[open_idx + 1:end - 1]
        # Top-level range-for colon (not ::, not inside nested brackets).
        colon = -1
        depth = 0
        j = 0
        while j < len(header):
            ch = header[j]
            if ch in "([{<":
                depth += 1
            elif ch in ")]}>":
                depth -= 1
            elif ch == ":" and depth == 0:
                if j + 1 < len(header) and header[j + 1] == ":":
                    j += 2
                    continue
                if j > 0 and header[j - 1] == ":":
                    j += 1
                    continue
                colon = j
                break
            j += 1
        if colon == -1:
            continue
        sequence = header[colon + 1:]
        hit = next((w for w in IDENT_RE.findall(sequence) if w in symbols), None)
        if hit is None:
            continue
        line = LexedFile.line_of(m.start(), line_starts)
        if not suppressed(lexed, line, "unordered-iter"):
            findings.append(Finding(
                lexed.path, line, "unordered-iter",
                f"range-for over unordered container '{hit}': iteration order is "
                "implementation-defined and can leak into BinLog/accuracy output; "
                "iterate a sorted copy or annotate `// lint: order-insensitive`"))
    return findings


EXPR = r"(?:[A-Za-z_]\w*\s*(?:\.|->)\s*)*[A-Za-z_]\w*"
RANGE_RE = re.compile(r"(" + EXPR + r")\s*(?:\.|->)\s*c?begin\s*\(\s*\)\s*,\s*"
                      r"(" + EXPR + r")\s*(?:\.|->)\s*c?end\s*\(\s*\)")
SEQUENCE_TYPES = ("vector", "deque", "list")
TRAILING_IDENT_RE = re.compile(r"([A-Za-z_]\w*)\s*$")


def enclosing_open(text: str, i: int) -> int:
    """Index of the unmatched ( or { that encloses text[i], or -1."""
    depth = 0
    while i > 0:
        i -= 1
        ch = text[i]
        if ch in ")]}":
            depth += 1
        elif ch in "([{":
            if depth == 0:
                return i if ch in "({" else -1
            depth -= 1
    return -1


def constructs_sequence(prefix: str) -> bool:
    """Whether the code before a ( or { constructs a sequence container:
    `vector<T>(`, `std::vector<T> name(`, `std::deque name{` (CTAD)."""
    p = prefix.rstrip()
    for _ in range(2):  # the declarator's name, then the type
        if p.endswith("->"):
            return False
        if p.endswith(">"):
            depth = 0
            i = len(p) - 1
            while i >= 0:
                if p[i] == ">":
                    depth += 1
                elif p[i] == "<":
                    depth -= 1
                    if depth == 0:
                        break
                i -= 1
            head = TRAILING_IDENT_RE.search(p[:max(i, 0)])
            return i >= 0 and head is not None and head.group(1) in SEQUENCE_TYPES
        ident = TRAILING_IDENT_RE.search(p)
        if ident is None:
            return False
        if ident.group(1) in SEQUENCE_TYPES:
            return True
        p = p[:ident.start()].rstrip()
    return False


def range_copy_findings(lexed: LexedFile, extra_symbol_text: str) -> List[Finding]:
    """Iterator-range copies of an unordered container into a sequence:
    construction, assign() and positional insert()."""
    text, line_starts = lexed.flat()
    symbols = unordered_symbols(text) | unordered_symbols(extra_symbol_text)
    if not symbols:
        return []
    findings = []
    for m in RANGE_RE.finditer(text):
        container = re.sub(r"\s+", "", m.group(1))
        if container != re.sub(r"\s+", "", m.group(2)):
            continue
        hit = IDENT_RE.findall(container)[-1]
        if hit not in symbols:
            continue
        open_idx = enclosing_open(text, m.start())
        if open_idx == -1:
            continue
        prefix = text[:open_idx].rstrip()
        before_range = text[open_idx + 1:m.start()].strip()
        copies = (re.search(r"(?:\.|->)\s*assign$", prefix) is not None or
                  (re.search(r"(?:\.|->)\s*insert$", prefix) is not None and
                   before_range.endswith(",")) or
                  constructs_sequence(prefix))
        if not copies:
            continue
        line = LexedFile.line_of(m.start(), line_starts)
        first = LexedFile.line_of(open_idx, line_starts)
        if suppressed(lexed, line, "unordered-iter") or suppressed(lexed, first, "unordered-iter"):
            continue
        findings.append(Finding(
            lexed.path, line, "unordered-iter",
            f"iterator-range copy of unordered container '{hit}' keeps its "
            "implementation-defined iteration order; sort the copy by a total order "
            "or annotate `// lint: order-insensitive`"))
    return findings


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def rules_for(rel_path: str) -> List[str]:
    rules = []
    if rel_path.startswith("src/"):
        if not rel_path.startswith(WALL_CLOCK_ALLOWLIST_PREFIXES):
            rules.append("wall-clock")
        rules.append("rng")
    if rel_path.startswith(DECISION_DIR_PREFIXES):
        rules.append("obs-read")
        rules.append("unordered-iter")
    return rules


def sibling_header_text(root: str, rel_path: str) -> str:
    """Code text of same-directory headers, so member declarations in foo.h
    are visible when linting foo.cpp's loops."""
    if not rel_path.endswith((".cpp", ".cc", ".cxx")):
        return ""
    directory = os.path.dirname(os.path.join(root, rel_path))
    chunks = []
    try:
        entries = sorted(os.listdir(directory))
    except OSError:
        return ""
    for entry in entries:
        if entry.endswith((".h", ".hpp")):
            try:
                with open(os.path.join(directory, entry), encoding="utf-8",
                          errors="replace") as f:
                    lexed = lex_fallback(entry, f.read())
                chunks.append("\n".join(lexed.code_lines))
            except OSError:
                continue
    return "\n".join(chunks)


def lint_file(root: str, rel_path: str, text: str, cindex,
              virtual_path: Optional[str] = None) -> List[Finding]:
    path_for_rules = virtual_path or rel_path
    lexed = None
    if cindex is not None:
        lexed = lex_libclang(cindex, os.path.join(root, rel_path), text)
    if lexed is None:
        lexed = lex_fallback(rel_path, text)
    lexed.path = rel_path
    findings: List[Finding] = []
    active = rules_for(path_for_rules)
    if "wall-clock" in active:
        findings += pattern_findings(lexed, "wall-clock", WALL_CLOCK_PATTERNS)
    if "rng" in active:
        findings += pattern_findings(lexed, "rng", RNG_PATTERNS)
        findings += mt19937_findings(lexed)
    if "obs-read" in active:
        findings += pattern_findings(lexed, "obs-read", OBS_READ_PATTERNS)
    if "unordered-iter" in active:
        extra = "" if virtual_path else sibling_header_text(root, rel_path)
        findings += range_for_findings(lexed, extra)
        findings += range_copy_findings(lexed, extra)
    return findings


def collect_files(root: str, paths: Sequence[str]) -> List[str]:
    rel_files: List[str] = []
    for path in paths:
        absolute = os.path.join(root, path)
        if os.path.isfile(absolute):
            rel_files.append(os.path.relpath(absolute, root))
            continue
        for dirpath, dirnames, filenames in os.walk(absolute):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(SOURCE_SUFFIXES):
                    rel_files.append(os.path.relpath(os.path.join(dirpath, name), root))
    return [f.replace(os.sep, "/") for f in rel_files]


def run_lint(root: str, paths: Sequence[str], cindex) -> List[Finding]:
    findings: List[Finding] = []
    for rel_path in collect_files(root, paths):
        try:
            with open(os.path.join(root, rel_path), encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError as err:
            print(f"shedmon_lint: cannot read {rel_path}: {err}", file=sys.stderr)
            continue
        findings += lint_file(root, rel_path, text, cindex)
    return findings


# --------------------------------------------------------------------------
# Self-test over tools/lint/testdata
# --------------------------------------------------------------------------

TEST_PATH_RE = re.compile(r"lint-test-path:\s*(\S+)")
EXPECT_RE = re.compile(r"expect:\s*([a-z-]+)")


def self_test(root: str, cindex) -> int:
    testdata = os.path.join(root, "tools", "lint", "testdata")
    fixtures = sorted(f for f in os.listdir(testdata) if f.endswith(SOURCE_SUFFIXES))
    if not fixtures:
        print("self-test: no fixtures found", file=sys.stderr)
        return 1
    failures = 0
    rules_covered: Set[str] = set()
    for fixture in fixtures:
        rel = f"tools/lint/testdata/{fixture}"
        with open(os.path.join(testdata, fixture), encoding="utf-8") as f:
            text = f.read()
        lexed = lex_fallback(rel, text)
        path_match = TEST_PATH_RE.search(text)
        if not path_match:
            print(f"self-test: {fixture} lacks a `lint-test-path:` directive")
            failures += 1
            continue
        virtual_path = path_match.group(1)
        expected: Set[Tuple[int, str]] = set()
        for line, comment in lexed.comments.items():
            for m in EXPECT_RE.finditer(comment):
                expected.add((line, m.group(1)))
                rules_covered.add(m.group(1))
        actual = {(f.line, f.rule)
                  for f in lint_file(root, rel, text, cindex, virtual_path=virtual_path)}
        for miss in sorted(expected - actual):
            print(f"self-test FAIL {fixture}:{miss[0]}: expected [{miss[1]}] did not fire")
            failures += 1
        for extra in sorted(actual - expected):
            print(f"self-test FAIL {fixture}:{extra[0]}: unexpected [{extra[1]}]")
            failures += 1
    for rule in ("wall-clock", "rng", "obs-read", "unordered-iter"):
        if rule not in rules_covered:
            print(f"self-test FAIL: no fixture exercises [{rule}]")
            failures += 1
    if failures == 0:
        print(f"self-test OK: {len(fixtures)} fixtures, "
              f"{len(rules_covered)} rules covered")
        return 0
    return 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*", help="files or directories (default: src/)")
    parser.add_argument("--root", default=None,
                        help="repository root (default: two levels above this script)")
    parser.add_argument("--engine", choices=("auto", "tokens", "libclang"), default="auto",
                        help="lexer backend (auto prefers libclang, falls back to tokens)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the testdata fixtures instead of linting the tree")
    args = parser.parse_args()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

    cindex = None
    if args.engine in ("auto", "libclang"):
        cindex = try_import_libclang()
        if cindex is None and args.engine == "libclang":
            print("shedmon_lint: libclang requested but unavailable", file=sys.stderr)
            return 2

    if args.self_test:
        return self_test(root, cindex)

    paths = args.paths or ["src"]
    findings = run_lint(root, paths, cindex)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for finding in findings:
        print(finding)
    if findings:
        print(f"shedmon_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
