#!/usr/bin/env python3
"""mbi-lint: project-specific architectural rules for the mbi codebase.

The repo's load-bearing invariants — the Env I/O seam, the mbi::Mutex lock
capability, Status-based error plumbing, arena-free ownership, and the
zero-steady-state-allocation query hot path — are architectural, not local:
no single translation unit can violate them "a little" without eroding the
guarantees the durability, thread-safety, and performance gates depend on.
clang-tidy checks style and bug patterns per-TU; mbi-lint checks the
*architecture*:

  no-raw-mutex                 only util/mutex.h wraps std::mutex /
                               pthread primitives; everything else uses the
                               annotated mbi::Mutex capability.
  no-raw-thread                only util/thread_pool.{h,cc} spawns
                               std::thread; everything else runs on pools.
  no-raw-io                    only storage/env.cc touches FILE* / open /
                               std::filesystem; all other I/O goes through
                               the Env seam (fault injection and the
                               durability tests depend on this).
  no-naked-new                 no raw new/delete/malloc outside the
                               allocation-guard internals; ownership is
                               make_unique/containers.
  no-unbounded-container-in-hot  MBI_HOT code declares no local owning
                               containers (vector/string/map/function/...);
                               scratch lives in caller-owned reusable
                               buffers (QueryContext et al.).
  no-raw-intrinsics            raw SIMD intrinsics (immintrin.h /
                               arm_neon.h, _mm*/__m*/v*q_* identifiers)
                               live only under src/kernel/, behind the
                               runtime dispatcher; everywhere else calls
                               the KernelOps table so scalar/AVX2/AVX-512/
                               NEON stay interchangeable and testable.
  no-raw-clock                 only util/deadline_clock.{h,cc} read
                               std::chrono::steady_clock (or system /
                               high_resolution); all other timing flows
                               through SteadyNowUs() / DeadlineClock so
                               query deadlines, admission patience, and
                               latency metrics stay mockable in tests.

Dropped Status results and per-call allocation in MBI_HOT code are checked
by the AST-level status-discard and hot-path checks in tools/analyze/.

Frontend: when the libclang Python bindings are importable the file is
tokenized through clang.cindex against the compile command recorded in
compile_commands.json (the same database tools/run_tidy.sh consumes);
otherwise a built-in C++ lexer produces an equivalent token stream
(comments, string/char literals, raw strings, and preprocessor lines are
handled; rules never see into literals or comments). Both frontends feed
the same rule engine, so findings are identical either way.

Escape hatches, in order of preference:
  * per-rule allowlists (ALLOWLIST below) for files that *are* the
    implementation the rule protects (util/mutex.h for no-raw-mutex, ...);
  * a `// mbi-lint: allow(<rule>)` comment on (or immediately above) the
    offending line, for individually justified exceptions — the comment
    should say why.

Usage:
  mbi_lint.py [--compile-commands build/compile_commands.json]
              [--rules no-raw-io,no-naked-new] [--list-rules] [files...]
  mbi_lint.py --self-test     # run the tests/lint_probes/ negative corpus

Exit codes: 0 clean, 1 findings (or a probe that failed to fire), 2 usage.

Every rule must stay provably live: tests/lint_probes/<rule>_probe.cc holds
a minimal violation that --self-test requires to fire, mirroring the
negative-compile probe of the thread-safety job (DESIGN.md §10).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ALLOW_RE = re.compile(r"mbi-lint:\s*allow\(([a-z0-9-]+(?:\s*,\s*[a-z0-9-]+)*)\)")


class Token:
    __slots__ = ("kind", "spelling", "line")

    def __init__(self, kind, spelling, line):
        self.kind = kind  # 'id', 'kw', 'punct', 'num', 'str', 'char'
        self.spelling = spelling
        self.line = line

    def __repr__(self):
        return f"{self.spelling}@{self.line}"


class SourceFile:
    """A lexed translation unit: tokens plus the allow()-comment map."""

    def __init__(self, path, rel_path, tokens, allowed_lines):
        self.path = path
        self.rel_path = rel_path
        self.tokens = tokens
        # line -> set of rule names allowed on that line.
        self.allowed_lines = allowed_lines

    def allows(self, rule, line):
        return rule in self.allowed_lines.get(line, ())


class Finding:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# --------------------------------------------------------------------------
# Lexing
# --------------------------------------------------------------------------

KEYWORDS = {
    "new", "delete", "const", "return", "if", "while", "for", "do", "else",
    "class", "struct", "enum", "namespace", "using", "template", "typename",
    "static", "virtual", "override", "final", "operator", "sizeof", "auto",
    "void", "bool", "int", "char", "double", "float", "unsigned", "signed",
    "long", "short", "public", "private", "protected", "friend", "inline",
    "constexpr", "switch", "case", "default", "break", "continue", "goto",
    "try", "catch", "throw", "noexcept", "explicit", "this", "nullptr",
    "true", "false", "static_cast", "const_cast", "reinterpret_cast",
    "dynamic_cast", "extern", "mutable", "volatile", "decltype", "co_await",
    "co_return", "co_yield",
}

_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUM_RE = re.compile(r"\.?\d(?:[0-9a-fA-F'.xXbBuUlLfFeEpP]|[eEpP][+-])*")
_RAW_STR_RE = re.compile(r'R"([^(\\\s]{0,16})\(')
# Multi-char punctuators, longest first; everything else is single-char.
_PUNCTS = [
    "<<=", ">>=", "->*", "...", "::", "->", "++", "--", "<<", ">>", "<=",
    ">=", "==", "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=",
    "^=", ".*",
]


def _record_allow(allowed_lines, text, line, whole_line_comment):
    match = ALLOW_RE.search(text)
    if not match:
        return
    rules = {r.strip() for r in match.group(1).split(",")}
    allowed_lines.setdefault(line, set()).update(rules)
    if whole_line_comment:
        # A comment on its own line covers the next line too.
        allowed_lines.setdefault(line + 1, set()).update(rules)


def lex_cpp(text):
    """Tokenizes C++ source. Returns (tokens, allowed_lines).

    Comments and literals never become id/kw/punct tokens, so rules cannot
    trip on the word "new" in documentation. Preprocessor lines are lexed
    like normal code (an #include <mutex> is not itself a violation; rules
    key on *uses*), except that the include's <header> is skipped.
    """
    tokens = []
    allowed_lines = {}
    i, n, line = 0, len(text), 1
    line_start = 0  # offset of the first char of the current line

    def only_ws_before(pos):
        return text[line_start:pos].strip() == ""

    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
            line_start = i
            continue
        if ch in " \t\r\f\v":
            i += 1
            continue
        if text.startswith("//", i):
            end = text.find("\n", i)
            if end == -1:
                end = n
            _record_allow(allowed_lines, text[i:end], line, only_ws_before(i))
            i = end
            continue
        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            end = n if end == -1 else end + 2
            block = text[i:end]
            _record_allow(allowed_lines, block, line, only_ws_before(i))
            line += block.count("\n")
            i = end
            line_start = text.rfind("\n", 0, i) + 1
            continue
        raw = _RAW_STR_RE.match(text, i) if ch == "R" else None
        if raw:
            terminator = ")" + raw.group(1) + '"'
            end = text.find(terminator, raw.end())
            end = n if end == -1 else end + len(terminator)
            tokens.append(Token("str", "<raw-string>", line))
            line += text.count("\n", i, end)
            i = end
            line_start = text.rfind("\n", 0, i) + 1
            continue
        if ch == '"' or ch == "'":
            quote = ch
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            tokens.append(Token("str" if quote == '"' else "char",
                                "<literal>", line))
            i = j
            continue
        if ch == "#" and only_ws_before(i):
            # Preprocessor directive: lex `#include <x>` header names away,
            # tokenize everything else (so macro bodies are still scanned).
            direct = _ID_RE.match(text, i + 1)
            if direct and direct.group(0) == "include":
                end = text.find("\n", i)
                i = n if end == -1 else end
                continue
            tokens.append(Token("punct", "#", line))
            i += 1
            continue
        m = _ID_RE.match(text, i)
        if m:
            spelling = m.group(0)
            kind = "kw" if spelling in KEYWORDS else "id"
            tokens.append(Token(kind, spelling, line))
            i = m.end()
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            m = _NUM_RE.match(text, i)
            tokens.append(Token("num", m.group(0), line))
            i = m.end()
            continue
        for punct in _PUNCTS:
            if text.startswith(punct, i):
                tokens.append(Token("punct", punct, line))
                i += len(punct)
                break
        else:
            tokens.append(Token("punct", ch, line))
            i += 1
    return tokens, allowed_lines


# --------------------------------------------------------------------------
# Frontends
# --------------------------------------------------------------------------

def _try_libclang():
    try:
        from clang import cindex  # noqa: F401
        cindex.Index.create()
        return cindex
    except Exception:
        return None


_CINDEX = None
_CINDEX_PROBED = False


def cindex_module():
    global _CINDEX, _CINDEX_PROBED
    if not _CINDEX_PROBED:
        _CINDEX = _try_libclang()
        _CINDEX_PROBED = True
    return _CINDEX


def lex_with_libclang(cindex, path, text, compile_args):
    """Tokenizes through libclang; falls back to the internal lexer on any
    parse trouble. The allow-comment map always comes from the internal
    scan (libclang token ranges for comments need no compile args)."""
    _, allowed_lines = lex_cpp(text)
    try:
        index = cindex.Index.create()
        tu = index.parse(path, args=compile_args,
                         options=cindex.TranslationUnit.PARSE_DETAILED_PROCESSING_RECORD)
        tokens = []
        kind_map = {
            cindex.TokenKind.IDENTIFIER: "id",
            cindex.TokenKind.KEYWORD: "kw",
            cindex.TokenKind.PUNCTUATION: "punct",
            cindex.TokenKind.LITERAL: "str",
        }
        for tok in tu.get_tokens(extent=tu.cursor.extent):
            if tok.location.file is None or tok.location.file.name != path:
                continue
            if tok.kind == cindex.TokenKind.COMMENT:
                continue
            kind = kind_map.get(tok.kind, "punct")
            spelling = tok.spelling
            if kind == "id" and spelling in KEYWORDS:
                kind = "kw"
            tokens.append(Token(kind, spelling, tok.location.line))
        if tokens:
            return tokens, allowed_lines
    except Exception:
        pass
    return lex_cpp(text)


def load_source(path, compile_args=None):
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        text = handle.read()
    cindex = cindex_module()
    if cindex is not None:
        tokens, allowed = lex_with_libclang(cindex, path, text,
                                            compile_args or [])
    else:
        tokens, allowed = lex_cpp(text)
    rel = os.path.relpath(path, REPO_ROOT).replace(os.sep, "/")
    return SourceFile(path, rel, tokens, allowed)


# --------------------------------------------------------------------------
# Token helpers
# --------------------------------------------------------------------------

def match_qualified(tokens, i, names):
    """True if tokens[i:] spell std::NAME for NAME in `names`. Returns the
    matched name or None."""
    if (tokens[i].spelling == "std" and i + 2 < len(tokens)
            and tokens[i + 1].spelling == "::"
            and tokens[i + 2].spelling in names):
        return tokens[i + 2].spelling
    return None


def prev_significant(tokens, i):
    return tokens[i - 1] if i > 0 else None


def find_matching(tokens, i, open_p, close_p):
    """Index just past the token matching tokens[i] == open_p."""
    depth = 0
    while i < len(tokens):
        s = tokens[i].spelling
        if s == open_p:
            depth += 1
        elif s == close_p:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return i


def hot_regions(tokens):
    """Yields (start, end) token-index ranges of MBI_HOT function bodies.

    The region runs from the MBI_HOT marker to the closing brace of the
    function body it annotates (a `;` before any `{` means a pure
    declaration — no body, no region). Lambdas and nested blocks inside the
    body are part of the region: an allocation is hot no matter how deeply
    it hides in a local lambda.
    """
    for i, tok in enumerate(tokens):
        if tok.spelling != "MBI_HOT":
            continue
        prev = tokens[i - 1] if i > 0 else None
        if prev is not None and prev.spelling in ("define", "ifdef",
                                                  "ifndef", "undef"):
            continue  # the macro's own definition, not an annotated function
        j = i + 1
        body_start = None
        while j < len(tokens):
            s = tokens[j].spelling
            if s == ";":
                break  # declaration only
            if s == "(":
                j = find_matching(tokens, j, "(", ")")
                continue
            if s == "{":
                body_start = j
                break
            j += 1
        if body_start is None:
            continue
        yield body_start, find_matching(tokens, body_start, "{", "}")


# --------------------------------------------------------------------------
# Rules
# --------------------------------------------------------------------------

RULES = {}

def rule(name, scope_prefixes=("src/",)):
    def wrap(fn):
        RULES[name] = (fn, scope_prefixes)
        return fn
    return wrap


# Files that ARE the guarded implementation; rule findings there are the
# point of the file, not a violation.
ALLOWLIST = {
    "no-raw-mutex": {"src/util/mutex.h"},
    "no-raw-thread": {"src/util/thread_pool.h", "src/util/thread_pool.cc"},
    "no-raw-io": {"src/storage/env.cc"},
    "no-naked-new": {"src/util/alloc_guard.cc"},
    "no-unbounded-container-in-hot": set(),
    "no-raw-intrinsics": set(),  # src/kernel/ is excluded by the rule itself.
    "no-raw-clock": {"src/util/deadline_clock.h",
                     "src/util/deadline_clock.cc"},
}

_MUTEX_TYPES = {
    "mutex", "recursive_mutex", "timed_mutex", "recursive_timed_mutex",
    "shared_mutex", "shared_timed_mutex", "lock_guard", "unique_lock",
    "scoped_lock", "condition_variable", "condition_variable_any",
    "counting_semaphore", "binary_semaphore",
}


@rule("no-raw-mutex")
def check_no_raw_mutex(source, emit):
    """std::mutex & friends live behind mbi::Mutex (util/mutex.h), whose
    capability annotations power the -Wthread-safety compile-time proofs.
    A raw mutex anywhere else is invisible to the analysis."""
    for i, tok in enumerate(source.tokens):
        name = match_qualified(source.tokens, i, _MUTEX_TYPES)
        if name:
            emit(tok.line, f"raw std::{name}; use mbi::Mutex / mbi::CondVar "
                           f"from util/mutex.h (thread-safety analysis "
                           f"only models the annotated capability)")
        elif tok.kind == "id" and tok.spelling.startswith(
                ("pthread_mutex", "pthread_cond", "pthread_rwlock",
                 "pthread_spin")):
            emit(tok.line, f"raw {tok.spelling}; use mbi::Mutex from "
                           f"util/mutex.h")


@rule("no-raw-thread")
def check_no_raw_thread(source, emit):
    """Threads are spawned only by util/thread_pool.cc; everything else
    submits work to a pool. (`std::thread::hardware_concurrency()` is a
    static query, not a spawn, and stays legal.)"""
    tokens = source.tokens
    for i, tok in enumerate(tokens):
        name = match_qualified(tokens, i, {"thread", "jthread"})
        if name:
            after = tokens[i + 3].spelling if i + 3 < len(tokens) else ""
            if after == "::":  # std::thread::hardware_concurrency()
                continue
            emit(tok.line, f"raw std::{name}; run work on a ThreadPool "
                           f"(util/thread_pool.h)")
        elif tok.kind == "id" and tok.spelling == "pthread_create":
            emit(tok.line, "raw pthread_create; use ThreadPool")


_IO_CALLS = {
    "fopen", "freopen", "fdopen", "fclose", "fread", "fwrite", "fflush",
    "fseek", "fseeko", "ftell", "ftello", "rewind", "fgets", "fgetc",
    "fputs", "fputc", "fscanf", "fsync", "fdatasync", "fileno", "tmpfile",
    "mkstemp", "openat", "creat", "unlink", "ftruncate",
}
_IO_STREAM_TYPES = {"ifstream", "ofstream", "fstream", "filebuf"}


@rule("no-raw-io")
def check_no_raw_io(source, emit):
    """All artifact bytes flow through the Env seam (storage/env.cc), where
    the fault injector, bounded retry, and mbi.env.* metrics sit. A direct
    fopen elsewhere is I/O the durability tests cannot fault-inject."""
    tokens = source.tokens
    for i, tok in enumerate(tokens):
        if tok.kind == "id" and tok.spelling in _IO_CALLS:
            # Match both ::fread / std::fread and bare fread, but only as a
            # call (next token '('), so a method *named* fread elsewhere
            # would still be caught — by design: don't shadow libc names.
            nxt = tokens[i + 1].spelling if i + 1 < len(tokens) else ""
            if nxt == "(":
                emit(tok.line, f"direct {tok.spelling}(); route I/O through "
                               f"the Env seam (storage/env.h) so fault "
                               f"injection and durability tests see it")
            continue
        name = match_qualified(tokens, i, _IO_STREAM_TYPES)
        if name:
            emit(tok.line, f"std::{name} bypasses the Env seam; use "
                           f"Env::New{{Writable,Sequential}}File")
            continue
        if (tok.spelling == "std" and i + 2 < len(tokens)
                and tokens[i + 1].spelling == "::"
                and tokens[i + 2].spelling == "filesystem"):
            emit(tok.line, "std::filesystem bypasses the Env seam; extend "
                           "Env instead")
        elif (tok.spelling == "rename" and i >= 2
                and tokens[i - 1].spelling == "::"
                and tokens[i - 2].spelling in ("std", ";", "{", "}")
                and source.rel_path != "src/storage/env.cc"):
            emit(tok.line, "direct rename(); use Env::RenameFile (the "
                           "atomic-commit point fault injection targets)")


_ALLOC_CALLS = {"malloc", "calloc", "realloc", "free", "posix_memalign",
                "aligned_alloc", "strdup", "strndup", "valloc"}


@rule("no-naked-new")
def check_no_naked_new(source, emit):
    """Ownership is expressed with make_unique/containers; raw new/delete
    and malloc are reserved for the allocation-guard internals (which must
    sit underneath operator new) and individually justified singletons."""
    tokens = source.tokens
    for i, tok in enumerate(tokens):
        if tok.kind == "kw" and tok.spelling == "new":
            prev = prev_significant(tokens, i)
            # `operator new` definitions and `= delete`-style contexts are
            # judged at their own sites; `new` after `operator` is a
            # declaration, not an allocation.
            if prev is not None and prev.spelling == "operator":
                continue
            emit(tok.line, "naked new; use std::make_unique (or justify "
                           "with an allow comment: singletons, private "
                           "constructors)")
        elif tok.kind == "kw" and tok.spelling == "delete":
            prev = prev_significant(tokens, i)
            if prev is not None and prev.spelling in ("=", "operator"):
                continue  # deleted function / operator delete declaration
            emit(tok.line, "naked delete; owning pointers are unique_ptr")
        elif tok.kind == "id" and tok.spelling in _ALLOC_CALLS:
            nxt = tokens[i + 1].spelling if i + 1 < len(tokens) else ""
            if nxt == "(":
                emit(tok.line, f"raw {tok.spelling}(); library code "
                               f"allocates through new-expressions wrapped "
                               f"in owning types")


_OWNING_CONTAINERS = {
    "vector", "string", "deque", "list", "forward_list", "map", "multimap",
    "set", "multiset", "unordered_map", "unordered_multimap",
    "unordered_set", "unordered_multiset", "function", "stringstream",
    "ostringstream", "istringstream", "queue", "stack", "priority_queue",
    "basic_string",
}


def _skip_template_args(tokens, i):
    """tokens[i] == '<': index just past the matching '>'."""
    depth = 0
    while i < len(tokens):
        s = tokens[i].spelling
        if s == "<":
            depth += 1
        elif s in (">", ">>"):
            depth -= 2 if s == ">>" else 1
            if depth <= 0:
                return i + 1
        elif s in (";", "{"):
            return i  # not template args after all
        i += 1
    return i


@rule("no-unbounded-container-in-hot")
def check_no_unbounded_container_in_hot(source, emit):
    """An MBI_HOT function may *grow* caller-owned reusable buffers
    (amortized to zero in steady state) but may not declare local owning
    containers — a `std::vector` local is a guaranteed allocation on every
    call once it holds anything. References and pointers to containers are
    fine; so are parameters (they bind, they don't own)."""
    tokens = source.tokens
    for start, end in hot_regions(tokens):
        i = start
        while i < end:
            name = match_qualified(tokens, i, _OWNING_CONTAINERS)
            if not name:
                i += 1
                continue
            line = tokens[i].line
            j = i + 3  # past std :: name
            if j < end and tokens[j].spelling == "<":
                j = _skip_template_args(tokens, j)
            # Reference/pointer bindings don't own; skip them.
            while j < end and tokens[j].spelling in ("const", "&", "&&", "*"):
                if tokens[j].spelling in ("&", "&&", "*"):
                    break
                j += 1
            if j < end and tokens[j].spelling in ("&", "&&", "*"):
                i = j
                continue
            # A declaration: identifier then ; = { (
            if (j < end and tokens[j].kind == "id" and j + 1 < end
                    and tokens[j + 1].spelling in (";", "=", "{", "(")):
                emit(line, f"local std::{name} declared in MBI_HOT code; "
                           f"move the buffer into the caller-owned reusable "
                           f"workspace (QueryContext pattern)")
                i = j + 1
                continue
            # A temporary: std::vector<...>( or { mid-expression.
            if j < end and tokens[j].spelling in ("(", "{"):
                emit(line, f"std::{name} temporary constructed in MBI_HOT "
                           f"code; hot paths must not materialize owning "
                           f"containers per call")
                i = j + 1
                continue
            i = j
        # end while
    return


# Intrinsic headers never appear as tokens (the lexer eats `#include <x>`
# lines), so the rule matches them against the raw source text.
_INTRINSIC_HEADER_RE = re.compile(
    r'^[ \t]*#[ \t]*include[ \t]*[<"]('
    r'immintrin|x86intrin|x86gprintrin|[a-z0-9]*mmintrin|avx[a-z0-9]*intrin|'
    r'arm_neon|arm_sve|arm_acle'
    r')\.h[>"]', re.MULTILINE)

# x86 vector types/ops all share a handful of reserved prefixes; NEON has no
# common prefix, so the distinctive q-form intrinsic families are listed.
_X86_INTRINSIC_PREFIXES = ("_mm_", "_mm256_", "_mm512_", "__m128", "__m256",
                           "__m512", "__mmask")
_NEON_INTRINSIC_PREFIXES = (
    "vld1", "vst1", "vandq", "vorrq", "veorq", "vbicq", "vcntq", "vaddq",
    "vaddvq", "vpaddlq", "vpaddq", "vdupq", "vmovq", "vgetq", "vsetq",
    "vbslq", "vtstq", "vceqq", "vshrq", "vshlq", "vreinterpretq",
)


@rule("no-raw-intrinsics", scope_prefixes=("src/", "tools/"))
def check_no_raw_intrinsics(source, emit):
    """SIMD intrinsics are confined to src/kernel/: every vector routine
    there has a scalar twin behind the same KernelOps signature, kernel_test
    proves them bit-identical, and MBI_FORCE_ISA can force any path. An
    intrinsic anywhere else is an ISA dependency the dispatcher cannot see,
    cannot clamp on older hardware, and the equivalence suite cannot cover."""
    if source.rel_path.startswith("src/kernel/"):
        return
    try:
        with open(source.path, "r", encoding="utf-8",
                  errors="replace") as handle:
            text = handle.read()
    except OSError:
        text = ""
    for m in _INTRINSIC_HEADER_RE.finditer(text):
        line = text.count("\n", 0, m.start()) + 1
        emit(line, f"#include <{m.group(1)}.h> outside src/kernel/; "
                   f"vector code goes behind the KernelOps dispatch table "
                   f"(kernel/dispatch.h)")
    for tok in source.tokens:
        if tok.kind != "id":
            continue
        if tok.spelling.startswith(_X86_INTRINSIC_PREFIXES) or \
                tok.spelling.startswith(_NEON_INTRINSIC_PREFIXES):
            emit(tok.line, f"raw intrinsic {tok.spelling} outside "
                           f"src/kernel/; add a kernel behind the dispatch "
                           f"table instead (kernel/kernels.h)")


_CLOCK_TYPES = {"steady_clock", "system_clock", "high_resolution_clock"}


@rule("no-raw-clock", scope_prefixes=("src/", "tools/"))
def check_no_raw_clock(source, emit):
    """Every time read flows through SteadyNowUs() / the DeadlineClock seam
    (util/deadline_clock.h): query deadlines, admission-queue patience, and
    latency instrumentation are all testable only because a ManualClock can
    stand in for the real clock. A raw std::chrono::*_clock::now() anywhere
    else is a time source deadline tests cannot script — the same argument
    that confines FILE* to the Env seam. (Durations like
    std::chrono::milliseconds stay legal; the rule keys on clock *types*.)"""
    for tok in source.tokens:
        if tok.kind == "id" and tok.spelling in _CLOCK_TYPES:
            emit(tok.line, f"raw std::chrono::{tok.spelling}; read time via "
                           f"SteadyNowUs() or a DeadlineClock "
                           f"(util/deadline_clock.h) so tests can inject a "
                           f"ManualClock")


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def discover_files(compile_commands_path):
    """The lintable set: every first-party .cc in the compilation database
    plus every header under src/ (headers have no compile command but carry
    most of the architecture)."""
    files = {}
    if compile_commands_path and os.path.exists(compile_commands_path):
        with open(compile_commands_path, "r", encoding="utf-8") as handle:
            for entry in json.load(handle):
                path = os.path.normpath(
                    os.path.join(entry.get("directory", "."), entry["file"]))
                rel = os.path.relpath(path, REPO_ROOT).replace(os.sep, "/")
                if rel.startswith(("src/", "tools/")):
                    args = entry.get("arguments")
                    if args is None and "command" in entry:
                        args = entry["command"].split()
                    # Strip compiler, -c/-o and the file itself; keep
                    # include dirs / defines / std for libclang.
                    keep = []
                    skip_next = False
                    for arg in (args or [])[1:]:
                        if skip_next:
                            skip_next = False
                            continue
                        if arg in ("-c", "-o"):
                            skip_next = arg == "-o"
                            continue
                        if arg == entry["file"] or arg.endswith(rel):
                            continue
                        keep.append(arg)
                    files[path] = keep
    for root, _dirs, names in os.walk(os.path.join(REPO_ROOT, "src")):
        for name in names:
            if name.endswith((".h", ".cc")):
                files.setdefault(os.path.join(root, name), [])
    for name in sorted(os.listdir(os.path.join(REPO_ROOT, "tools"))):
        if name.endswith((".h", ".cc")):
            files.setdefault(os.path.join(REPO_ROOT, "tools", name), [])
    return files


def lint_sources(sources, rule_names, scoped=True):
    findings = []
    for source in sources:
        for name in rule_names:
            fn, prefixes = RULES[name]
            if scoped:
                if not source.rel_path.startswith(tuple(prefixes)):
                    continue
                if source.rel_path in ALLOWLIST.get(name, ()):
                    continue

            def emit(line, message, _name=name, _source=source):
                if not _source.allows(_name, line):
                    findings.append(
                        Finding(_name, _source.rel_path, line, message))

            fn(source, emit)
    return findings


def run_self_test():
    """Proves every rule live: each tests/lint_probes/<rule>_probe.cc must
    fire its rule, and the allow-escape-hatch probe must stay clean."""
    probes_dir = os.path.join(REPO_ROOT, "tests", "lint_probes")
    if not os.path.isdir(probes_dir):
        print("self-test: tests/lint_probes/ missing", file=sys.stderr)
        return 1
    failures = 0
    ran = 0
    for name in sorted(os.listdir(probes_dir)):
        if not name.endswith("_probe.cc"):
            continue
        path = os.path.join(probes_dir, name)
        stem = name[:-len("_probe.cc")]
        source = load_source(path)
        if stem == "allow_escape_hatch":
            # Must stay clean under every rule: the escape hatch suppresses.
            findings = lint_sources([source], sorted(RULES), scoped=False)
            ran += 1
            if findings:
                failures += 1
                print(f"self-test FAIL {name}: escape hatch leaked "
                      f"{len(findings)} finding(s):", file=sys.stderr)
                for f in findings:
                    print(f"  {f}", file=sys.stderr)
            else:
                print(f"self-test ok   {name}: allow() suppressed all rules")
            continue
        rule_name = stem.replace("_", "-")
        if rule_name not in RULES:
            failures += 1
            print(f"self-test FAIL {name}: no rule named {rule_name}",
                  file=sys.stderr)
            continue
        findings = lint_sources([source], [rule_name], scoped=False)
        ran += 1
        if findings:
            print(f"self-test ok   {name}: {rule_name} fired "
                  f"{len(findings)}x")
        else:
            failures += 1
            print(f"self-test FAIL {name}: rule {rule_name} did NOT fire — "
                  f"the analysis has gone dead", file=sys.stderr)
    missing = {r for r in RULES} - {
        n[:-len("_probe.cc")].replace("_", "-")
        for n in os.listdir(probes_dir) if n.endswith("_probe.cc")}
    if missing:
        failures += 1
        print(f"self-test FAIL: rules without a negative probe: "
              f"{sorted(missing)}", file=sys.stderr)
    print(f"self-test: {ran} probe(s), {failures} failure(s)")
    return 1 if failures else 0


def main(argv):
    parser = argparse.ArgumentParser(
        description="Architectural lint for the mbi codebase.")
    parser.add_argument("--compile-commands",
                        default=os.path.join(REPO_ROOT, "build",
                                             "compile_commands.json"),
                        help="compilation database (shared with "
                             "tools/run_tidy.sh); used for the file set and "
                             "libclang compile args")
    parser.add_argument("--rules", default=None,
                        help="comma-separated subset of rules to run")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--self-test", action="store_true",
                        help="verify every rule fires on its "
                             "tests/lint_probes/ negative probe")
    parser.add_argument("files", nargs="*",
                        help="explicit files (default: src/** and tools/** "
                             "per the compilation database)")
    args = parser.parse_args(argv[1:])

    if args.list_rules:
        for name in sorted(RULES):
            doc = (RULES[name][0].__doc__ or "").strip().split("\n")[0]
            print(f"{name:32} {doc}")
        return 0
    if args.self_test:
        return run_self_test()

    rule_names = sorted(RULES)
    if args.rules:
        rule_names = [r.strip() for r in args.rules.split(",") if r.strip()]
        unknown = [r for r in rule_names if r not in RULES]
        if unknown:
            print(f"unknown rule(s): {unknown}", file=sys.stderr)
            return 2

    if args.files:
        file_map = {os.path.abspath(f): [] for f in args.files}
    else:
        file_map = discover_files(args.compile_commands)
    if not file_map:
        print("no files to lint (missing compile_commands.json and no "
              "files given)", file=sys.stderr)
        return 2

    sources = [load_source(path, compile_args)
               for path, compile_args in sorted(file_map.items())]
    findings = lint_sources(sources, rule_names)
    for finding in sorted(findings, key=lambda f: (f.path, f.line)):
        print(finding)
    frontend = "libclang" if cindex_module() is not None else "builtin-lexer"
    print(f"mbi-lint: {len(sources)} file(s), {len(rule_names)} rule(s), "
          f"{len(findings)} finding(s) [{frontend} frontend]",
          file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
