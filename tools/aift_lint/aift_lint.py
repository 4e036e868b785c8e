#!/usr/bin/env python3
"""aift-lint — domain-invariant checker for the aift tree.

Generic linters cannot know this codebase's standing invariants (see
ROADMAP.md); this one encodes them as mechanical rules with file/line
diagnostics, so a violation fails CI at review time instead of waiting
for a determinism suite or a hostile-locale test to catch the symptom:

  locale-float        Float formatting that honors the global locale
                      (printf "%f"-family conversions, std::to_string on
                      a floating expression, raw stream << of a double,
                      stream float manipulators). A comma-decimal host
                      would corrupt artifacts and split CSV fields; every
                      serialization site must go through fmt_double /
                      the artifact_io hexfloat helpers. Whitelisted
                      implementation sites: src/common/table.cpp,
                      src/runtime/artifact_io.cpp.

  nondeterminism      Wall-clock, ambient-entropy or C-library RNG reads
                      (std::chrono::*::now(), time(), clock(), rand(),
                      srand(), std::random_device) outside the injected
                      clock/RNG seams. Scheduling decisions, campaign
                      trials and tests must draw time from an injected
                      ClockFn and randomness from common/rng streams, or
                      bit-identity across execution modes is unprovable.

  fp-reduction-order  Unordered floating-point reduction primitives
                      (std::reduce, std::transform_reduce,
                      std::execution::par*, OpenMP reductions) in gemm/
                      and core/. Every output element's accumulation
                      order must depend only on the K decomposition —
                      checksum math and the stacked-GEMM invariant both
                      rest on that.

  hot-path-alloc      Allocation inside a hot body: the run_blocks* GEMM
                      bodies and the microkernel bodies (micro_tile*,
                      gemm_block_*) in gemm/, and ThreadLevelAbft::check
                      in core/. Flags raw new/malloc/calloc/realloc, sized
                      container construction (std::vector<T> v(n)),
                      resize/reserve/assign and make_unique/make_shared.
                      Steady-state serving performs zero scratch
                      allocations (pinned by ScratchTest); per-block and
                      per-panel buffers come from common/scratch arenas.

  ordered-iteration   Iterating an unordered_map/unordered_set inside
                      serialization, table, or stats-merge code
                      (common/table, runtime artifact/plan/calibration
                      IO, runtime/report, gemm/profile_cache), where
                      iteration order leaks into output bytes. Artifacts
                      and reports must be byte-stable across hosts and
                      library versions: iterate a sorted view or use an
                      ordered container.

Suppression: append `// aift-lint: allow(<rule>)` to the flagged line,
or put it on its own line directly above. Suppressions are for sanctioned
seams (e.g. the ServingEngine default clock, microbench wall-clock
measurement) and should say why in the surrounding comment.

Usage:
  aift_lint.py [--as-path VIRTUAL_PATH] [--rules r1,r2] PATH [PATH...]

Paths may be files or directories (searched for *.cpp *.cc *.hpp *.h).
--as-path lints a single file as if it lived at VIRTUAL_PATH relative to
the repo root — how the fixture suite exercises path-scoped rules.
Exit status: 0 clean, 1 findings, 2 usage error.
"""

import argparse
import os
import re
import sys

CXX_EXTENSIONS = (".cpp", ".cc", ".cxx", ".hpp", ".h", ".hh")
SKIP_DIR_NAMES = {"build", "build-tsan", "build-asan", "fixtures", ".git",
                  "Testing"}

ALLOW_RE = re.compile(r"aift-lint:\s*allow\(([a-z0-9_\-, ]+)\)")


# --------------------------------------------------------------- masking --

def mask_source(text):
    """Blanks comments and string/char literals, preserving layout.

    Returns (masked, literals) where `masked` is code-only text of the
    same shape (every masked char becomes a space, newlines kept) and
    `literals` maps line number (1-based) -> list of string-literal
    contents that START on that line. Rules match against `masked` so a
    mention of Clock::now() in a comment can never fire; the printf rule
    reads format strings from `literals`.
    """
    out = list(text)
    literals = {}
    i, n = 0, len(text)
    line = 1
    state = "code"
    lit_start_line = 0
    lit_buf = []
    raw_delim = None

    def blank(idx):
        if out[idx] != "\n":
            out[idx] = " "

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                blank(i)
            elif c == "/" and nxt == "*":
                state = "block_comment"
                blank(i)
            elif c == '"':
                # Raw string literal? Look back for R prefix (R"delim().
                j = i - 1
                prefix = ""
                while j >= 0 and text[j] in "uUL8R":
                    prefix = text[j] + prefix
                    j -= 1
                if prefix.endswith("R"):
                    m = re.match(r'"([^\s()\\]{0,16})\(', text[i:])
                    raw_delim = ")" + (m.group(1) if m else "") + '"'
                    state = "raw_string"
                else:
                    state = "string"
                lit_start_line = line
                lit_buf = []
                blank(i)
            elif c == "'":
                state = "char"
                blank(i)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
            else:
                blank(i)
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                blank(i)
                blank(i + 1)
                i += 1
                if nxt == "\n":
                    line += 1
                state = "code"
            else:
                blank(i)
        elif state == "string":
            if c == "\\":
                lit_buf.append(text[i:i + 2])
                blank(i)
                if i + 1 < n:
                    blank(i + 1)
                    if nxt == "\n":
                        line += 1
                i += 1
            elif c == '"':
                blank(i)
                literals.setdefault(lit_start_line, []).append("".join(lit_buf))
                state = "code"
            else:
                lit_buf.append(c)
                blank(i)
        elif state == "raw_string":
            if text.startswith(raw_delim, i):
                for k in range(len(raw_delim)):
                    blank(i + k)
                literals.setdefault(lit_start_line, []).append("".join(lit_buf))
                i += len(raw_delim) - 1
                state = "code"
            else:
                lit_buf.append(c)
                blank(i)
        elif state == "char":
            if c == "\\":
                blank(i)
                if i + 1 < n:
                    blank(i + 1)
                i += 1
            elif c == "'":
                blank(i)
                state = "code"
            else:
                blank(i)
        if text[i] == "\n":
            line += 1
        i += 1
    return "".join(out), literals


def allowed_rules(raw_lines):
    """Line number -> set of rule ids suppressed on that line.

    A directive suppresses its own line; a directive on a line that is
    nothing but the comment also suppresses the next line.
    """
    allow = {}
    for idx, text in enumerate(raw_lines, start=1):
        m = ALLOW_RE.search(text)
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        allow.setdefault(idx, set()).update(rules)
        before = text[: text.find("//")] if "//" in text else text
        if not before.strip():
            allow.setdefault(idx + 1, set()).update(rules)
    return allow


# ----------------------------------------------------------------- rules --

PRINTF_CALL_RE = re.compile(
    r"\b(?:v?f?printf|v?s[n]?printf)\s*\(")
PRINTF_FLOAT_CONV_RE = re.compile(
    r"(?<!%)%[-+ #0']*(?:\d+|\*)?(?:\.(?:\d+|\*))?(?:l|L)?[aAeEfFgG]")
TOSTRING_RE = re.compile(r"std\s*::\s*to_string\s*\(([^;]*)\)")
FLOAT_EVIDENCE_RE = re.compile(
    r"\d+\.\d|\b(?:double|float)\b|_(?:us|ms|pct|frac|ratio)\b"
    r"|\b(?:latency|elapsed|speedup|overhead|intensity|coverage"
    r"|attainment|percent)\w*")
STREAM_FLOAT_RE = re.compile(
    r"<<\s*(?:"
    r"\d+\.\d+(?:[eE][-+]?\d+)?[fF]?\b"
    r"|(?!fmt_)[A-Za-z_][\w.]*(?:_us|_ms|_pct|_frac|_ratio)\b(?!\w*\()"
    r"|(?!fmt_)[A-Za-z_]\w*(?:latency|elapsed|speedup)\w*\b"
    r"|\w+\.(?:overhead_pct|mean_latency_us|deadline_attainment)\(\)"
    r")")
STREAM_MANIP_RE = re.compile(
    r"std\s*::\s*(?:setprecision|fixed|scientific|defaultfloat|hexfloat)\b")

NONDET_PATTERNS = [
    (re.compile(r"::\s*now\s*\("),
     "wall-clock read (::now()) outside the injected-clock seam"),
    (re.compile(r"std\s*::\s*random_device\b"),
     "ambient entropy (std::random_device) outside the seeded RNG seam"),
    (re.compile(r"(?<![\w.>])s?rand\s*\("),
     "C-library RNG outside the seeded RNG seam"),
    (re.compile(r"(?<![\w.>])time\s*\(\s*(?:NULL|nullptr|0|&)?"),
     "wall-clock read (time()) outside the injected-clock seam"),
    (re.compile(r"(?<![\w.>])clock\s*\(\s*\)"),
     "CPU-clock read (clock()) outside the injected-clock seam"),
]

FP_REDUCTION_PATTERNS = [
    (re.compile(r"std\s*::\s*reduce\b"),
     "std::reduce reassociates floating-point accumulation"),
    (re.compile(r"std\s*::\s*transform_reduce\b"),
     "std::transform_reduce reassociates floating-point accumulation"),
    (re.compile(r"std\s*::\s*execution\s*::\s*(?:par\b|par_unseq\b|unseq\b)"),
     "parallel execution policies unorder floating-point accumulation"),
    (re.compile(r"#\s*pragma\s+omp\b.*\breduction\b"),
     "OpenMP reductions reassociate floating-point accumulation"),
]

ALLOC_RE = re.compile(
    r"(?<![\w.>])new\b(?!\s*\()|\bnew\s*\[|(?<![\w.>])(?:malloc|calloc"
    r"|realloc|aligned_alloc|posix_memalign)\s*\(")
# hot-path-alloc: (path prefix, definition pattern) of the hot bodies.
HOT_FNS = (
    ("src/gemm/", re.compile(r"\brun_blocks\w*\s*\("), "run_blocks*"),
    ("src/gemm/", re.compile(r"\b(?:micro_tiles?|gemm_block_\w+)\s*\("),
     "GEMM microkernel"),
    ("src/core/", re.compile(r"\bThreadLevelAbft\s*::\s*check\s*\("),
     "ThreadLevelAbft::check"),
)
NAMESPACE_OPEN_RE = re.compile(
    r"(?:\bnamespace(?:\s+[\w:]+)?|\bextern\s+\"C\")\s*$")
CONTAINER_ALLOC_RE = re.compile(
    r"\bstd\s*::\s*(?:vector|string|deque|list|map|set|unordered_\w+)\s*"
    r"<[^;]*>\s+\w+\s*[({]\s*[^\s)}]"
    r"|\.\s*(?:resize|reserve|assign)\s*\("
    r"|\bmake_(?:unique|shared)\s*<")

# ordered-iteration: files whose outputs are byte-stability contracts.
ORDERED_ITER_SCOPE = (
    "src/common/table.",
    "src/runtime/artifact_io.",
    "src/runtime/plan_io.",
    "src/runtime/calibration_io.",
    "src/runtime/report.",
    "src/gemm/profile_cache.",
)
UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;{}()]*>\s*[&*]?\s*"
    r"([A-Za-z_]\w*)")
ITER_FOR_RE = re.compile(
    r"for\s*\([^;()]*:\s*([A-Za-z_][\w.]*(?:->[\w.]+)*)")
ITER_BEGIN_RE = re.compile(
    r"\b([A-Za-z_][\w.]*(?:->[\w.]+)*)\s*\.\s*c?r?begin\s*\(")


def under(path, *prefixes):
    p = path.replace(os.sep, "/")
    return any(p == pre or p.startswith(pre) for pre in prefixes)


class Finding:
    def __init__(self, path, line, rule, message):
        self.path, self.line, self.rule, self.message = path, line, rule, message

    def __str__(self):
        return f"{self.path}:{self.line}: error: [{self.rule}] {self.message}"


def check_locale_float(rel, raw_lines, masked_lines, literals, out):
    if not under(rel, "src/"):
        return
    if under(rel, "src/common/table.cpp", "src/runtime/artifact_io.cpp"):
        return  # the sanctioned locale-independent formatting sites
    open_call_lines = 0
    for ln, code in enumerate(masked_lines, start=1):
        if PRINTF_CALL_RE.search(code):
            open_call_lines = 4  # format string may wrap a few lines
        if open_call_lines > 0:
            for lit in literals.get(ln, []):
                if PRINTF_FLOAT_CONV_RE.search(lit):
                    out.append(Finding(
                        rel, ln, "locale-float",
                        "printf-family float conversion honors the global "
                        "locale; use fmt_double (common/table) or hexfloat "
                        "(runtime/artifact_io)"))
            if ";" in code:
                open_call_lines = 0
            else:
                open_call_lines -= 1
        for m in TOSTRING_RE.finditer(code):
            if FLOAT_EVIDENCE_RE.search(m.group(1)):
                out.append(Finding(
                    rel, ln, "locale-float",
                    "std::to_string on a floating expression is "
                    "locale-dependent; use fmt_double (common/table)"))
        if STREAM_FLOAT_RE.search(code):
            out.append(Finding(
                rel, ln, "locale-float",
                "raw stream << of a floating value honors the imbued "
                "locale; wrap it in fmt_double / fmt_pct / fmt_time_us"))
        if STREAM_MANIP_RE.search(code):
            out.append(Finding(
                rel, ln, "locale-float",
                "stream float manipulators imply locale-dependent float "
                "formatting; use fmt_double (common/table)"))


def check_nondeterminism(rel, masked_lines, out):
    if not under(rel, "src/", "tests/"):
        return
    for ln, code in enumerate(masked_lines, start=1):
        for pat, msg in NONDET_PATTERNS:
            if pat.search(code):
                out.append(Finding(
                    rel, ln, "nondeterminism",
                    msg + " (inject a ClockFn / derive a common/rng stream "
                    "instead)"))


def check_fp_reduction(rel, masked_lines, out):
    if not under(rel, "src/gemm/", "src/core/"):
        return
    for ln, code in enumerate(masked_lines, start=1):
        for pat, msg in FP_REDUCTION_PATTERNS:
            if pat.search(code):
                out.append(Finding(
                    rel, ln, "fp-reduction-order",
                    msg + "; per-column accumulation order must depend only "
                    "on the K decomposition"))


def check_hot_path_alloc(rel, masked_lines, out):
    scopes = [(pat, name) for prefix, pat, name in HOT_FNS if under(rel, prefix)]
    if not scopes:
        return
    # Track function-body brace depth through each hot definition's body.
    depth = 0
    braces = []  # per open brace: whether it opened a namespace
    hot_name = None
    hot_name_line = 0
    for ln, code in enumerate(masked_lines, start=1):
        if hot_name is None and depth == 0:
            for pat, name in scopes:
                # A definition opens a brace at depth 0 on this or a nearby
                # line; a call site inside another function sits at depth > 0.
                if pat.search(code):
                    hot_name, hot_name_line = name, ln
                    break
        if hot_name is not None and depth > 0 and (
                ALLOC_RE.search(code) or CONTAINER_ALLOC_RE.search(code)):
            out.append(Finding(
                rel, ln, "hot-path-alloc",
                f"allocation inside the {hot_name} hot path (entered at "
                f"line {hot_name_line}); use common/scratch arenas — "
                "steady-state serving rounds must not allocate"))
        for pos, ch in enumerate(code):
            if ch == "{":
                # Namespace bodies do not count: a definition inside
                # `namespace aift {` still sits at function depth 0.
                is_ns = bool(NAMESPACE_OPEN_RE.search(code[:pos]))
                braces.append(is_ns)
                depth += 0 if is_ns else 1
            elif ch == "}" and braces:
                if not braces.pop():
                    depth -= 1
                    if depth == 0 and hot_name is not None:
                        hot_name = None
        if hot_name is not None and depth == 0 and ";" in code:
            hot_name = None  # declaration (or call statement), not a body


def check_ordered_iteration(rel, masked, masked_lines, out):
    if not under(rel, *ORDERED_ITER_SCOPE):
        return
    # Names declared with an unordered container type anywhere in the
    # file (members included; the declaration may wrap lines, so scan
    # the full masked text).
    names = set(UNORDERED_DECL_RE.findall(masked))
    if not names:
        return
    for ln, code in enumerate(masked_lines, start=1):
        targets = [m.group(1) for m in ITER_FOR_RE.finditer(code)]
        targets += [m.group(1) for m in ITER_BEGIN_RE.finditer(code)]
        for target in targets:
            base = re.split(r"\.|->", target)[-1]
            if base in names:
                out.append(Finding(
                    rel, ln, "ordered-iteration",
                    f"iteration over unordered container '{target}' in "
                    "serialization/table/stats-merge code: visit order is "
                    "implementation-defined and leaks into output bytes; "
                    "iterate a sorted view or use an ordered container"))


CHECKS = {
    "locale-float": None,  # dispatched explicitly; needs literals
    "nondeterminism": None,
    "fp-reduction-order": None,
    "hot-path-alloc": None,
    "ordered-iteration": None,
}


def lint_file(path, rel, selected):
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as e:
        print(f"aift-lint: cannot read {path}: {e}", file=sys.stderr)
        return None
    raw_lines = text.splitlines()
    masked, literals = mask_source(text)
    masked_lines = masked.splitlines()
    allow = allowed_rules(raw_lines)

    findings = []
    if "locale-float" in selected:
        check_locale_float(rel, raw_lines, masked_lines, literals, findings)
    if "nondeterminism" in selected:
        check_nondeterminism(rel, masked_lines, findings)
    if "fp-reduction-order" in selected:
        check_fp_reduction(rel, masked_lines, findings)
    if "hot-path-alloc" in selected:
        check_hot_path_alloc(rel, masked_lines, findings)
    if "ordered-iteration" in selected:
        check_ordered_iteration(rel, masked, masked_lines, findings)
    return [f for f in findings if f.rule not in allow.get(f.line, set())]


def gather_files(paths):
    files = []
    for p in paths:
        if os.path.isfile(p):
            files.append(p)
        elif os.path.isdir(p):
            for root, dirs, names in os.walk(p):
                dirs[:] = sorted(d for d in dirs if d not in SKIP_DIR_NAMES)
                for name in sorted(names):
                    if name.endswith(CXX_EXTENSIONS):
                        files.append(os.path.join(root, name))
        else:
            print(f"aift-lint: no such path: {p}", file=sys.stderr)
            return None
    return files


def main(argv):
    ap = argparse.ArgumentParser(prog="aift-lint", add_help=True)
    ap.add_argument("paths", nargs="+")
    ap.add_argument("--as-path", default=None,
                    help="lint a single file as if it lived at this "
                         "repo-relative path (fixture testing)")
    ap.add_argument("--rules", default=None,
                    help="comma-separated subset of rules to run")
    ap.add_argument("--root", default=None,
                    help="repo root for computing rule-scoping paths "
                         "(default: current directory)")
    args = ap.parse_args(argv)

    selected = set(CHECKS)
    if args.rules:
        selected = {r.strip() for r in args.rules.split(",") if r.strip()}
        unknown = selected - set(CHECKS)
        if unknown:
            print(f"aift-lint: unknown rule(s): {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2
    if args.as_path and (len(args.paths) != 1 or
                         not os.path.isfile(args.paths[0])):
        print("aift-lint: --as-path takes exactly one file", file=sys.stderr)
        return 2

    root = os.path.abspath(args.root or os.getcwd())
    files = gather_files(args.paths)
    if files is None:
        return 2

    all_findings = []
    for path in files:
        if args.as_path:
            rel = args.as_path.replace(os.sep, "/")
        else:
            rel = os.path.relpath(os.path.abspath(path), root)
            rel = rel.replace(os.sep, "/")
        result = lint_file(path, rel, selected)
        if result is None:
            return 2
        all_findings.extend(result)

    for f in all_findings:
        print(f)
    if all_findings:
        print(f"aift-lint: {len(all_findings)} finding(s) in "
              f"{len(files)} file(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
