#!/usr/bin/env python3
"""slim_lint: SLIM-specific determinism and hygiene invariants.

Every PR since the pipeline went parallel has staked its correctness claim
on bit-identical links across thread counts and shard counts.  The
compiler cannot see those invariants; this checker encodes
them as named, suppressible rules so the next refactor cannot silently
reintroduce nondeterminism.

Rules (catalog with rationale: docs/STATIC_ANALYSIS.md):

  SLIM-DET-001  No iteration over unordered_{map,set} in result-producing
                code (src/, tools/).  Hash-table iteration order depends
                on libstdc++ version, seed values, and insertion history;
                anything derived from it breaks the bit-identity contract.
                Use the dense/sorted structures (CSR HistoryStore,
                BinVocabulary, std::map, sorted vectors) instead.
  SLIM-DET-002  No ambient entropy: std::random_device, rand()/srand(),
                time(nullptr)-style seeding outside src/common/rng.
                All randomness flows through slim::Rng with an explicit
                seed so every run is replayable.
  SLIM-DET-003  No floating-point accumulation with unspecified order:
                std::reduce / std::transform_reduce over float/double,
                std::atomic<float|double>.  FP addition is not
                associative; reduction order must be fixed (sequential
                std::accumulate or the ordered shard merges in
                common/parallel).
  SLIM-DET-004  No locale-dependent numeric parse/format in parsers and
                writers: stod/stof family, strtod/strtof, atof, sscanf,
                imbue, setlocale.  A de_DE locale flips '.' and ','; use
                std::from_chars / std::to_chars (common/strings).
  SLIM-HYG-101  No raw new/new[]/malloc/calloc/realloc/free in src/.
                Core code owns memory through containers and
                unique_ptr/make_unique; raw allocation leaks on the error
                paths Status-based code takes routinely.
  SLIM-HYG-102  Every header carries the canonical include guard
                SLIM_<PATH>_H_ (path relative to the repo root, leading
                src/ stripped, uppercased, separators as '_').  Copy-paste
                guards silently make one of the two headers vanish from
                any TU that includes both.

Suppressions:
  // slim-lint: allow(SLIM-DET-001, <reason>)        this or next line
  // slim-lint: allow-file(SLIM-DET-001, <reason>)   whole file

A suppression without a reason is itself a finding (SLIM-LINT-000), as is
one that suppresses nothing.

Exit status: 0 clean, 1 findings, 2 usage/internal error.

Usage:
  tools/slim_lint.py                  # scan src/ tools/ bench/ tests/
  tools/slim_lint.py path...          # scan specific files/dirs
  tools/slim_lint.py --root DIR       # treat DIR as the repo root
  tools/slim_lint.py --list-rules
"""

import argparse
import os
import re
import sys

# ---------------------------------------------------------------------------
# Rule table
# ---------------------------------------------------------------------------

RULES = {
    "SLIM-DET-001": "iteration over unordered container in "
    "result-producing code (use dense/sorted structures)",
    "SLIM-DET-002": "ambient entropy source outside common/rng "
    "(use slim::Rng with an explicit seed)",
    "SLIM-DET-003": "floating-point accumulation with unspecified order "
    "(fix the reduction order)",
    "SLIM-DET-004": "locale-dependent numeric parse/format "
    "(use from_chars/to_chars via common/strings)",
    "SLIM-HYG-101": "raw allocation in core code "
    "(use containers or make_unique)",
    "SLIM-HYG-102": "header include guard missing or not canonical",
    "SLIM-LINT-000": "malformed or unused slim-lint suppression",
}

# Paths whose findings the rule applies to, as path-prefix tuples relative
# to the repo root.  Rules not listed apply everywhere scanned.
RULE_SCOPE = {
    # Result-producing code: the library and the CLI tools.  bench/ and
    # tests/ consume results; they may hash or count with unordered
    # containers freely.
    "SLIM-DET-001": ("src/", "tools/"),
    "SLIM-HYG-101": ("src/",),
}

# Files exempt from a rule (the rule's own implementation home).
RULE_EXEMPT_FILES = {
    "SLIM-DET-002": ("src/common/rng.h", "src/common/rng.cc"),
}

DEFAULT_SCAN_DIRS = ("src", "tools", "bench", "tests")
# Lint fixture files deliberately violate the rules.
DEFAULT_EXCLUDES = ("tests/lint/fixtures/",)

SUPPRESS_RE = re.compile(
    r"slim-lint:\s*(allow|allow-file)\(\s*(SLIM-[A-Z]+-\d+)\s*(?:,\s*([^)]*))?\)"
)

UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<"
)
# A name bound to an unordered container: locals, members, and (via the
# trailing [&*\s]* and the ')'/',' terminators) reference/pointer function
# parameters -- `const std::unordered_set<int>& seen)` registers `seen`.
UNORDERED_NAME_DECL_RE = re.compile(
    r"unordered_(?:map|set|multimap|multiset)\s*<[^;={]*>[&*\s]*"
    r"(?P<names>[A-Za-z_]\w*(?:\s*,\s*[A-Za-z_]\w*)*)\s*[;={(),]"
)
FOR_OPEN_RE = re.compile(r"\bfor\s*\(")
ITER_BEGIN_RE = re.compile(r"\b(?P<obj>[A-Za-z_]\w*)\s*\.\s*c?begin\s*\(")

DET002_RE = re.compile(
    r"\bstd::random_device\b|\brandom_device\s+\w|\bsrand\s*\(|"
    r"(?<![\w:.])rand\s*\(\s*\)|\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)"
)
DET003_RE = re.compile(r"\bstd::(?:transform_)?reduce\s*[(<]")
DET003_ATOMIC_RE = re.compile(r"\bstd::atomic\s*<\s*(?:float|double)\b")
DET004_RE = re.compile(
    r"\bstd::sto(?:d|f|ld)\s*\(|\bstrto(?:d|f|ld)\s*\(|"
    r"(?<![\w:.])atof\s*\(|\bsscanf\s*\(|\.\s*imbue\s*\(|\bsetlocale\s*\("
)
HYG101_RE = re.compile(
    r"(?<![\w:.])(?:malloc|calloc|realloc|free)\s*\(|"
    r"(?<![\w.])\bnew\b(?!\s*\()"  # `new T`, `new T[n]`; not `->new(...)`
)


def strip_comments_and_strings(text):
    """Blank out comments and string/char literals, preserving newlines.

    Keeps line/column positions stable so findings point at real code.
    Handles //, /* */, "...", '...' and the R"(...)"-style raw literals
    used in the tests.
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            seg = text[i : j + 2]
            out.append("".join(ch if ch == "\n" else " " for ch in seg))
            i = j + 2
        elif c == "R" and text[i : i + 2] == 'R"':
            m = re.match(r'R"([^()\s\\]{0,16})\(', text[i:])
            if not m:
                out.append(c)
                i += 1
                continue
            end = text.find(")" + m.group(1) + '"', i + m.end())
            end = n if end == -1 else end + len(m.group(1)) + 2
            seg = text[i:end]
            out.append("".join(ch if ch == "\n" else " " for ch in seg))
            i = end
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(c + " " * (j - i - 2) + c if j - i >= 2 else c)
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


class FileLint:
    def __init__(self, relpath, text):
        self.relpath = relpath
        self.raw_lines = text.split("\n")
        self.code_lines = strip_comments_and_strings(text).split("\n")
        self.findings = []  # (line, rule, message)
        # rule -> set of line numbers with a line suppression, or "file"
        self.suppressions = {}
        self.used = set()  # (rule, line) pairs actually consumed
        self._collect_suppressions()

    def _collect_suppressions(self):
        for ln, line in enumerate(self.raw_lines, 1):
            for m in SUPPRESS_RE.finditer(line):
                kind, rule, reason = m.group(1), m.group(2), m.group(3)
                if rule not in RULES:
                    self.findings.append(
                        (ln, "SLIM-LINT-000", f"unknown rule id {rule!r}")
                    )
                    continue
                if not (reason or "").strip():
                    self.findings.append(
                        (ln, "SLIM-LINT-000",
                         f"suppression of {rule} carries no reason")
                    )
                    continue
                slot = self.suppressions.setdefault(rule, set())
                slot.add("file" if kind == "allow-file" else ln)

    def _suppressed(self, rule, line):
        slot = self.suppressions.get(rule, set())
        if "file" in slot:
            self.used.add((rule, "file"))
            return True
        # A line suppression covers its own line and the following line
        # (comment-above style).
        for cand in (line, line - 1):
            if cand in slot:
                self.used.add((rule, cand))
                return True
        return False

    def report(self, rule, line, message):
        if not self._suppressed(rule, line):
            self.findings.append((line, rule, message))

    def in_scope(self, rule):
        scope = RULE_SCOPE.get(rule)
        if scope is not None and not self.relpath.startswith(scope):
            return False
        if self.relpath in RULE_EXEMPT_FILES.get(rule, ()):
            return False
        return True

    # -- rule implementations ---------------------------------------------

    def check_det001(self):
        if not self.in_scope("SLIM-DET-001"):
            return
        # Names declared (or bound) with an unordered container type in
        # this file.  Member declarations count: `map_` in a header is
        # iterated from the matching .cc via `obj.map_` or plain `map_`.
        names = set()
        for code in self.code_lines:
            if "unordered_" not in code:
                continue
            for m in UNORDERED_NAME_DECL_RE.finditer(code):
                for nm in m.group("names").split(","):
                    names.add(nm.strip())
        # Headers are paired with their .cc: pick up names from the
        # sibling header so iteration in foo.cc over a member declared in
        # foo.h is caught.
        names |= self._sibling_header_unordered_names()
        if not names:
            return
        name_re = re.compile(
            r"(?:^|[^\w.])(?:[A-Za-z_]\w*\s*[.]\s*|->\s*)?(?P<n>%s)\b"
            % "|".join(re.escape(n) for n in sorted(names))
        )
        for ln, code in enumerate(self.code_lines, 1):
            for rng in self._range_for_exprs(code):
                if name_re.search(rng) or "unordered_" in rng:
                    self.report(
                        "SLIM-DET-001", ln,
                        f"range-for over unordered container ({rng.strip()!r})",
                    )
            for m in ITER_BEGIN_RE.finditer(code):
                if m.group("obj") in names:
                    self.report(
                        "SLIM-DET-001", ln,
                        f"iterator walk over unordered container "
                        f"{m.group('obj')!r}",
                    )

    @staticmethod
    def _range_for_exprs(code):
        """Yield the range expression of each range-for on this line.

        Walks to the close paren that balances `for (` and splits on the
        first colon at paren depth 1 (ignoring `::`).  Classic
        semicolon-fors yield nothing.
        """
        for m in FOR_OPEN_RE.finditer(code):
            depth, i = 1, m.end()
            colon = None
            semis = False
            while i < len(code) and depth:
                c = code[i]
                if c == "(" or c == "[" or c == "{":
                    depth += 1
                elif c == ")" or c == "]" or c == "}":
                    depth -= 1
                elif depth == 1 and c == ";":
                    semis = True
                elif (depth == 1 and c == ":" and colon is None
                      and code[i - 1] != ":"
                      and (i + 1 >= len(code) or code[i + 1] != ":")):
                    colon = i
                i += 1
            if depth == 0 and colon is not None and not semis:
                yield code[colon + 1 : i - 1]

    def _sibling_header_unordered_names(self):
        if not self.relpath.endswith(".cc"):
            return set()
        header = self.relpath[:-3] + ".h"
        path = os.path.join(self._root, header)
        if not os.path.isfile(path):
            return set()
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                code = strip_comments_and_strings(f.read())
        except OSError:
            return set()
        names = set()
        for m in UNORDERED_NAME_DECL_RE.finditer(code):
            for nm in m.group("names").split(","):
                names.add(nm.strip())
        return names

    def check_regex_rule(self, rule, regexes, what):
        if not self.in_scope(rule):
            return
        for ln, code in enumerate(self.code_lines, 1):
            for rx in regexes:
                m = rx.search(code)
                if m:
                    self.report(rule, ln, f"{what}: {m.group(0).strip()!r}")

    def check_hyg102(self):
        if not self.relpath.endswith(".h"):
            return
        rel = self.relpath
        if rel.startswith("src/"):
            rel = rel[len("src/"):]
        expected = "SLIM_" + re.sub(r"[^A-Za-z0-9]", "_", rel).upper() + "_"
        guard_line = None
        guard = None
        for ln, code in enumerate(self.code_lines, 1):
            s = code.strip()
            if s.startswith("#ifndef "):
                guard_line = ln
                guard = s.split(None, 1)[1].strip()
                break
            if s:  # first real code before any guard
                break
        if guard is None:
            self.report("SLIM-HYG-102", 1,
                        f"missing include guard (expected {expected})")
            return
        if guard != expected:
            self.report("SLIM-HYG-102", guard_line,
                        f"guard {guard} is not canonical "
                        f"(expected {expected})")
            return
        # #define must follow immediately.
        nxt = (self.code_lines[guard_line].strip()
               if guard_line < len(self.code_lines) else "")
        if nxt != f"#define {expected}":
            self.report("SLIM-HYG-102", guard_line + 1,
                        f"#define {expected} must follow the #ifndef")

    def check_unused_suppressions(self):
        for rule, slots in self.suppressions.items():
            for slot in slots:
                if (rule, slot) not in self.used:
                    ln = 1 if slot == "file" else slot
                    self.findings.append(
                        (ln, "SLIM-LINT-000",
                         f"suppression of {rule} matches no finding")
                    )

    def run(self, root):
        self._root = root
        self.check_det001()
        self.check_regex_rule("SLIM-DET-002", [DET002_RE],
                              "ambient entropy source")
        self.check_regex_rule("SLIM-DET-003", [DET003_RE, DET003_ATOMIC_RE],
                              "unordered floating-point reduction")
        self.check_regex_rule("SLIM-DET-004", [DET004_RE],
                              "locale-dependent numeric call")
        self.check_regex_rule("SLIM-HYG-101", [HYG101_RE], "raw allocation")
        self.check_hyg102()
        self.check_unused_suppressions()
        return sorted(self.findings)


def iter_source_files(root, paths, excludes):
    seen = set()
    for p in paths:
        ap = os.path.abspath(p)
        if os.path.isfile(ap):
            files = [ap]
        else:
            files = []
            for dirpath, dirnames, filenames in os.walk(ap):
                dirnames.sort()
                for fn in sorted(filenames):
                    if fn.endswith((".cc", ".h")):
                        files.append(os.path.join(dirpath, fn))
        for f in files:
            rel = os.path.relpath(f, root).replace(os.sep, "/")
            if rel in seen or any(rel.startswith(e) for e in excludes):
                continue
            seen.add(rel)
            yield rel, f


def main(argv):
    ap = argparse.ArgumentParser(prog="slim_lint", add_help=True)
    ap.add_argument("paths", nargs="*", help="files or directories")
    ap.add_argument("--root", default=None,
                    help="repo root (default: parent of this script)")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--no-default-excludes", action="store_true",
                    help="also scan the lint fixture corpus")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule in sorted(RULES):
            print(f"{rule}  {RULES[rule]}")
        return 0

    root = os.path.abspath(
        args.root
        or os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    )
    paths = args.paths or [
        os.path.join(root, d)
        for d in DEFAULT_SCAN_DIRS
        if os.path.isdir(os.path.join(root, d))
    ]
    excludes = () if args.no_default_excludes else DEFAULT_EXCLUDES

    total = 0
    nfiles = 0
    for rel, path in iter_source_files(root, paths, excludes):
        nfiles += 1
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError as e:
            print(f"{rel}: error: {e}", file=sys.stderr)
            return 2
        for ln, rule, message in FileLint(rel, text).run(root):
            print(f"{rel}:{ln}: [{rule}] {message}")
            total += 1
    print(
        f"slim_lint: {nfiles} files, {total} finding(s)",
        file=sys.stderr,
    )
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
