#!/usr/bin/env python3
"""Project-specific lint for the Orion simulator sources.

Orion's reproduction claims rest on bit-identical determinism and on
library code that never bypasses the simulator's ownership and
reporting conventions. Generic linters don't know those rules; this
one does:

  nondeterminism     rand()/srand()/time()/std::random_device and
                     wall-clock std::chrono clocks are forbidden in
                     src/ outside sim/rng.* (benchmarks may read the
                     wall clock to *measure*, never to *seed*).
  naked-new          no naked new/delete in src/ — ownership goes
                     through std::unique_ptr/std::vector.
  file-scope-state   no mutable file-scope state in sim/router/power/
                     net sources: modules must be re-entrant so
                     parallel sweep workers can run independent
                     simulations concurrently.
  include-guard      headers use #ifndef ORION_<PATH>_HH guards that
                     match their path; #pragma once is forbidden
                     (one consistent style, greppable).
  stdout-in-library  src/ never writes to stdout/stderr directly;
                     reporting code takes an std::ostream&. (CLI entry
                     points live in tools/, which may print.)
  naked-stderr       diagnostics in src/ and tools/ must flow through
                     core/log (log::diag/log::event) so a configured
                     --log-out sink mirrors every stderr message;
                     fprintf(stderr, ...)/std::cerr bypass it. The
                     logger backend itself (src/core/log.cc) is
                     exempt. bench/ harnesses are out of scope.
  stat-printing      src/net and src/router must not print statistics
                     at all, not even to an ostream snuck in via
                     stdout: counters belong in telemetry::
                     MetricsRegistry (sampled by net::WindowedSampler)
                     or the end-of-run Report, so every statistic is
                     machine-readable and deterministic.
  fault-hooks        src/router must not reference net::FaultInjector
                     or include net/fault.hh: routers see faults only
                     through the router/fault_hooks.hh interface, so
                     the router layer stays independent of the net
                     layer's fault machinery.
  one-flag-parser    src/ and tools/ parse options only through the
                     core/flags.hh tables: == "--x" / != "-h" outside
                     them is a hand-written parser (a bare "--" is not).
  unused-suppression a "// lint-allow: <rule>" comment that no longer
                     suppresses anything (or names an unknown rule) is
                     itself a finding, so suppressions cannot outlive
                     the code they excused.

A finding can be suppressed by appending "// lint-allow: <rule>" to
the offending line (unused-suppression findings cannot be
suppressed). Exit status is 0 when clean, 1 when findings exist, 2 on
usage errors.

Usage: orion_lint.py [--root DIR] [--list-rules]
"""

import argparse
import re
import sys
from pathlib import Path

CXX_SUFFIXES = {".cc", ".hh"}
SCAN_DIRS = ("src", "tools", "bench", "tests")

# orion_analyze.py's fixture mini-roots violate rules on purpose.
SKIP_PREFIXES = ("tests/analysis/fixtures/",)

KNOWN_RULES = (
    "nondeterminism", "naked-new", "file-scope-state", "include-guard",
    "stdout-in-library", "stat-printing", "fault-hooks", "naked-stderr",
    "one-flag-parser", "unused-suppression",
)

# Directories whose modules must be re-entrant (parallel sweeps run
# one Simulation per worker thread).
REENTRANT_DIRS = ("src/sim", "src/router", "src/power", "src/net")

# Directories where any direct printing is treated as stat-printing:
# these modules own the counters, and stats must flow through the
# MetricsRegistry or the Report, never ad-hoc prints.
STAT_DIRS = ("src/net/", "src/router/")

SUPPRESS_RE = re.compile(r"//\s*lint-allow:\s*([\w-]+)")

NONDET_PATTERNS = [
    (re.compile(r"\brand\s*\("), "rand()"),
    (re.compile(r"\bsrand\s*\("), "srand()"),
    (re.compile(r"\btime\s*\(\s*(NULL|nullptr|0)?\s*\)"), "time()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (
        re.compile(
            r"chrono::(system_clock|steady_clock|high_resolution_clock)"
        ),
        "wall-clock std::chrono",
    ),
]

# Stderr-targeted writes that bypass core/log (the structured sink
# can't mirror them). std::cerr is always stderr; fprintf/fputs only
# when the stream argument is literally stderr.
STDERR_RE = re.compile(
    r"std::cerr|\bfprintf\s*\(\s*stderr\b|\bfputs\s*\([^;]*,\s*stderr\s*\)"
)
# The logger backend owns the real stderr writes.
STDERR_EXEMPT = ("src/core/log.cc",)

NEW_RE = re.compile(r"\bnew\s+[A-Za-z_(]")
DELETE_RE = re.compile(r"\bdelete\b(\s*\[\s*\])?\s+[A-Za-z_*(]")
STDOUT_RE = re.compile(r"std::cout|std::cerr|\bfprintf\s*\(|(?<![\w:])printf\s*\(")
PRAGMA_ONCE_RE = re.compile(r"^\s*#\s*pragma\s+once\b")
IFNDEF_RE = re.compile(r"^\s*#\s*ifndef\s+(\w+)")
DEFINE_RE = re.compile(r"^\s*#\s*define\s+(\w+)\s*$")

# File-scope mutable state: a column-0 "static"/"thread_local"
# declaration that is not const/constexpr and is a variable (no
# parameter list before the initializer/semicolon => not a function).
FILE_SCOPE_RE = re.compile(r"^(static|thread_local)\b")
FILE_SCOPE_OK_RE = re.compile(
    r"^(static|thread_local)\s+(thread_local\s+)?(const\b|constexpr\b)"
)

# Router-layer isolation: routers must observe faults only through the
# router/fault_hooks.hh interface, never the net-layer injector.
FAULT_INJECTOR_RE = re.compile(r"\bFaultInjector\b")
FAULT_INCLUDE_RE = re.compile(r'#\s*include\s*"net/fault\.hh"')

# A comparison against an option-name string literal: a hand-written
# command-line parser outside the flag module.
FLAG_COMPARE_RE = re.compile(
    r'[!=]=\s*"--?[A-Za-z][\w-]*"|"--?[A-Za-z][\w-]*"\s*[!=]=')
FLAG_MODULE = ("src/core/flags.",)


def strip_comments_and_strings(line, in_block_comment):
    """Blank out string/char literals and comments, preserving length.

    Returns (cleaned_line, in_block_comment_after)."""
    out = []
    i = 0
    n = len(line)
    state = "block" if in_block_comment else "code"
    while i < n:
        c = line[i]
        nxt = line[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                break  # rest of line is a comment
            if c == "/" and nxt == "*":
                state = "block"
                i += 2
                continue
            if c in "\"'":
                state = "dquote" if c == '"' else "squote"
                out.append(" ")
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                i += 2
            else:
                i += 1
        else:  # inside a literal
            if c == "\\":
                i += 2
                continue
            if (state == "dquote" and c == '"') or (
                state == "squote" and c == "'"
            ):
                state = "code"
            i += 1
    return "".join(out), state == "block"


class Linter:
    def __init__(self, root):
        self.root = root
        self.findings = []
        # lint-allow sites and the subset that suppressed something.
        self.suppression_sites = []  # (rel str, lineno, rule)
        self.used_suppressions = set()  # (rel str, lineno)

    def report(self, path, lineno, rule, message, raw_line):
        m = SUPPRESS_RE.search(raw_line)
        rel = path.relative_to(self.root)
        if m and m.group(1) == rule:
            self.used_suppressions.add((rel.as_posix(), lineno))
            return
        self.findings.append(f"{rel}:{lineno}: [{rule}] {message}")

    def lint_file(self, path):
        rel = path.relative_to(self.root).as_posix()
        try:
            raw = path.read_text(encoding="utf-8")
        except UnicodeDecodeError:
            self.findings.append(f"{rel}:1: [encoding] not valid UTF-8")
            return
        lines = raw.splitlines()

        for idx, line in enumerate(lines, 1):
            m = SUPPRESS_RE.search(line)
            if m:
                self.suppression_sites.append((rel, idx, m.group(1)))

        in_src = rel.startswith("src/")
        is_rng = rel.startswith("src/sim/rng")
        reentrant = rel.startswith(REENTRANT_DIRS)
        flag_parsing = (rel.startswith(("src/", "tools/"))
                        and not rel.startswith(FLAG_MODULE))
        in_block = False
        cleaned_lines = []
        for line in lines:
            cleaned, in_block = strip_comments_and_strings(line, in_block)
            cleaned_lines.append(cleaned)

        for idx, (line, code) in enumerate(zip(lines, cleaned_lines), 1):
            # The option name is a literal, blanked in the cleaned
            # line; the comparison itself must be code.
            if (flag_parsing and re.search(r"[!=]=", code)
                    and FLAG_COMPARE_RE.search(line)):
                self.report(
                    path, idx, "one-flag-parser",
                    "option names are parsed only by core/flags.hh "
                    "tables; declare a Row instead of comparing", line)

            if in_src and not is_rng:
                for pat, what in NONDET_PATTERNS:
                    if pat.search(code):
                        self.report(
                            path, idx, "nondeterminism",
                            f"{what} breaks run determinism; draw from "
                            "sim::Rng (seeded) instead", line)
            elif not in_src:
                # Outside src/ wall-clock timing is legitimate, but
                # non-seeded randomness still poisons reproducibility.
                for pat, what in NONDET_PATTERNS[:4]:
                    if pat.search(code):
                        self.report(
                            path, idx, "nondeterminism",
                            f"{what} is not seedable; use sim::Rng with "
                            "an explicit seed", line)

            if in_src:
                if NEW_RE.search(code):
                    self.report(
                        path, idx, "naked-new",
                        "naked new; use std::make_unique/containers",
                        line)
                if DELETE_RE.search(code):
                    self.report(
                        path, idx, "naked-new",
                        "naked delete; owning pointers must be smart",
                        line)
                if STDOUT_RE.search(code):
                    if rel.startswith(STAT_DIRS):
                        self.report(
                            path, idx, "stat-printing",
                            "network/router code must not print stats; "
                            "register them with telemetry::"
                            "MetricsRegistry or report them via Report",
                            line)
                    elif (STDERR_RE.search(code)
                          and rel not in STDERR_EXEMPT):
                        # Stderr-specific guidance beats the generic
                        # rule (and never double-reports one line).
                        self.report(
                            path, idx, "naked-stderr",
                            "diagnostics must go through core/log "
                            "(log::diag mirrors stderr to the "
                            "structured sink)", line)
                    else:
                        self.report(
                            path, idx, "stdout-in-library",
                            "library code must not write to stdout/"
                            "stderr; take an std::ostream&", line)
            elif rel.startswith("tools/"):
                if STDERR_RE.search(code):
                    self.report(
                        path, idx, "naked-stderr",
                        "tool diagnostics must go through core/log "
                        "(log::diag mirrors stderr to the structured "
                        "sink)", line)

            if rel.startswith("src/router/"):
                # The include path is a string literal, so it is
                # blanked in the cleaned line; match the raw line.
                if FAULT_INJECTOR_RE.search(code):
                    self.report(
                        path, idx, "fault-hooks",
                        "router code must not reference FaultInjector; "
                        "go through router/fault_hooks.hh", line)
                if FAULT_INCLUDE_RE.search(line):
                    self.report(
                        path, idx, "fault-hooks",
                        "router code must not include net/fault.hh; "
                        "go through router/fault_hooks.hh", line)

            if reentrant and FILE_SCOPE_RE.match(code):
                if (not FILE_SCOPE_OK_RE.match(code)
                        and not self._is_function_decl(code)):
                    self.report(
                        path, idx, "file-scope-state",
                        "mutable file-scope state breaks re-entrancy "
                        "(parallel sweep workers share this)", line)

        if path.suffix == ".hh":
            self._check_guard(path, rel, lines, cleaned_lines)

    @staticmethod
    def _is_function_decl(code):
        """A '(' before any '=' or ';' means a function, not data."""
        stop = len(code)
        for ch in ("=", ";"):
            p = code.find(ch)
            if p != -1:
                stop = min(stop, p)
        return "(" in code[:stop]

    def _check_guard(self, path, rel, lines, cleaned_lines):
        for idx, line in enumerate(cleaned_lines, 1):
            if PRAGMA_ONCE_RE.match(line):
                self.report(
                    path, idx, "include-guard",
                    "#pragma once is forbidden; use an "
                    "ORION_..._HH guard", lines[idx - 1])

        parts = Path(rel).with_suffix("").parts
        if parts[0] == "src":
            parts = parts[1:]
        expected = "ORION_" + "_".join(
            re.sub(r"\W", "_", p).upper() for p in parts) + "_HH"

        ifndef = None
        ifndef_line = 0
        for idx, line in enumerate(cleaned_lines, 1):
            m = IFNDEF_RE.match(line)
            if m:
                ifndef, ifndef_line = m.group(1), idx
                break
        if ifndef is None:
            self.report(path, 1, "include-guard",
                        f"missing include guard {expected}", lines[0])
            return
        if ifndef != expected:
            self.report(
                path, ifndef_line, "include-guard",
                f"guard {ifndef} does not match path (expected "
                f"{expected})", lines[ifndef_line - 1])
            return
        define_ok = any(
            DEFINE_RE.match(l) and DEFINE_RE.match(l).group(1) == expected
            for l in cleaned_lines[ifndef_line - 1:ifndef_line + 2])
        if not define_ok:
            self.report(
                path, ifndef_line, "include-guard",
                f"#ifndef {expected} has no matching #define",
                lines[ifndef_line - 1])

    def check_suppressions(self):
        """Flag lint-allow comments that no longer earn their keep.

        Emitted directly (never themselves suppressible): a stale
        suppression silently re-arms the rule it once excused, so it
        must be deleted, not excused again.
        """
        for rel, lineno, rule in self.suppression_sites:
            if rule not in KNOWN_RULES:
                self.findings.append(
                    f"{rel}:{lineno}: [unused-suppression] lint-allow "
                    f"names unknown rule '{rule}'")
            elif (rel, lineno) not in self.used_suppressions:
                self.findings.append(
                    f"{rel}:{lineno}: [unused-suppression] stale "
                    f"suppression: no '{rule}' finding is triggered "
                    "here anymore; delete the lint-allow comment")

    def run(self):
        files = []
        for d in SCAN_DIRS:
            base = self.root / d
            if not base.is_dir():
                continue
            files.extend(
                p for p in sorted(base.rglob("*"))
                if p.suffix in CXX_SUFFIXES
                and not p.relative_to(self.root).as_posix().startswith(
                    SKIP_PREFIXES))
        for f in files:
            self.lint_file(f)
        self.check_suppressions()
        return files


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=None,
                    help="repository root (default: parent of this "
                         "script's directory)")
    ap.add_argument("--list-rules", action="store_true",
                    help="print the rule names and exit")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule in KNOWN_RULES:
            print(rule)
        return 0

    root = Path(args.root).resolve() if args.root else \
        Path(__file__).resolve().parent.parent
    if not (root / "src").is_dir():
        print(f"orion_lint: no src/ under {root}", file=sys.stderr)
        return 2

    linter = Linter(root)
    files = linter.run()
    for finding in linter.findings:
        print(finding)
    status = 1 if linter.findings else 0
    print(f"orion_lint: {len(files)} files scanned, "
          f"{len(linter.findings)} finding(s)")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
