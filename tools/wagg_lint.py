#!/usr/bin/env python3
"""wagg_lint: house-rule linter for invariants the generic tools can't see.

Rules (see README "Correctness tooling" for the catalogue and rationale):

  stats-struct  New ``struct FooStats`` definitions outside src/obs/ are
                rejected: hot-path metrics belong in obs::Registry (named
                counters/gauges/histograms), not in ad-hoc stat structs —
                the ROADMAP's standing rule since the telemetry spine
                landed. Pre-registry result-report structs (computed after
                the fact, returned by value, no cross-thread mutation) are
                grandfathered by name below.

  wall-clock    Deterministic code (all of src/) must not read wall-clock
                time or C-library randomness: std::chrono::system_clock,
                rand()/srand(), time(...), std::random_device. Timings use
                the monotonic util::Clock; seeded streams use util::rng.
                Plan digests are compared across runs and machines, so a
                wall-clock or nondeterministic-seed dependency is a
                correctness bug, not a style issue.

  naked-new     No naked new/delete in src/: ownership goes through
                make_unique/make_shared/containers. The rare justified use
                (a private constructor make_shared cannot reach) carries an
                allow comment with its reason.

  raw-sync      Raw std::mutex / std::condition_variable / std::lock_guard /
                std::unique_lock / std::scoped_lock are forbidden in src/
                outside util/mutex.h: synchronized code uses the annotated
                util::Mutex / util::MutexLock / util::CondVar wrappers so
                Clang's thread-safety analysis sees every lock.

  class-grid    ClassGrid (and including conflict/class_grid.h) is forbidden
                outside src/conflict/: the per-class endpoint grids are the
                private substrate of ConflictIndex's diff-maintained row
                cache, and an outside reader could observe rows mid-patch or
                bypass the cache's exactness invariant. Other layers go
                through ConflictIndex (ConflictIndex::of for a transient
                from-scratch build). The one
                allowed exception (mst/point_grid.h borrows the cell_key
                mixer only) carries an allow comment.

  cold-solve    Calls to power_control_feasible( are allowed only in
                src/sinr/, src/schedule/ledger.cpp and
                src/schedule/verify.cpp: deciding a slot and choosing its
                powers is one decision, made by the slot ledger (which falls
                back to the cold solve on a miss) or by the verifier. Any
                other caller re-solves a slot repair already certified —
                take the certificate's powers instead.

  stage-clock   Calls to Clock::now( / ms_since( are forbidden in src/dynamic/,
                src/core/ and src/conflict/conflict_index.cpp: the planner's
                stages bill their timing fields (EpochTimings, StageTimings,
                ConflictIndexStats::maintain_ms) from obs::StageSpan, the one
                stage clock, so the fields and the span tree measure the same
                intervals by construction. A private timer there would bill
                an interval no span shows.

Suppression: a line (or the line directly above it) containing
``wagg-lint: allow(<rule>)`` suppresses that rule on that line. Every allow
should carry a short justification after the closing parenthesis.

Usage:
  wagg_lint.py --root <repo>   lint <repo>/src
  wagg_lint.py --self-test     run every rule against its fixture files
  wagg_lint.py FILE...         lint specific files (fixture runner / ad hoc)

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# Result-report structs that predate obs::Registry: filled once per
# run/epoch on one thread and returned by value — not mutable hot-path
# telemetry, so they stay. New *Stats types must register metrics instead.
GRANDFATHERED_STATS = {
    "RunningStats",        # util: Welford accumulator, a math helper
    "BatchStats",          # runtime: per-batch result summary
    "SessionStats",        # runtime: per-session result summary
    "ConflictIndexStats",  # conflict: per-epoch engine-local marks,
                           # diffed INTO registry counters by the planner
    "IncrementalMstStats",  # mst: same engine-local-marks pattern
    "PhaseStats",          # distributed: per-phase round accounting
}

ALLOW_RE = re.compile(r"wagg-lint:\s*allow\(([a-z-]+)\)")


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_code(text: str) -> list[str]:
    """Returns the file's lines with comments and string/char literals
    blanked out (structure and line numbers preserved), so rules match only
    real code tokens."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line-comment | block-comment | string | char | raw
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line-comment"
                out.append(" ")
                i += 2
                out.append(" ")
                continue
            if c == "/" and nxt == "*":
                state = "block-comment"
                out.append("  ")
                i += 2
                continue
            if c == "R" and nxt == '"':
                m = re.match(r'R"([^()\\ ]*)\(', text[i:])
                if m:
                    raw_delim = ")" + m.group(1) + '"'
                    state = "raw"
                    out.append(" " * m.end())
                    i += m.end()
                    continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == "line-comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == "block-comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif state == "string" or state == "char":
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(" ")
                i += 1
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif state == "raw":
            if text.startswith(raw_delim, i):
                state = "code"
                out.append(" " * len(raw_delim))
                i += len(raw_delim)
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
    return "".join(out).split("\n")


def allowed_rules(raw_lines: list[str], lineno: int) -> set[str]:
    """Rules suppressed on 1-based line `lineno` (same line or line above)."""
    rules = set()
    for idx in (lineno - 2, lineno - 1):  # 0-based: line above, same line
        if 0 <= idx < len(raw_lines):
            rules.update(ALLOW_RE.findall(raw_lines[idx]))
    return rules


STATS_RE = re.compile(r"\b(?:struct|class)\s+([A-Za-z_0-9]*Stats)\b")
WALL_CLOCK_RES = [
    (re.compile(r"\bsystem_clock\b"),
     "wall-clock time in deterministic code (use util::Clock)"),
    (re.compile(r"\b(?:std::)?s?rand\s*\("),
     "C-library randomness (use util::rng's seeded streams)"),
    (re.compile(r"\brandom_device\b"),
     "nondeterministic seed source (use util::rng's seeded streams)"),
    (re.compile(r"\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
     "wall-clock time in deterministic code (use util::Clock)"),
]
NEW_RE = re.compile(r"\bnew\b(?!\s*\()")  # `new (addr)` placement excluded too
DELETE_RE = re.compile(r"\bdelete\b(?!\s*[;,)\]])")  # skip `= delete;` forms
EQ_DELETE_RE = re.compile(r"=\s*delete\b")
RAW_SYNC_RE = re.compile(
    r"\bstd::(?:mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"condition_variable(?:_any)?|lock_guard|unique_lock|scoped_lock)\b")
CLASS_GRID_RE = re.compile(r"\bClassGrid\b")
# Matched on RAW lines: strip_code blanks string literals, which would hide
# the include path. Anchored so a mention in a comment cannot trip it.
CLASS_GRID_INCLUDE_RE = re.compile(
    r'^\s*#\s*include\s*["<](?:[^">]*/)?class_grid\.h[">]')
COLD_SOLVE_RE = re.compile(r"\bpower_control_feasible\s*\(")
COLD_SOLVE_ALLOWED = ("src/sinr/", "src/schedule/ledger.cpp",
                      "src/schedule/verify.cpp")
STAGE_CLOCK_RE = re.compile(r"(?:\bClock::now|\bms_since)\s*\(")
STAGE_CLOCK_SCOPE = ("src/dynamic/", "src/core/",
                     "src/conflict/conflict_index.cpp")


def lint_file(path: Path, relpath: str, rules: set[str]) -> list[Finding]:
    raw = path.read_text(encoding="utf-8")
    raw_lines = raw.split("\n")
    code_lines = strip_code(raw)
    findings: list[Finding] = []

    def report(lineno: int, rule: str, message: str) -> None:
        if rule in rules and rule not in allowed_rules(raw_lines, lineno):
            findings.append(Finding(path, lineno, rule, message))

    in_obs = relpath.startswith("src/obs/") or relpath.startswith("obs/")
    is_mutex_header = relpath.endswith("util/mutex.h")
    in_conflict = (relpath.startswith("src/conflict/") or
                   relpath.startswith("conflict/"))
    may_cold_solve = relpath.startswith(COLD_SOLVE_ALLOWED)
    stage_clocked = relpath.startswith(STAGE_CLOCK_SCOPE)

    for idx, line in enumerate(code_lines, start=1):
        if not in_obs:
            for m in STATS_RE.finditer(line):
                name = m.group(1)
                if name not in GRANDFATHERED_STATS:
                    report(idx, "stats-struct",
                           f"ad-hoc stat struct '{name}': register named "
                           "metrics in obs::Registry instead (ROADMAP rule)")
        for pattern, message in WALL_CLOCK_RES:
            if pattern.search(line):
                report(idx, "wall-clock", message)
        stripped_eq_delete = EQ_DELETE_RE.sub("", line)
        if NEW_RE.search(line):
            report(idx, "naked-new",
                   "naked 'new': use make_unique/make_shared or a container")
        if DELETE_RE.search(stripped_eq_delete):
            report(idx, "naked-new",
                   "naked 'delete': ownership must not need manual frees")
        if not is_mutex_header and RAW_SYNC_RE.search(line):
            report(idx, "raw-sync",
                   "raw std sync primitive: use the annotated util::Mutex / "
                   "util::MutexLock / util::CondVar (util/mutex.h)")
        if not in_conflict:
            if CLASS_GRID_RE.search(line):
                report(idx, "class-grid",
                       "ClassGrid outside src/conflict/: the per-class grids "
                       "are ConflictIndex's private row-cache substrate — "
                       "query through ConflictIndex (ConflictIndex::of for "
                       "a from-scratch build)")
            if CLASS_GRID_INCLUDE_RE.search(raw_lines[idx - 1]):
                report(idx, "class-grid",
                       "including conflict/class_grid.h outside "
                       "src/conflict/: query through ConflictIndex "
                       "(ConflictIndex::of for a from-scratch build)")
        if not may_cold_solve and COLD_SOLVE_RE.search(line):
            report(idx, "cold-solve",
                   "power_control_feasible outside src/sinr/, "
                   "schedule/ledger.cpp and schedule/verify.cpp: take the "
                   "powers the slot ledger certified (SlotLedger::settle "
                   "for a slot it does not cover)")
        if stage_clocked and STAGE_CLOCK_RE.search(line):
            report(idx, "stage-clock",
                   "private timer in a stage-clocked file: bill the field "
                   "from obs::StageSpan's next()/close() so the span tree "
                   "shows the same interval")
    return findings


ALL_RULES = {"stats-struct", "wall-clock", "naked-new", "raw-sync",
             "class-grid", "cold-solve", "stage-clock"}


def lint_tree(root: Path) -> list[Finding]:
    findings: list[Finding] = []
    src = root / "src"
    if not src.is_dir():
        print(f"wagg_lint: no src/ under {root}", file=sys.stderr)
        sys.exit(2)
    for path in sorted(src.rglob("*")):
        if path.suffix in (".h", ".cpp", ".cc", ".hpp"):
            rel = path.relative_to(root).as_posix()
            findings.extend(lint_file(path, rel, ALL_RULES))
    return findings


# ------------------------------------------------------------- self-test
# Fixture protocol: every file under tools/lint_fixtures/<rule>/ declares
# its expectations on line 1:
#   // wagg-lint-fixture: <rule> expect=<n> [as=<path>]
# The self-test lints the file with ONLY that rule active (fixtures may
# incidentally trip others) and asserts exactly n findings of it. The file
# lints as src/<name>, or as <path> for rules scoped to part of src/.

FIXTURE_RE = re.compile(
    r"//\s*wagg-lint-fixture:\s*([a-z-]+)\s+expect=(\d+)"
    r"(?:\s+as=(\S+))?")


def self_test(root: Path) -> int:
    fixtures = root / "tools" / "lint_fixtures"
    if not fixtures.is_dir():
        print(f"wagg_lint: no fixtures under {fixtures}", file=sys.stderr)
        return 2
    failures = 0
    checked = 0
    seen_rules = set()
    for path in sorted(fixtures.rglob("*.cpp")):
        first = path.read_text(encoding="utf-8").split("\n", 1)[0]
        m = FIXTURE_RE.search(first)
        if not m:
            print(f"FAIL {path}: missing '// wagg-lint-fixture: <rule> "
                  "expect=<n>' header")
            failures += 1
            continue
        rule, expected = m.group(1), int(m.group(2))
        if rule not in ALL_RULES:
            print(f"FAIL {path}: unknown rule '{rule}'")
            failures += 1
            continue
        seen_rules.add(rule)
        # Fixtures lint as if they lived in src/ (rel path 'src/<name>'),
        # so src-scoped rules apply.
        rel = m.group(3) or "src/" + path.name
        got = [f for f in lint_file(path, rel, {rule}) if f.rule == rule]
        checked += 1
        if len(got) != expected:
            print(f"FAIL {path}: rule {rule} expected {expected} findings, "
                  f"got {len(got)}")
            for f in got:
                print(f"  {f}")
            failures += 1
    missing = ALL_RULES - seen_rules
    if missing:
        print(f"FAIL: rules without fixtures: {sorted(missing)}")
        failures += 1
    if failures:
        print(f"wagg_lint self-test: {failures} failure(s) over "
              f"{checked} fixtures")
        return 1
    print(f"wagg_lint self-test: {checked} fixtures, "
          f"{len(seen_rules)} rules, all green")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path, default=None,
                        help="repo root; lints <root>/src")
    parser.add_argument("--self-test", action="store_true",
                        help="run the fixture suite")
    parser.add_argument("files", nargs="*", type=Path,
                        help="specific files to lint (treated as src/)")
    args = parser.parse_args()

    if args.self_test:
        root = args.root or Path(__file__).resolve().parent.parent
        return self_test(root)

    findings: list[Finding] = []
    if args.files:
        for path in args.files:
            findings.extend(lint_file(path, "src/" + path.name, ALL_RULES))
    else:
        root = args.root or Path(__file__).resolve().parent.parent
        findings.extend(lint_tree(root))

    for finding in findings:
        print(finding)
    if findings:
        print(f"wagg_lint: {len(findings)} finding(s)")
        return 1
    print("wagg_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
