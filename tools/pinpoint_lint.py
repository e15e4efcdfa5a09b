#!/usr/bin/env python3
"""pinpoint_lint: the repo-invariant linter.

Every architecture invariant that used to live only in prose
(docs/ARCHITECTURE.md) or in a reviewer's head is a Rule here: a
mechanical check with a one-line rationale that is printed on every
violation. The linter runs as a CTest test and a CI job, so a PR
cannot merge while an invariant is broken by construction.

Suppression: append ``// lint: allow(<rule-id>)`` to the offending
line, or put it alone on the line directly above. Suppressions are
greppable, so every exemption stays reviewable.

Self-test: ``--self-test`` checks the fixtures under tests/lint/ —
every ``<rule>_bad.cc`` fixture must trigger exactly its rule and
every ``<rule>_ok.cc`` fixture must lint clean. The linter is
itself tested; a rule that silently stops matching fails CI.

Exit codes: 0 clean, 1 violations (or self-test failure), 2 usage.
"""

import argparse
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# Directories scanned in repo mode. build/ and third-party trees are
# never walked; tests/lint/ fixtures are deliberate violations and
# only read by --self-test.
SCAN_DIRS = ["src", "tools", "bench", "examples", "tests"]
FIXTURE_DIR = Path("tests") / "lint"
# pinpoint_analyze's fixture mini-trees are deliberate violations
# too (stale suppressions included); never repo-scanned.
ANALYZE_FIXTURE_DIR = Path("tests") / "devtools" / "fixtures"
SOURCE_SUFFIXES = {".cc", ".cpp", ".h", ".hpp"}

SUPPRESS_RE = re.compile(r"//\s*lint:\s*allow\(([\w,\s-]+)\)")


def strip_comments_and_strings(text):
    """Masks comments, string literals, and char literals with
    spaces, preserving line structure so reported line numbers match
    the file. Rules therefore never fire on prose or quoted text —
    only the suppression scan reads raw lines."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out.append(" ")
                i += 1
        elif c == "/" and nxt == "*":
            out.append("  ")
            i += 2
            while i < n and not (
                text[i] == "*" and i + 1 < n and text[i + 1] == "/"
            ):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append("  ")
                i += 2
        elif c == '"' or c == "'":
            quote = c
            out.append(" ")
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out.append("  ")
                    i += 2
                else:
                    out.append("\n" if text[i] == "\n" else " ")
                    i += 1
            if i < n:
                out.append(" ")
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


class Violation:
    def __init__(self, path, line, rule, detail):
        self.path = path
        self.line = line
        self.rule = rule
        self.detail = detail

    def render(self, root):
        try:
            rel = self.path.resolve().relative_to(root.resolve())
        except ValueError:
            rel = self.path
        return (
            f"{rel}:{self.line}: [{self.rule.rule_id}] {self.detail}\n"
            f"    rationale: {self.rule.rationale}\n"
            f"    suppress with: // lint: allow({self.rule.rule_id})"
        )


class Rule:
    """One invariant. Subclasses implement check(path, raw_lines,
    masked_lines) -> [(line_no, detail)]."""

    rule_id = ""
    rationale = ""

    def applies_to(self, rel):
        raise NotImplementedError

    def check(self, rel, raw_lines, masked_lines):
        raise NotImplementedError


def _in_dirs(rel, dirs):
    return any(rel.parts and rel.parts[0] == d for d in dirs)


class RawNumberParseRule(Rule):
    rule_id = "raw-number-parse"
    rationale = (
        "text-to-number conversion goes through core/parse strict "
        "helpers; std::stoX/strtoX/atoX silently accept '12abc', "
        "leading whitespace, and '+' and scatter the error wording"
    )
    ALLOWED = {Path("src/core/parse.cc")}
    PATTERN = re.compile(
        r"std\s*::\s*sto(?:i|l|ll|ul|ull|f|d|ld)\s*\(|"
        r"\b(?:strtol|strtoll|strtoul|strtoull|strtod|strtof|"
        r"atoi|atol|atoll|atof|sscanf)\s*\("
    )

    def applies_to(self, rel):
        return rel not in self.ALLOWED

    def check(self, rel, raw_lines, masked_lines):
        hits = []
        for no, line in enumerate(masked_lines, 1):
            m = self.PATTERN.search(line)
            if m:
                hits.append(
                    (
                        no,
                        f"raw number parse "
                        f"'{m.group(0).rstrip('(').strip()}' outside "
                        f"core/parse",
                    )
                )
        return hits


class NondeterminismSourceRule(Rule):
    rule_id = "nondeterminism-source"
    rationale = (
        "the simulator is virtual-time and every export is "
        "byte-deterministic; wall-clock dates and unseeded "
        "randomness in src/ would leak host state into results "
        "(steady_clock for perf measurement is fine)"
    )
    # time( must be the libc wall-clock call shape — time(),
    # time(0), time(NULL), time(nullptr) — so member functions named
    # time (view.time(i), or the declaration TimeNs time(size_t))
    # never match.
    PATTERN = re.compile(
        r"std\s*::\s*random_device|\brandom_device\b|"
        r"\bs?rand\s*\(|std\s*::\s*time\s*\(|"
        r"(?<![\w.>:])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)|"
        r"system_clock"
    )

    def applies_to(self, rel):
        return _in_dirs(rel, ["src"])

    def check(self, rel, raw_lines, masked_lines):
        hits = []
        for no, line in enumerate(masked_lines, 1):
            m = self.PATTERN.search(line)
            if m:
                hits.append(
                    (
                        no,
                        f"nondeterminism source "
                        f"'{m.group(0).rstrip('(').strip()}' in src/",
                    )
                )
        return hits


class UnorderedExportIterationRule(Rule):
    rule_id = "unordered-export-iteration"
    rationale = (
        "export/to_string paths must not iterate unordered "
        "containers — hash order would leak into output bytes; "
        "collect keys, sort, then emit (see trace/slice.cc)"
    )
    # Export-path files: anything whose name or path says it renders
    # bytes for the outside world.
    PATH_HINTS = (
        "csv",
        "json",
        "export",
        "chrome_trace",
        "report",
        "format",
        "to_string",
    )
    # Single-line declarations only (the template argument list may
    # not span lines for the linter to see the name) — a documented
    # limitation; reference parameters are captured too.
    DECL_RE = re.compile(
        r"unordered_(?:map|set)\s*<[^;=\n]*?>\s*&?\s*(\w+)\s*[;,)({=]"
    )
    USING_RE = re.compile(
        r"using\s+(\w+)\s*=\s*std\s*::\s*unordered_(?:map|set)\b"
    )

    def applies_to(self, rel):
        if not _in_dirs(rel, ["src"]):
            return False
        name = rel.as_posix().lower()
        return rel.parts[1] == "cli" or any(
            h in name for h in self.PATH_HINTS
        )

    def check(self, rel, raw_lines, masked_lines):
        text = "\n".join(masked_lines)
        names = set(self.DECL_RE.findall(text))
        names |= set(self.USING_RE.findall(text))
        if not names:
            return []
        alt = "|".join(sorted(re.escape(n) for n in names))
        iter_re = re.compile(
            rf"for\s*\([^;()]*:\s*(?:\w+\.)?({alt})\s*\)|"
            rf"\b({alt})\s*\.\s*c?begin\s*\("
        )
        hits = []
        for no, line in enumerate(masked_lines, 1):
            m = iter_re.search(line)
            if m:
                name = m.group(1) or m.group(2)
                hits.append(
                    (
                        no,
                        f"iteration over unordered container "
                        f"'{name}' in an export path",
                    )
                )
        return hits


class PositionalStrategyIndexRule(Rule):
    rule_id = "positional-strategy-index"
    rationale = (
        "per-Strategy arrays are indexed by relief::Strategy "
        "enumerator, never by integer literal — inserting kPeerOnly "
        "in PR 6 shifted every positional index and shipped two "
        "out-of-bounds bugs"
    )
    # Names bound to a per-Strategy array: declared as
    # std::array<ReliefReport, ...> or assigned from the APIs that
    # return one.
    DECL_RE = re.compile(
        r"std\s*::\s*array\s*<\s*(?:relief\s*::\s*)?ReliefReport\b"
        r"[^;]*?>\s*&?\s*(\w+)\s*[;({=]"
    )
    ASSIGN_RE = re.compile(
        r"(?:auto|const\s+auto)\s*(?:&\s*|\s+)(\w+)\s*=\s*[^;]*?\b"
        r"(?:plan_all|relief_all)\s*\("
    )

    def applies_to(self, rel):
        return True

    def check(self, rel, raw_lines, masked_lines):
        text = "\n".join(masked_lines)
        names = set(self.DECL_RE.findall(text))
        names |= set(self.ASSIGN_RE.findall(text))
        if not names:
            return []
        alt = "|".join(sorted(re.escape(n) for n in names))
        idx_re = re.compile(rf"\b({alt})\s*\[\s*(\d+)\s*\]")
        hits = []
        for no, line in enumerate(masked_lines, 1):
            for m in idx_re.finditer(line):
                hits.append(
                    (
                        no,
                        f"positional index [{m.group(2)}] into "
                        f"per-Strategy array '{m.group(1)}' (use "
                        f"Strategy::k... enumerator)",
                    )
                )
        return hits


class InferencePlanPurityRule(Rule):
    rule_id = "inference-plan-purity"
    rationale = (
        "the serving driver replays forward-only plans; a "
        "backward/optimizer reference in src/runtime/request_stream* "
        "would let training work leak into inference sessions and "
        "break the zoo-wide no-backward property the latency "
        "fixtures pin"
    )
    PATTERN = re.compile(
        r"\bkBackward\b|\bkOptimizer\b|\bemit_backward\b|"
        r"\bemit_optimizer\b|\bsgd_momentum\b"
    )

    def applies_to(self, rel):
        return rel.as_posix().startswith(
            "src/runtime/request_stream"
        )

    def check(self, rel, raw_lines, masked_lines):
        hits = []
        for no, line in enumerate(masked_lines, 1):
            m = self.PATTERN.search(line)
            if m:
                hits.append(
                    (
                        no,
                        f"training-phase reference '{m.group(0)}' "
                        f"in the serving driver",
                    )
                )
        return hits


class ResultFieldSerializationRule(Rule):
    rule_id = "result-field-serialization"
    rationale = (
        "ScenarioResult has exactly one serialization — the column "
        "table in src/sweep/export.cc, which the CSV and JSON "
        "writers and the record codec each loop over (schema salt "
        "over every column, %.6f doubles); streaming a metric field "
        "anywhere else in src/ creates a second byte format the "
        "cache and spill files cannot invalidate"
    )
    # The one blessed codec/exporter site.
    ALLOWED = {Path("src/sweep/export.cc")}
    # Names bound to a ScenarioResult: declarations, references, and
    # parameters. Single-line declarations only (same documented
    # limitation as the other variable-tracking rules).
    DECL_RE = re.compile(
        r"(?:sweep\s*::\s*)?\bScenarioResult\b[^;=\n(]*?"
        r"(?:&&?|\*)?\s*(\w+)\s*[;,)({=]"
    )
    # Identity/bookkeeping fields may be printed by anyone (the CLI
    # prints r.status and r.scenario.id() in tables); only the
    # metric payload is codec-owned.
    EXEMPT_FIELDS = {"scenario", "status", "error"}
    EMIT_RE = re.compile(r"<<|\b(?:f|sn?)?printf\s*\(")

    def applies_to(self, rel):
        return _in_dirs(rel, ["src"]) and rel not in self.ALLOWED

    def check(self, rel, raw_lines, masked_lines):
        text = "\n".join(masked_lines)
        names = set(self.DECL_RE.findall(text))
        names.discard("")
        if not names:
            return []
        alt = "|".join(sorted(re.escape(n) for n in names))
        field_re = re.compile(rf"\b({alt})\s*\.\s*(\w+)\b")
        hits = []
        for no, line in enumerate(masked_lines, 1):
            if not self.EMIT_RE.search(line):
                continue
            for m in field_re.finditer(line):
                if m.group(2) in self.EXEMPT_FIELDS:
                    continue
                hits.append(
                    (
                        no,
                        f"ScenarioResult field "
                        f"'{m.group(1)}.{m.group(2)}' serialized "
                        f"outside the sweep/export codec",
                    )
                )
        return hits


class StaleSuppressionRule(Rule):
    rule_id = "stale-suppression"
    rationale = (
        "every // lint: allow(<rule>) must still shield a live "
        "violation; once the code is fixed the comment reads as an "
        "active exemption that silently disables the rule for "
        "whatever lands on that line next"
    )

    def applies_to(self, rel):
        return True

    def check(self, rel, raw_lines, masked_lines):
        hits = []
        for no, line in enumerate(raw_lines, 1):
            m = SUPPRESS_RE.search(line)
            if not m:
                continue
            covered = {no}
            if SUPPRESS_RE.sub("", line).strip() in ("", "//"):
                covered.add(no + 1)
            for rule_id in {
                tok.strip() for tok in m.group(1).split(",")
            }:
                if rule_id == self.rule_id:
                    # Self-referential; only a meta-linter could
                    # judge it, so it is never reported stale.
                    continue
                rule = RULES_BY_ID.get(rule_id)
                if rule is None:
                    hits.append(
                        (
                            no,
                            f"suppression names unknown rule "
                            f"'{rule_id}'",
                        )
                    )
                    continue
                live = rule.applies_to(rel) and any(
                    hit_no in covered
                    for hit_no, _ in rule.check(
                        rel, raw_lines, masked_lines
                    )
                )
                if not live:
                    hits.append(
                        (
                            no,
                            f"rule '{rule_id}' no longer matches "
                            f"the suppressed line; remove the "
                            f"allow comment",
                        )
                    )
        return hits


RULES = [
    RawNumberParseRule(),
    NondeterminismSourceRule(),
    UnorderedExportIterationRule(),
    PositionalStrategyIndexRule(),
    InferencePlanPurityRule(),
    ResultFieldSerializationRule(),
    StaleSuppressionRule(),
]
RULES_BY_ID = {r.rule_id: r for r in RULES}


def suppressions_for(raw_lines):
    """Maps line number -> set of rule ids suppressed there. A
    comment on its own line also covers the next line."""
    supp = {}
    for no, line in enumerate(raw_lines, 1):
        m = SUPPRESS_RE.search(line)
        if not m:
            continue
        ids = {tok.strip() for tok in m.group(1).split(",")}
        supp.setdefault(no, set()).update(ids)
        if SUPPRESS_RE.sub("", line).strip() in ("", "//"):
            supp.setdefault(no + 1, set()).update(ids)
    return supp


def lint_file(path, rel, rules):
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as err:
        print(f"error: cannot read {path}: {err}", file=sys.stderr)
        return []
    raw_lines = text.splitlines()
    masked_lines = strip_comments_and_strings(text).splitlines()
    # A trailing newline-less last line keeps both in step.
    while len(masked_lines) < len(raw_lines):
        masked_lines.append("")
    supp = suppressions_for(raw_lines)
    violations = []
    for rule in rules:
        if not rule.applies_to(rel):
            continue
        for no, detail in rule.check(rel, raw_lines, masked_lines):
            if rule.rule_id in supp.get(no, set()):
                continue
            violations.append(Violation(path, no, rule, detail))
    return violations


def iter_source_files(root):
    for d in SCAN_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES:
                continue
            rel = path.relative_to(root)
            if FIXTURE_DIR in rel.parents or rel.parts[:2] == (
                "tests",
                "lint",
            ):
                continue
            if ANALYZE_FIXTURE_DIR in rel.parents:
                continue
            yield path, rel


def run_repo_lint(root, paths):
    files = []
    if paths:
        for p in paths:
            path = Path(p)
            if not path.is_absolute():
                path = root / path
            if not path.exists():
                print(f"error: no such file {p}", file=sys.stderr)
                return 2
            try:
                rel = path.resolve().relative_to(root.resolve())
            except ValueError:
                rel = Path(path.name)
            files.append((path, rel))
    else:
        files = list(iter_source_files(root))

    violations = []
    for path, rel in files:
        violations.extend(lint_file(path, rel, RULES))
    for v in violations:
        print(v.render(root))
    if violations:
        rules = sorted({v.rule.rule_id for v in violations})
        print(
            f"pinpoint_lint: {len(violations)} violation(s) of "
            f"rule(s): {', '.join(rules)}"
        )
        return 1
    print(f"pinpoint_lint: {len(files)} files clean")
    return 0


def run_self_test(root):
    fixture_dir = root / FIXTURE_DIR
    if not fixture_dir.is_dir():
        print(f"error: missing {fixture_dir}", file=sys.stderr)
        return 1
    failures = []
    seen_rules = set()
    for path in sorted(fixture_dir.glob("*.cc")):
        stem = path.stem
        if stem.endswith("_bad"):
            rule_id, expect_bad = stem[: -len("_bad")], True
        elif stem.endswith("_ok"):
            rule_id, expect_bad = stem[: -len("_ok")], False
        else:
            failures.append(
                f"{path.name}: fixture must end _bad.cc or _ok.cc"
            )
            continue
        rule_id = rule_id.replace("_", "-")
        rule = RULES_BY_ID.get(rule_id)
        if rule is None:
            failures.append(f"{path.name}: unknown rule '{rule_id}'")
            continue
        seen_rules.add(rule_id)
        # Fixtures lint under the rule's own scope: pretend the file
        # lives at the path recorded in its first line, so
        # path-scoped rules (src/-only etc.) see the right location.
        first = path.read_text(encoding="utf-8").splitlines()
        rel = None
        if first and first[0].startswith("// lint-fixture-path:"):
            rel = Path(first[0].split(":", 1)[1].strip())
        if rel is None:
            failures.append(
                f"{path.name}: missing '// lint-fixture-path:' header"
            )
            continue
        hits = lint_file(path, rel, [rule])
        if expect_bad and not hits:
            failures.append(
                f"{path.name}: expected [{rule_id}] violation, "
                f"linted clean"
            )
        elif not expect_bad and hits:
            failures.append(
                f"{path.name}: expected clean, got "
                f"{[f'{v.rule.rule_id}:{v.line}' for v in hits]}"
            )
        # A bad fixture must trigger only its own rule when linted
        # with the full rule set at its pretend path (otherwise the
        # fixture is sloppier than the rule it documents).
        if expect_bad:
            all_hits = lint_file(path, rel, RULES)
            extra = {
                v.rule.rule_id for v in all_hits
            } - {rule_id}
            if extra:
                failures.append(
                    f"{path.name}: also triggers {sorted(extra)}"
                )
    missing = set(RULES_BY_ID) - seen_rules
    if missing:
        failures.append(
            f"rules without fixtures: {sorted(missing)}"
        )
    if failures:
        for f in failures:
            print(f"self-test FAIL: {f}")
        return 1
    print(
        f"pinpoint_lint self-test: {len(RULES)} rules, "
        f"{len(list(fixture_dir.glob('*.cc')))} fixtures OK"
    )
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="pinpoint repo-invariant linter"
    )
    parser.add_argument(
        "--root", default=REPO_ROOT, type=Path, help="repo root"
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="check the tests/lint fixtures instead of the repo",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule id and rationale",
    )
    parser.add_argument(
        "paths", nargs="*", help="lint only these files"
    )
    args = parser.parse_args()

    if args.list_rules:
        for rule in RULES:
            print(f"{rule.rule_id}: {rule.rationale}")
        return 0
    if args.self_test:
        return run_self_test(args.root)
    return run_repo_lint(args.root, args.paths)


if __name__ == "__main__":
    sys.exit(main())
