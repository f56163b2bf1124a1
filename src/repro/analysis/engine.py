"""The lint engine: collect files, build models, run rules, filter.

``analyze_paths`` is the one entry point the CLI, the CI gate test, and
ad-hoc callers share. Importing this module pulls in every ``rules_*``
module, which registers the rules as a side effect.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding, Severity
from repro.analysis.model import ModuleModel, ProjectModel, build_module
from repro.analysis.rulebase import ALL_RULES, RULES_BY_CODE, Rule

# Importing the rule modules populates ALL_RULES.
from repro.analysis import rules_concurrency  # noqa: F401  (registration import)
from repro.analysis import rules_contract  # noqa: F401
from repro.analysis import rules_restore  # noqa: F401
from repro.analysis import rules_runtime  # noqa: F401
from repro.analysis import rules_serde  # noqa: F401

#: Directory names never descended into.
SKIP_DIRS = frozenset({"__pycache__", ".git", ".hg", ".venv", "node_modules"})

#: Synthetic codes emitted by the engine itself (not rules).
PARSE_ERROR_CODE = "NRMI000"
NAKED_SUPPRESSION_CODE = "NRMI008"


@dataclass
class AnalysisResult:
    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files: int = 0

    @property
    def errors(self) -> int:
        return sum(1 for f in self.findings if f.severity >= Severity.ERROR)

    @property
    def warnings(self) -> int:
        return sum(1 for f in self.findings if f.severity == Severity.WARNING)

    @property
    def exit_code(self) -> int:
        """Non-zero iff at least one finding reached error severity."""
        return 1 if self.errors else 0


def collect_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted, de-duplicated .py list."""
    seen: Set[str] = set()
    collected: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            if path not in seen:
                seen.add(path)
                collected.append(path)
            continue
        if not os.path.isdir(path):
            raise FileNotFoundError(path)
        for root, dirs, files in os.walk(path):
            dirs[:] = sorted(
                d
                for d in dirs
                if d not in SKIP_DIRS
                and not d.endswith(".egg-info")
                and not d.startswith(".")
            )
            for name in sorted(files):
                if not name.endswith(".py"):
                    continue
                full = os.path.join(root, name)
                if full not in seen:
                    seen.add(full)
                    collected.append(full)
    return sorted(collected)


def build_project(files: Sequence[str]) -> Tuple[ProjectModel, List[Finding]]:
    project = ProjectModel()
    parse_failures: List[Finding] = []
    for path in files:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            project.modules.append(build_module(path, source))
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            parse_failures.append(
                Finding(
                    code=PARSE_ERROR_CODE,
                    message=f"cannot analyze file: {exc}",
                    path=path,
                    line=getattr(exc, "lineno", 0) or 0,
                    severity=Severity.ERROR,
                    rule="parse-error",
                    family="engine",
                )
            )
    return project, parse_failures


def _engine_findings(module: ModuleModel) -> Iterable[Finding]:
    for line in module.naked_suppressions:
        yield Finding(
            code=NAKED_SUPPRESSION_CODE,
            message="suppression comment has no justification and is "
            "ignored; write '# nrmi: disable=CODE -- <reason>'",
            path=module.path,
            line=line,
            severity=Severity.WARNING,
            rule="naked-suppression",
            family="engine",
            hint="append ' -- <why this is safe>' to the directive",
        )


def _selected_rules(
    select: Optional[Sequence[str]], ignore: Optional[Sequence[str]]
) -> List[Rule]:
    unknown = [
        code
        for code in list(select or []) + list(ignore or [])
        if code not in RULES_BY_CODE
        and code not in (PARSE_ERROR_CODE, NAKED_SUPPRESSION_CODE)
    ]
    if unknown:
        raise KeyError(f"unknown rule code(s): {', '.join(sorted(set(unknown)))}")
    rules = list(ALL_RULES)
    if select:
        wanted = set(select)
        rules = [r for r in rules if r.code in wanted]
    if ignore:
        dropped = set(ignore)
        rules = [r for r in rules if r.code not in dropped]
    return rules


def analyze_project(
    project: ProjectModel,
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> AnalysisResult:
    """Run the selected rules over an already-built project."""
    rules = _selected_rules(select, ignore)
    raw: List[Finding] = []
    for module in project.modules:
        raw.extend(_engine_findings(module))
        for descriptor in rules:
            if descriptor.scope == "module":
                raw.extend(descriptor.check(module))
    for descriptor in rules:
        if descriptor.scope == "project":
            raw.extend(descriptor.check(project))

    by_path = {module.path: module for module in project.modules}
    result = AnalysisResult(files=len(project.modules))
    seen: Set[Tuple] = set()
    for finding in sorted(raw, key=Finding.sort_key):
        key = (finding.path, finding.line, finding.col, finding.code, finding.message)
        if key in seen:
            continue
        seen.add(key)
        module = by_path.get(finding.path)
        if module is not None and module.is_suppressed(finding.code, finding.line):
            result.suppressed.append(finding)
        else:
            result.findings.append(finding)
    return result


def analyze_paths(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> AnalysisResult:
    """Lint *paths* (files and/or directory trees) and return the result."""
    files = collect_files(paths)
    project, parse_failures = build_project(files)
    result = analyze_project(project, select=select, ignore=ignore)
    result.findings = sorted(
        result.findings + parse_failures, key=Finding.sort_key
    )
    return result
