"""Rule plumbing: the Rule descriptor and the @rule registration decorator.

A rule is a pure function from a model to findings, wrapped with its
identity (code, name, family, default severity, scope). Module-scoped
rules run once per file; project-scoped rules run once per lint run and
see the whole program (the NRMI04x thread-role checks).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.analysis.findings import CODE_PATTERN, Finding, Severity

FAMILY_CONTRACT = "contract"
FAMILY_SERDE = "serializability"
FAMILY_RESTORE = "copy-restore"
FAMILY_RUNTIME = "runtime"
FAMILY_CONCURRENCY = "concurrency"

FAMILIES = (
    FAMILY_CONTRACT,
    FAMILY_SERDE,
    FAMILY_RESTORE,
    FAMILY_RUNTIME,
    FAMILY_CONCURRENCY,
)


@dataclass
class Rule:
    code: str
    name: str
    family: str
    severity: Severity
    scope: str  # "module" | "project"
    doc: str
    check: Callable = field(default=None, repr=False)

    def at(
        self,
        path: str,
        where,
        message: str,
        hint: str = "",
        severity: Optional[Severity] = None,
        extra=None,
    ) -> Finding:
        """Build a finding anchored at *where* (an AST node or line number)."""
        if isinstance(where, ast.AST):
            line = getattr(where, "lineno", 0)
            col = getattr(where, "col_offset", 0)
        else:
            line, col = int(where), 0
        return Finding(
            code=self.code,
            message=message,
            path=path,
            line=line,
            col=col,
            severity=severity or self.severity,
            hint=hint,
            rule=self.name,
            family=self.family,
            extra=extra,
        )


#: Global registry, populated by importing the rules_* modules.
ALL_RULES: List[Rule] = []
RULES_BY_CODE: Dict[str, Rule] = {}


def rule(code: str, name: str, family: str, severity: Severity, scope: str = "module"):
    """Register a rule function under a stable NRMI0xx code."""
    if not CODE_PATTERN.match(code):
        raise ValueError(f"malformed rule code {code!r}")
    if family not in FAMILIES:
        raise ValueError(f"unknown rule family {family!r}")
    if code in RULES_BY_CODE:
        raise ValueError(f"duplicate rule code {code}")

    def decorate(fn: Callable) -> Rule:
        descriptor = Rule(
            code=code,
            name=name,
            family=family,
            severity=severity,
            scope=scope,
            doc=(fn.__doc__ or "").strip(),
            check=fn,
        )
        ALL_RULES.append(descriptor)
        RULES_BY_CODE[code] = descriptor
        return descriptor

    return decorate
