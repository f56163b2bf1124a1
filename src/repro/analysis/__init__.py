"""Static analysis for NRMI programs and for the middleware itself.

The ``rmic``/``serialver`` analogue this reproduction was missing: an
AST/introspection linter that rejects broken remote contracts,
unserializable state, copy-restore hazards, and thread-safety hazards
*before* anything hits the wire. Five rule families:

========  =================  ==============================================
NRMI00x   contract           interfaces, impl drift, fake remote members
NRMI01x   serializability    unencodable fields, walker blind spots, digests
NRMI02x   copy-restore       @no_restore mutation, escapes, mutable defaults
NRMI03x   runtime            lock discipline, net-loop and ring blocking
NRMI04x   concurrency        thread-role races, SPSC ring ownership
========  =================  ==============================================

The NRMI04x family runs on a whole-program thread-role model
(:mod:`repro.analysis.project`): methods are assigned roles (net-loop,
worker, reader-demux, client-caller, stop-finalizer) from their spawn
sites and call graph, and shared fields are checked lockset-style across
roles.

Run it as ``nrmi-lint src examples`` or ``python -m repro.analysis …``;
``--format sarif`` emits SARIF 2.1.0 for CI annotation. See
``docs/static_analysis.md`` for the full catalogue and the suppression
syntax (``# nrmi: disable=NRMI0xx -- reason``).
"""

from repro.analysis.engine import (
    AnalysisResult,
    analyze_paths,
    analyze_project,
    build_project,
    collect_files,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.project import concurrency_model
from repro.analysis.reporting import (
    render_json,
    render_sarif,
    render_text,
    to_json_payload,
    to_sarif_payload,
)
from repro.analysis.rulebase import ALL_RULES, RULES_BY_CODE, Rule

__all__ = [
    "AnalysisResult",
    "analyze_paths",
    "analyze_project",
    "build_project",
    "collect_files",
    "concurrency_model",
    "Finding",
    "Severity",
    "render_json",
    "render_sarif",
    "render_text",
    "to_json_payload",
    "to_sarif_payload",
    "ALL_RULES",
    "RULES_BY_CODE",
    "Rule",
]
