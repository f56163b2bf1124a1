"""The repro.analysis linter: rules, engine, suppressions, CLI, JSON.

Fixture modules under ``tests/analysis_fixtures/`` carry ``# expect:
CODE`` markers on the exact lines the analyzer must anchor findings to;
the tests below diff the real findings against those markers, so every
rule code is pinned to both a file and a line.
"""

from __future__ import annotations

import ast
import json
import pathlib
import re
import subprocess
import sys

import pytest

from repro.analysis import (
    ALL_RULES,
    RULES_BY_CODE,
    Severity,
    analyze_paths,
    project,
    rules_runtime,
    to_json_payload,
)
from repro.analysis.cli import main as lint_main
from repro.analysis.engine import NAKED_SUPPRESSION_CODE, PARSE_ERROR_CODE

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "analysis_fixtures"

_EXPECT_RE = re.compile(r"#\s*expect:\s*(NRMI\d{3})")
_NEAR_MISS_RE = re.compile(r"#\s*near-miss:\s*((?:NRMI\d{3}[,\s]*)+)")


def expected_markers(*paths: pathlib.Path):
    """(relative_path, code, line) triples from # expect: comments."""
    expected = []
    for path in paths:
        for lineno, text in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            for match in _EXPECT_RE.finditer(text):
                expected.append((str(path), match.group(1), lineno))
    return sorted(expected)


def near_miss_markers(*paths: pathlib.Path):
    """(relative_path, code, line) triples from # near-miss: comments."""
    claims = []
    for path in paths:
        for lineno, text in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            for match in _NEAR_MISS_RE.finditer(text):
                for code in re.findall(r"NRMI\d{3}", match.group(1)):
                    claims.append((str(path), code, lineno))
    return sorted(claims)


def found_markers(result):
    return sorted((f.path, f.code, f.line) for f in result.findings)


class TestFixtureFindings:
    @pytest.mark.parametrize(
        "fixture",
        [
            "contract_bad.py",
            "serde_bad.py",
            "restore_bad.py",
            "netloop_bad.py",
            "ringspin_bad.py",
            "concurrency_bad.py",
        ],
    )
    def test_exact_codes_and_lines(self, fixture):
        path = FIXTURES / fixture
        result = analyze_paths([str(path)])
        assert found_markers(result) == expected_markers(path)

    def test_locks_fixture_with_suppression(self):
        path = FIXTURES / "locks_bad.py"
        result = analyze_paths([str(path)])
        assert found_markers(result) == expected_markers(path)
        assert [(f.code, f.line) for f in result.suppressed] == [("NRMI031", 43)]

    @pytest.mark.parametrize("fixture", ["clean.py", "concurrency_clean.py"])
    def test_clean_fixture_reports_nothing(self, fixture):
        result = analyze_paths([str(FIXTURES / fixture)])
        assert result.findings == []
        assert result.suppressed == []
        assert result.exit_code == 0

    def test_rule_coverage_is_broad(self):
        """≥10 distinct codes across all five families, all seeded."""
        seeded = {code for _, code, _ in expected_markers(*FIXTURES.rglob("*.py"))}
        assert len(seeded) >= 10
        families = {RULES_BY_CODE[code].family for code in seeded}
        assert families == {
            "contract",
            "serializability",
            "copy-restore",
            "runtime",
            "concurrency",
        }


class TestRuleLiveness:
    """Meta-test over RULES_BY_CODE: no silently-dead rules.

    Every registered rule must have (a) a bait fixture hit — an
    ``# expect:`` marker that the per-fixture tests pin to an exact
    line — and (b) a clean near-miss — a ``# near-miss:`` marker on a
    line that skirts the rule without firing it.
    """

    def test_every_rule_has_a_bait_hit(self):
        files = sorted(FIXTURES.rglob("*.py"))
        seeded = {code for _, code, _ in expected_markers(*files)}
        missing = sorted(set(RULES_BY_CODE) - seeded)
        assert not missing, f"rules with no bait fixture hit: {missing}"

    def test_every_rule_has_a_near_miss_claim(self):
        files = sorted(FIXTURES.rglob("*.py"))
        claimed = {code for _, code, _ in near_miss_markers(*files)}
        missing = sorted(set(RULES_BY_CODE) - claimed)
        assert not missing, f"rules with no clean near-miss: {missing}"

    def test_bait_hits_fire_and_near_misses_stay_silent(self):
        files = sorted(FIXTURES.rglob("*.py"))
        result = analyze_paths([str(FIXTURES)])
        fired = {(f.path, f.code, f.line) for f in result.findings}
        fired |= {(f.path, f.code, f.line) for f in result.suppressed}
        unfired = [m for m in expected_markers(*files) if m not in fired]
        assert not unfired, f"expect markers with no finding: {unfired}"
        false_positives = [
            m for m in near_miss_markers(*files) if m in fired
        ]
        assert not false_positives, (
            f"near-miss lines that fired: {false_positives}"
        )

    def test_repo_construct_rules_key_on_live_names(self):
        """The runtime and ring rules match calls by name. A name that
        nothing under ``src/repro`` defines any more (by ``def`` or as a
        module-level name) guards a construct that no longer exists."""
        defined = set()
        for path in (ROOT / "src" / "repro").rglob("*.py"):
            if "analysis" in path.relative_to(ROOT / "src" / "repro").parts:
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defined.add(node.name)
            for node in tree.body:
                targets = []
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, ast.AnnAssign):
                    targets = [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        keyed = {
            "_BLOCKING_CALLABLES": rules_runtime._BLOCKING_CALLABLES,
            "_RING_POLL_METHODS": rules_runtime._RING_POLL_METHODS,
            "RING_PRODUCER_OPS": project.RING_PRODUCER_OPS,
            "RING_CONSUMER_OPS": project.RING_CONSUMER_OPS,
        }
        dead = {
            table: sorted(names - defined)
            for table, names in keyed.items()
            if names - defined
        }
        assert not dead, f"rule tables name undefined callables: {dead}"


class TestLockGuardAliases:
    """Satellite: NRMI031's guard matcher follows lock aliases and
    RLock re-entry, so NRMI041's locksets (built on the same helpers)
    don't inherit the false positives."""

    @staticmethod
    def _lint(tmp_path, source):
        path = tmp_path / "guarded.py"
        path.write_text(source)
        return analyze_paths([str(path)], select=["NRMI031"])

    def test_alias_guard_is_recognized(self, tmp_path):
        result = self._lint(
            tmp_path,
            "import threading\n"
            "class Cell:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.total = 0\n"
            "    def bump(self):\n"
            "        lock = self._lock\n"
            "        with lock:\n"
            "            self.total += 1\n"
            "    def reset(self):\n"
            "        with self._lock:\n"
            "            self.total = 0\n",
        )
        assert result.findings == []

    def test_rlock_reentrant_sections_are_guarded(self, tmp_path):
        result = self._lint(
            tmp_path,
            "import threading\n"
            "class Cell:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.RLock()\n"
            "        self.total = 0\n"
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            with self._lock:\n"
            "                self.total += 1\n"
            "    def reset(self):\n"
            "        lock = self._lock\n"
            "        with lock:\n"
            "            self.total = 0\n",
        )
        assert result.findings == []

    def test_truly_bare_store_is_still_flagged(self, tmp_path):
        result = self._lint(
            tmp_path,
            "import threading\n"
            "class Cell:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.total = 0\n"
            "    def bump(self):\n"
            "        lock = self._lock\n"
            "        with lock:\n"
            "            self.total += 1\n"
            "    def reset(self):\n"
            "        self.total = 0\n",
        )
        assert [(f.code, f.line) for f in result.findings] == [("NRMI031", 11)]

    def test_unrelated_alias_is_not_a_guard(self, tmp_path):
        result = self._lint(
            tmp_path,
            "import threading\n"
            "class Cell:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._gate = open('/dev/null')\n"
            "        self.total = 0\n"
            "    def bump(self):\n"
            "        gate = self._gate\n"
            "        with gate:\n"
            "            self.total += 1\n"
            "    def reset(self):\n"
            "        with self._lock:\n"
            "            self.total = 0\n",
        )
        assert [f.code for f in result.findings] == ["NRMI031"]


class TestSarifOutput:
    def test_sarif_shape(self):
        from repro.analysis import to_sarif_payload

        result = analyze_paths([str(FIXTURES / "contract_bad.py")])
        payload = to_sarif_payload(result)
        assert payload["version"] == "2.1.0"
        assert payload["$schema"].endswith("sarif-schema-2.1.0.json")
        (run,) = payload["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "nrmi-lint"
        rule_ids = {r["id"] for r in driver["rules"]}
        assert rule_ids == set(RULES_BY_CODE)
        assert len(run["results"]) == len(result.findings)
        first = run["results"][0]
        assert first["ruleId"].startswith("NRMI")
        location = first["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("contract_bad.py")
        assert location["region"]["startLine"] >= 1
        assert location["region"]["startColumn"] >= 1

    def test_sarif_levels_match_severities(self):
        from repro.analysis import to_sarif_payload

        result = analyze_paths([str(FIXTURES / "concurrency_bad.py")])
        payload = to_sarif_payload(result)
        by_rule = {r["ruleId"]: r["level"] for r in payload["runs"][0]["results"]}
        assert by_rule["NRMI043"] == "error"
        assert by_rule["NRMI041"] == "warning"

    def test_sarif_carries_in_source_suppressions(self):
        from repro.analysis import to_sarif_payload

        result = analyze_paths([str(FIXTURES / "locks_bad.py")])
        payload = to_sarif_payload(result)
        suppressed = [
            r
            for r in payload["runs"][0]["results"]
            if r.get("suppressions")
        ]
        assert len(suppressed) == 1
        assert suppressed[0]["suppressions"] == [{"kind": "inSource"}]

    def test_cli_format_sarif(self, capsys):
        assert lint_main(["--format", "sarif", str(FIXTURES / "clean.py")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"

    def test_json_flag_conflicts_with_other_formats(self, capsys):
        code = lint_main(
            ["--json", "--format", "sarif", str(FIXTURES / "clean.py")]
        )
        assert code == 2

    def test_json_schema_is_unchanged_by_sarif(self):
        """--json stays byte-stable: schema v1, same fields, same order."""
        result = analyze_paths([str(FIXTURES / "locks_bad.py")])
        payload = to_json_payload(result)
        assert payload["schema"] == 1
        assert sorted(payload) == [
            "findings", "schema", "summary", "suppressed", "tool",
        ]


class TestEngine:
    def test_naked_suppression_is_flagged_and_ignored(self, tmp_path):
        source = (
            "import threading\n"
            "class Serializable: pass\n"
            "class Cell(Serializable):\n"
            "    def __init__(self):\n"
            "        self.lock = threading.Lock()  # nrmi: disable=NRMI011\n"
        )
        path = tmp_path / "naked.py"
        path.write_text(source)
        result = analyze_paths([str(path)])
        codes = {f.code for f in result.findings}
        assert "NRMI011" in codes  # suppression without reason is ineffective
        assert NAKED_SUPPRESSION_CODE in codes
        assert result.suppressed == []

    def test_justified_suppression_silences(self, tmp_path):
        source = (
            "import threading\n"
            "class Serializable: pass\n"
            "class Cell(Serializable):\n"
            "    def __init__(self):\n"
            "        self.lock = threading.Lock()"
            "  # nrmi: disable=NRMI011 -- rebuilt in __nrmi_resolve__\n"
        )
        path = tmp_path / "justified.py"
        path.write_text(source)
        result = analyze_paths([str(path)])
        assert result.findings == []
        assert [f.code for f in result.suppressed] == ["NRMI011"]

    def test_file_level_suppression(self, tmp_path):
        source = (
            "# nrmi: disable-file=NRMI011 -- fixture: fields rebuilt on load\n"
            "import threading\n"
            "class Serializable: pass\n"
            "class A(Serializable):\n"
            "    def __init__(self):\n"
            "        self.a = threading.Lock()\n"
            "class B(Serializable):\n"
            "    def __init__(self):\n"
            "        self.b = threading.Lock()\n"
        )
        path = tmp_path / "filelevel.py"
        path.write_text(source)
        result = analyze_paths([str(path)])
        assert result.findings == []
        assert len(result.suppressed) == 2

    def test_syntax_error_becomes_parse_finding(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def nope(:\n")
        result = analyze_paths([str(path)])
        assert [f.code for f in result.findings] == [PARSE_ERROR_CODE]
        assert result.exit_code == 1

    def test_select_and_ignore(self):
        path = str(FIXTURES / "serde_bad.py")
        only_11 = analyze_paths([path], select=["NRMI011"])
        assert {f.code for f in only_11.findings} == {"NRMI011"}
        without_11 = analyze_paths([path], ignore=["NRMI011"])
        assert "NRMI011" not in {f.code for f in without_11.findings}

    def test_unknown_code_raises(self):
        with pytest.raises(KeyError):
            analyze_paths([str(FIXTURES / "clean.py")], select=["NRMI999"])

    def test_findings_are_sorted_and_deduplicated(self):
        result = analyze_paths([str(FIXTURES)])
        keys = [(f.path, f.line, f.col, f.code) for f in result.findings]
        assert keys == sorted(keys)
        assert len({(f.path, f.line, f.code, f.message) for f in result.findings}) == len(
            result.findings
        )


class TestJsonOutput:
    def test_schema_shape(self):
        result = analyze_paths([str(FIXTURES / "locks_bad.py")])
        payload = to_json_payload(result)
        assert payload["schema"] == 1
        assert payload["tool"] == "nrmi-lint"
        assert payload["summary"]["errors"] == 0
        assert payload["summary"]["warnings"] == 1
        assert payload["summary"]["suppressed"] == 1
        assert payload["summary"]["exit_code"] == 0
        (finding,) = payload["findings"]
        for field in ("code", "severity", "path", "line", "col", "message",
                      "hint", "rule", "family"):
            assert field in finding
        assert finding["code"] == "NRMI031"
        assert finding["severity"] == "warning"

    def test_json_round_trips(self):
        result = analyze_paths([str(FIXTURES / "contract_bad.py")])
        encoded = json.dumps(to_json_payload(result), sort_keys=True)
        assert json.loads(encoded)["summary"]["errors"] == result.errors


class TestCli:
    def test_exit_zero_on_clean(self, capsys):
        assert lint_main([str(FIXTURES / "clean.py")]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_exit_one_on_errors(self, capsys):
        assert lint_main([str(FIXTURES / "contract_bad.py")]) == 1
        assert "NRMI001" in capsys.readouterr().out

    def test_warnings_do_not_fail_the_exit_code(self, capsys):
        assert lint_main([str(FIXTURES / "locks_bad.py")]) == 0
        assert "NRMI031" in capsys.readouterr().out

    def test_usage_error_on_missing_path(self, capsys):
        assert lint_main(["definitely/not/a/path"]) == 2

    def test_usage_error_on_unknown_code(self, capsys):
        assert lint_main(["--select", "NRMI999", str(FIXTURES / "clean.py")]) == 2

    def test_usage_error_on_no_paths(self, capsys):
        assert lint_main([]) == 2

    def test_json_flag(self, capsys):
        assert lint_main(["--json", str(FIXTURES / "clean.py")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["findings"] == 0

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.code in out

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--list-rules"],
            capture_output=True,
            text=True,
            cwd=ROOT,
            env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0
        assert "NRMI041" in proc.stdout


class TestRuleRegistry:
    def test_families_and_severities(self):
        assert len(ALL_RULES) >= 20
        for rule in ALL_RULES:
            assert re.match(r"^NRMI\d{3}$", rule.code)
            assert rule.scope in ("module", "project")
            assert isinstance(rule.severity, Severity)
            assert rule.doc  # every rule documents itself

    def test_docs_catalogue_matches_the_registry(self):
        text = (ROOT / "docs" / "static_analysis.md").read_text(encoding="utf-8")
        rows = {
            match.group(1): (match.group(2), match.group(3))
            for match in re.finditer(
                r"^\| (NRMI\d{3}) \| (error|warning) \| ([a-z-]+) \|",
                text,
                re.MULTILINE,
            )
        }
        registry = {
            code: (rule.severity.label, rule.name)
            for code, rule in RULES_BY_CODE.items()
        }
        assert rows == registry

    def test_introspection_hooks_exist(self):
        from repro.serde.kinds import code_like_type_names, primitive_type_names
        from repro.serde.registry import global_registry

        assert "function" in code_like_type_names()
        assert "int" in primitive_type_names()
        names = global_registry.registered_names()
        assert isinstance(names, frozenset)


class TestInterfaceMethodsRegression:
    """Satellite: interface_methods must not count arbitrary callables."""

    def test_nested_class_and_callable_attr_excluded(self):
        import functools

        class Contract:
            def ping(self): ...

            class Nested:
                pass

            refresh = functools.partial(print)

        from repro.nrmi.interfaces import interface_methods, is_remote_callable

        assert interface_methods(Contract) == frozenset({"ping"})
        assert not is_remote_callable(Contract.Nested)
        assert not is_remote_callable(Contract.refresh)

    def test_classmethod_and_staticmethod_still_count(self):
        class Contract:
            def plain(self): ...

            @classmethod
            def cls_method(cls): ...

            @staticmethod
            def static_method(): ...

        from repro.nrmi.interfaces import interface_methods

        assert interface_methods(Contract) == frozenset(
            {"plain", "cls_method", "static_method"}
        )

    def test_callables_only_interface_is_rejected(self):
        import functools

        class OnlyCallables:
            refresh = functools.partial(print)

        from repro.errors import RemoteError
        from repro.nrmi.interfaces import interface_methods

        with pytest.raises(RemoteError):
            interface_methods(OnlyCallables)
