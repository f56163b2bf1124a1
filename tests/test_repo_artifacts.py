"""Repository-level artifacts: docs present, commands they promise exist."""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestDocumentsPresent:
    @pytest.mark.parametrize(
        "name",
        [
            "README.md",
            "DESIGN.md",
            "EXPERIMENTS.md",
            "CHANGELOG.md",
            "docs/wire_format.md",
            "docs/calling_semantics.md",
            "docs/architecture.md",
            "docs/reproducing.md",
        ],
    )
    def test_exists_and_nonempty(self, name):
        path = ROOT / name
        assert path.exists(), f"{name} missing"
        assert len(path.read_text(encoding="utf-8")) > 500

    def test_design_confirms_paper_match(self):
        text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
        assert "Paper-text check" in text
        assert "matches the target paper" in text

    def test_experiments_records_every_table(self):
        text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        for title_fragment in (
            "Local Execution",
            "without Restore",
            "no network",
            "two-way traffic",
            "Call-by-copy-restore",
            "Remote References",
        ):
            assert title_fragment in text, f"table {title_fragment!r} not recorded"
        assert "Methodology" in text

    def test_experiments_has_figures_and_ablations(self):
        text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        assert "Figure" in text
        assert "Ablation" in text


    def test_policy_table_names_exactly_the_valid_policies(self):
        from repro.nrmi.config import _VALID_POLICIES

        text = (ROOT / "docs/calling_semantics.md").read_text(encoding="utf-8")
        table = text.split("## Choosing a restore policy", 1)[1].split("\n\n")[1]
        named = re.findall(r"^\| `(\w+)`", table, flags=re.MULTILINE)
        assert sorted(named) == sorted(_VALID_POLICIES)


def _documented_python_m_targets():
    """Every ``python -m repro.…`` module the user-facing docs name."""
    docs = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md"]
    docs += sorted((ROOT / "docs").glob("*.md"))
    targets = set()
    for doc in docs:
        text = doc.read_text(encoding="utf-8")
        targets.update(re.findall(r"python3? -m (repro(?:\.\w+)+)", text))
    return sorted(targets)


class TestPromisedCommandsExist:
    def test_python_m_targets_resolve(self):
        import importlib.util

        targets = _documented_python_m_targets()
        assert "repro.bench.report" in targets  # the extraction still works
        for module_name in targets:
            spec = importlib.util.find_spec(module_name)
            assert spec is not None, f"docs name {module_name}, which does not exist"
            if spec.submodule_search_locations is not None:  # a package
                assert importlib.util.find_spec(f"{module_name}.__main__"), module_name
            else:
                assert hasattr(importlib.import_module(module_name), "main"), module_name

    def test_readme_examples_exist(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        for match in re.finditer(r"python (examples/\w+\.py)", readme):
            assert (ROOT / match.group(1)).exists(), match.group(1)

    def test_benchmark_files_per_table(self):
        names = {path.name for path in (ROOT / "benchmarks").glob("bench_*.py")}
        for table in range(1, 7):
            assert any(f"table{table}" in name for name in names), (
                f"no benchmark file for table {table}"
            )
        assert "bench_ablations.py" in names
        assert "bench_structures.py" in names

    def test_examples_count(self):
        examples = list((ROOT / "examples").glob("*.py"))
        assert len(examples) >= 3  # the deliverable floor; we ship more
