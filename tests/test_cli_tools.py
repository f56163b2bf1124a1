"""CLI entry points: the one-shot client, server arg handling."""

import json
import subprocess
import sys

import pytest

from repro.core.markers import Remote
from repro.nrmi.client_main import main as client_main, render
from repro.nrmi.runtime import Endpoint
from repro.nrmi.server_main import build_parser, instantiate
from repro.transport.resolver import ChannelResolver


class CalcService(Remote):
    def add(self, a, b):
        return a + b

    def record(self, items):
        return {"count": len(items), "items": items}


@pytest.fixture
def tcp_service():
    resolver = ChannelResolver()
    server = Endpoint(name="cli-server", resolver=resolver)
    server.bind("calc", CalcService())
    address = server.serve_tcp()
    yield address
    server.close()
    resolver.close_all()


class TestClientCli:
    def test_invoke_with_json_args(self, tcp_service, capsys):
        code = client_main(
            ["--address", tcp_service, "--name", "calc",
             "--method", "add", "--args", "[19, 23]"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out) == 42

    def test_structured_args_and_result(self, tcp_service, capsys):
        code = client_main(
            ["--address", tcp_service, "--name", "calc",
             "--method", "record", "--args", '[["a", "b"]]']
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {
            "count": 2, "items": ["a", "b"]
        }

    def test_list_bindings(self, tcp_service, capsys):
        assert client_main(["--address", tcp_service, "--list"]) == 0
        assert json.loads(capsys.readouterr().out) == ["calc"]

    def test_ping(self, tcp_service, capsys):
        assert client_main(["--address", tcp_service, "--ping"]) == 0
        assert "alive" in capsys.readouterr().out

    def test_missing_method_arg(self, tcp_service, capsys):
        assert client_main(["--address", tcp_service, "--name", "calc"]) == 2

    def test_invalid_json_args(self, tcp_service):
        assert (
            client_main(
                ["--address", tcp_service, "--name", "calc",
                 "--method", "add", "--args", "not-json"]
            )
            == 2
        )

    def test_non_array_args(self, tcp_service):
        assert (
            client_main(
                ["--address", tcp_service, "--name", "calc",
                 "--method", "add", "--args", '{"a": 1}']
            )
            == 2
        )

    def test_render_falls_back_to_repr(self):
        class Odd:
            def __repr__(self):
                return "<odd>"

        assert render(Odd()) == "<odd>"


class TestServerCliParsing:
    def test_parser_requires_bind(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_instantiate(self):
        service = instantiate("repro.bench.mutators", "TreeService")
        assert type(service).__name__ == "TreeService"

    def test_instantiate_missing_attr(self):
        with pytest.raises(ValueError):
            instantiate("repro.bench.mutators", "NoSuchClass")

    def test_instantiate_missing_module(self):
        with pytest.raises(ModuleNotFoundError):
            instantiate("repro.no_such_module", "X")

    def test_cli_end_to_end_subprocess(self, tcp_service):
        """The client CLI as a real subprocess against a live server."""
        completed = subprocess.run(
            [sys.executable, "-m", "repro.nrmi.client_main",
             "--address", tcp_service, "--name", "calc",
             "--method", "add", "--args", "[1, 2]"],
            capture_output=True, text=True, timeout=60,
        )
        assert completed.returncode == 0, completed.stderr
        assert json.loads(completed.stdout) == 3


def _load_ab_tool():
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "tools" / "ab_callpath.py"
    spec = importlib.util.spec_from_file_location("ab_callpath", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestAbCallpathVerdict:
    """The pairing rule of tools/ab_callpath.py (choosing-metrics section 8)."""

    judge = staticmethod(_load_ab_tool().judge)

    def test_clear_gain_on_a_lower_is_better_metric(self):
        parent = [100, 104, 98, 101, 103, 99, 102, 100, 97, 105]
        change = [value * 0.5 for value in parent]
        verdict = self.judge(parent, change, "lower")
        assert (verdict["wins"], verdict["losses"]) == (10, 0)
        assert verdict["verdict"] == "gain"
        assert verdict["median_gap"] > verdict["parent_iqr"] > 0

    def test_nine_of_ten_is_enough_eight_is_not(self):
        parent = [100.0] * 10
        nine = [50.0] * 9 + [150.0]
        eight = [50.0] * 8 + [150.0] * 2
        assert self.judge(parent, nine, "lower")["verdict"] == "gain"
        assert self.judge(parent, eight, "lower")["verdict"] == "unresolved"

    def test_ties_count_for_neither_side(self):
        parent = [100.0] * 10
        change = [50.0] * 8 + [100.0] * 2
        verdict = self.judge(parent, change, "lower")
        assert (verdict["wins"], verdict["losses"], verdict["ties"]) == (8, 0, 2)
        assert verdict["verdict"] == "unresolved"

    def test_gap_inside_the_parents_own_spread_is_unresolved(self):
        parent = [100, 140, 90, 130, 95, 135, 105, 125, 110, 120]
        change = [value - 1 for value in parent]  # wins every pair, by nothing
        verdict = self.judge(parent, change, "lower")
        assert verdict["wins"] == 10
        assert verdict["verdict"] == "unresolved"

    def test_higher_is_better_and_regression(self):
        parent = [10.0, 10.5, 9.5, 10.2, 9.8]
        assert self.judge(parent, [v * 2 for v in parent], "higher")["verdict"] == "gain"
        assert self.judge(parent, [v / 2 for v in parent], "higher")["verdict"] == "regression"

    def test_unequal_sides_rejected(self):
        with pytest.raises(ValueError):
            self.judge([1.0], [1.0, 2.0], "lower")
