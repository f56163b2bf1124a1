"""CLI entry points: the one-shot client, server arg handling, and the
repository tools under ``tools/``."""

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


def _run_table5_stages(*options):
    """tools/table5_stages.py in a fresh process; its JSON last line."""
    from pathlib import Path

    tool = Path(__file__).resolve().parents[1] / "tools" / "table5_stages.py"
    completed = subprocess.run(
        [sys.executable, str(tool), *options],
        capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


class TestTable5Stages:
    """The in-process stage probe: both call shapes run and check out
    against a local call, and call counts repeat exactly."""

    @pytest.mark.parametrize("policy", ["full", "delta"])
    def test_times_every_stage(self, policy):
        report = _run_table5_stages("--policy", policy, "--seeds", "3")
        (stages,) = report["sets"]
        assert report["policy"] == policy
        assert set(stages) == {
            "encode", "decode", "build_response", "reply_decode", "restore", "sum"
        }

    @pytest.mark.parametrize("policy", ["full", "delta"])
    def test_call_counts_repeat_across_processes(self, policy):
        options = ("--policy", policy, "--seeds", "3", "--count")
        first, second = _run_table5_stages(*options), _run_table5_stages(*options)
        assert first["unit"] == "mean calls"
        assert first["sets"] == second["sets"]
        assert first["sets"][0]["build_response"] > 0

    @pytest.mark.parametrize("count", [False, True], ids=["clock", "count"])
    def test_body_bytes_repeat_across_processes(self, count):
        options = ("--seeds", "3") + (("--count",) if count else ())
        first, second = _run_table5_stages(*options), _run_table5_stages(*options)
        (sizes,) = first["bytes"]
        assert set(sizes) == {"request", "reply"}
        assert sizes["request"] > 0 and sizes["reply"] > 0
        assert first["bytes"] == second["bytes"]


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

    # Exit status: a gain on the --claim, when there is one, and no
    # regression past a BENCHMARK.json bound on any workload.

    tool = _load_ab_tool()
    bounds = {"call_p50_us": 0.25, "rss_mb": 0.1}
    parent_p50 = [200.0, 204.0, 198.0, 201.0, 203.0, 199.0, 202.0, 200.0, 197.0, 205.0]

    def table(self, p50_factor=1.0, rss_factor=1.0):
        rss = [60.0, 60.2, 59.9, 60.1, 60.0, 60.1, 59.8, 60.0, 60.2, 59.9]
        return {
            "call_p50_us": self.judge(
                self.parent_p50, [v * p50_factor for v in self.parent_p50], "lower"
            ),
            "rss_mb": self.judge(rss, [v * rss_factor for v in rss], "lower"),
        }

    def blockers(self, verdicts, failed=None, claim=None):
        failed = failed or {name: (0.0, 0.0) for name in verdicts}
        return self.tool.blockers(verdicts, self.bounds, failed, claim)

    def test_regression_inside_its_bound_does_not_block(self):
        verdicts = {"echo64_tcp": self.table(p50_factor=0.85, rss_factor=1.01)}
        assert verdicts["echo64_tcp"]["rss_mb"]["verdict"] == "regression"
        assert self.blockers(verdicts) == []

    def test_regression_past_its_bound_blocks_on_any_workload(self):
        verdicts = {
            "echo64_tcp": self.table(p50_factor=0.85),
            "tree_full_tcp": self.table(rss_factor=1.2),
        }
        reasons = self.blockers(verdicts)
        assert len(reasons) == 1 and reasons[0].startswith("tree_full_tcp: rss_mb")

    def test_unresolved_move_past_its_bound_blocks(self):
        # Eight of ten pairs lost, the median 30 % worse: the spread
        # leaves the verdict unresolved, the bound still blocks.
        change = [v * 1.3 for v in self.parent_p50]
        change[0], change[1] = 150.0, 150.0
        verdicts = {
            "echo64_tcp": self.table(p50_factor=0.85),
            "echo64_shm": {
                "call_p50_us": self.judge(self.parent_p50, change, "lower")
            },
        }
        shm = verdicts["echo64_shm"]["call_p50_us"]
        assert (shm["losses"], shm["verdict"]) == (8, "unresolved")
        assert self.blockers(verdicts) == [
            "echo64_shm: call_p50_us got worse beyond its 25.0% bound"
        ]

    def test_better_median_never_blocks(self):
        verdicts = {"echo64_tcp": self.table(p50_factor=0.5, rss_factor=0.5)}
        assert self.blockers(verdicts) == []

    def test_only_the_claimed_workload_carries_the_claim(self):
        verdicts = {
            "echo64_tcp": self.table(),
            "echo64_shm": self.table(p50_factor=0.5),
        }
        reasons = self.blockers(verdicts, claim=("echo64_tcp", "call_p50_us"))
        assert reasons == ["echo64_tcp: call_p50_us is unresolved, not a gain"]
        assert self.blockers(verdicts, claim=("echo64_shm", "call_p50_us")) == []

    def test_a_claim_on_another_metric(self):
        # The p50 gained and the claimed metric did not: the claim decides.
        verdicts = {"tree_full_tcp": self.table(p50_factor=0.5)}
        assert self.blockers(verdicts, claim=("tree_full_tcp", "rss_mb")) == [
            "tree_full_tcp: rss_mb is unresolved, not a gain"
        ]
        verdicts = {"tree_full_tcp": self.table(rss_factor=0.5)}
        assert self.blockers(verdicts, claim=("tree_full_tcp", "rss_mb")) == []

    def test_no_claim_is_decided_by_bounds_and_failures_alone(self):
        steady = {"echo64_tcp": self.table(), "tree_full_tcp": self.table()}
        assert self.blockers(steady) == []
        worse = {"echo64_tcp": self.table(), "tree_full_tcp": self.table(rss_factor=1.2)}
        assert self.blockers(worse) == [
            "tree_full_tcp: rss_mb got worse beyond its 10.0% bound"
        ]
        failed = {"echo64_tcp": (0.0, 1e-4), "tree_full_tcp": (0.0, 0.0)}
        assert self.blockers(steady, failed) == ["echo64_tcp: a larger share of calls failed"]

    def test_more_failed_calls_block(self):
        verdicts = {"echo64_tcp": self.table(p50_factor=0.85)}
        failed = {"echo64_tcp": (0.0, 1e-4)}
        assert self.blockers(verdicts, failed) == [
            "echo64_tcp: a larger share of calls failed"
        ]

    def test_workload_flag_repeats(self):
        args = self.tool.build_parser().parse_args(
            ["A", "B", "--workload", "echo64_tcp", "--workload", "echo64_shm"]
        )
        assert args.workload == ["echo64_tcp", "echo64_shm"]
        assert args.claim is None

    def test_claim_flag_names_a_workload_and_a_metric(self):
        parser = self.tool.build_parser()
        args = parser.parse_args(
            ["A", "B", "--workload", "tree_full_tcp",
             "--claim", "tree_full_tcp:wire_bytes_per_call"]
        )
        assert args.claim == ("tree_full_tcp", "wire_bytes_per_call")
        with pytest.raises(SystemExit):
            parser.parse_args(["A", "B", "--workload", "w", "--claim", "no-metric"])
