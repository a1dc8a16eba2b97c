"""Tests for the command-line interface."""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import event, given, settings
from hypothesis import strategies as st

from twep.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def runner():
    return CliRunner()


class TestVerifyCommand:
    def test_six_pair_passes(self, runner):
        result = runner.invoke(main, ["verify", "six-pair"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["errors_checked"] == 19
        assert report["k_min"] == 2
        assert report["pass"] is True

    def test_nine_pair_passes(self, runner):
        result = runner.invoke(main, ["verify", "nine-pair"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["errors_checked"] == 352
        assert report["k_min"] == 1

    def test_unknown_protocol_exits_two(self, runner):
        result = runner.invoke(main, ["verify", "no-such"])
        assert result.exit_code == 2
        assert "six-pair" in result.stderr

    def test_parametric_family_via_m(self, runner):
        result = runner.invoke(main, ["verify", "hamming", "--m", "4"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["errors_checked"] == 46

    def test_hamming_requires_m(self, runner):
        result = runner.invoke(main, ["verify", "hamming"])
        assert result.exit_code == 2

    def test_m_rejected_elsewhere(self, runner):
        result = runner.invoke(main, ["verify", "six-pair", "--m", "3"])
        assert result.exit_code == 2

    def test_hamming_m12_is_admitted(self, runner):
        result = runner.invoke(main, ["verify", "hamming", "--m", "12"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert (report["errors_checked"], report["k_min"]) == (12286, 4082)


class TestSimulateCommand:
    def test_golden_transcript_bisection(self, runner):
        result = runner.invoke(
            main, ["simulate", "hamming-m3", "--error", "IIYIIII"]
        )
        assert result.exit_code == 0
        assert result.output == (FIXTURES / "hamming_m3_y3.jsonl").read_text()

    def test_golden_transcript_parity_checks(self, runner):
        result = runner.invoke(
            main, ["simulate", "hamming-m3", "--error", "IIIIXII"]
        )
        assert result.exit_code == 0
        assert result.output == (FIXTURES / "hamming_m3_x5.jsonl").read_text()

    def test_identity_run(self, runner):
        result = runner.invoke(main, ["simulate", "six-pair", "--error", "IIIIII"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        final = json.loads(lines[-1])
        assert final["k_out"] == 2
        assert final["correction"] == "IIIIII"

    def test_parse_error_exits_two(self, runner):
        result = runner.invoke(main, ["simulate", "six-pair", "--error", "IIQIII"])
        assert result.exit_code == 2

    def test_weight_violation_exits_two(self, runner):
        result = runner.invoke(main, ["simulate", "six-pair", "--error", "XXIIII"])
        assert result.exit_code == 2
        assert "weight" in result.stderr

    def test_length_violation_exits_two(self, runner):
        result = runner.invoke(main, ["simulate", "six-pair", "--error", "XII"])
        assert result.exit_code == 2

    def test_two_party_view(self, runner):
        from twep.pauli import parse as parse_pauli

        result = runner.invoke(
            main, ["simulate", "hamming-m3", "--error", "IIYIIII", "--two-party"]
        )
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        for line in lines[:-1]:
            record = json.loads(line)
            assert record["alice"] == 0
            op = parse_pauli(record["op"], 2)
            offset = sum(xe * ze for xe, ze in zip(op.x, op.z)) % 2
            assert record["bob"] == (offset + record["outcome"]) % 2

    def test_determinism(self, runner):
        first = runner.invoke(main, ["simulate", "nine-pair", "--error", "XIIIIIZII"])
        second = runner.invoke(main, ["simulate", "nine-pair", "--error", "XIIIIIZII"])
        assert first.output == second.output


class TestGreedyCommand:
    def test_six_one_passes(self, runner):
        result = runner.invoke(main, ["greedy", "--n", "6", "--t", "1"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["pass"] is True
        assert payload["max_steps"] <= payload["step_bound"] == 7
        assert payload["balance_ok"] is True

    def test_size_limit_exits_two(self, runner):
        result = runner.invoke(main, ["greedy", "--n", "30", "--t", "1"])
        assert result.exit_code == 2


class TestBoundsCommand:
    def test_threshold_rows(self, runner):
        result = runner.invoke(
            main, ["bounds", "--n", "9..10", "--t", "2", "--format", "csv"]
        )
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "n,t,hamming_k,singleton_k,gv_k,thm2_k"
        assert lines[1].split(",")[:3] == ["9", "2", "-1"]
        assert lines[2].split(",")[:3] == ["10", "2", "1"]

    def test_json_default(self, runner):
        result = runner.invoke(main, ["bounds", "--n", "6", "--t", "1"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload[0]["hamming_k"] == 1

    def test_malformed_range_exits_two(self, runner):
        result = runner.invoke(main, ["bounds", "--n", "5...9", "--t", "1"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("t_range", ["-1", "-2..-1"])
    def test_negative_t_only_is_an_empty_grid(self, runner, t_range):
        result = runner.invoke(main, ["bounds", "--n", "2..3", "--t", t_range])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "empty grid" in result.stderr

    def test_negative_t_rows_are_skipped(self, runner):
        result = runner.invoke(
            main, ["bounds", "--n", "2..3", "--t", "-2..0", "--format", "csv"]
        )
        assert result.exit_code == 0
        assert result.output.splitlines()[1:] == ["2,0,2,2,2,0", "3,0,3,3,3,1"]

    def test_output_file(self, runner, tmp_path):
        target = tmp_path / "bounds.csv"
        result = runner.invoke(
            main,
            ["bounds", "--n", "5..6", "--t", "1", "--format", "csv", "--output", str(target)],
        )
        assert result.exit_code == 0
        assert target.read_text().startswith("n,t,")


class TestRatesCommand:
    def test_endpoint_row(self, runner):
        result = runner.invoke(main, ["rates", "--points", "51", "--format", "csv"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert len(lines) == 52
        assert lines[1] == "0.0,1.0,1.0"

    def test_json_fields(self, runner):
        result = runner.invoke(main, ["rates", "--points", "11"])
        payload = json.loads(result.output)
        assert set(payload[0]) == {"x", "rate_2epp", "rate_gv", "h"}

    def test_determinism(self, runner):
        a = runner.invoke(main, ["rates", "--points", "101", "--format", "csv"])
        b = runner.invoke(main, ["rates", "--points", "101", "--format", "csv"])
        assert a.output == b.output


class TestMiCommand:
    def test_first_ten(self, runner):
        result = runner.invoke(main, ["mi", "--count", "10"])
        assert result.exit_code == 0
        assert json.loads(result.output) == [1, 2, 4, 7, 12, 21, 37, 67, 124, 234]

    def test_csv_form(self, runner):
        result = runner.invoke(main, ["mi", "--count", "3", "--format", "csv"])
        assert result.output.splitlines() == ["i,mi", "0,1", "1,2", "2,4"]

    def test_bad_count_exits_two(self, runner):
        result = runner.invoke(main, ["mi", "--count", "0"])
        assert result.exit_code == 2


class TestOutputPath:
    """An --output path that cannot be written is a usage error: exit 2 and
    one line on stderr, whichever command writes it."""

    COMMANDS = (
        ["bounds", "--n", "3", "--t", "1"],
        ["rates", "--points", "3"],
        ["mi", "--count", "3"],
    )

    @pytest.mark.parametrize("args", COMMANDS, ids=lambda a: a[0])
    def test_missing_directory_exits_two(self, runner, tmp_path, args):
        target = tmp_path / "missing" / "out.json"
        result = runner.invoke(main, [*args, "--output", str(target)])
        assert result.exit_code == 2
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert len(result.stderr.splitlines()) == 1
        assert str(target) in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("args", COMMANDS, ids=lambda a: a[0])
    def test_directory_path_exits_two(self, runner, tmp_path, args):
        result = runner.invoke(main, [*args, "--output", str(tmp_path)])
        assert result.exit_code == 2
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert len(result.stderr.splitlines()) == 1
        assert result.stdout == ""


class TestGoldenStdout:
    """stdout and exit codes as the per-error verifier printed them; the
    outcome-tree walk must reproduce them byte for byte, the greedy
    balance-violation lines (one per reached outcome branch) included."""

    @pytest.mark.parametrize(
        "name",
        [
            "six-pair",
            "hamming-m3",
            "hamming-m4",
            "hamming-m5",
            "nine-pair",
            "qutrit-four",
            "hamming-m6",
        ],
    )
    def test_verify(self, runner, name):
        args = ["hamming", "--m", "6"] if name == "hamming-m6" else [name]
        result = runner.invoke(main, ["verify", *args])
        assert result.exit_code == 0
        golden = FIXTURES / "golden" / f"verify_{name}.out"
        assert result.stdout_bytes == golden.read_bytes()

    @pytest.mark.parametrize(
        "n, t, code",
        [(7, 1, 0), (9, 1, 0), (10, 1, 0), (5, 2, 1), (6, 2, 0), (8, 2, 1), (9, 2, 1)],
    )
    def test_greedy(self, runner, n, t, code):
        result = runner.invoke(main, ["greedy", "--n", str(n), "--t", str(t)])
        assert result.exit_code == code
        golden = FIXTURES / "golden" / f"greedy_n{n}_t{t}.out"
        assert result.stdout_bytes == golden.read_bytes()


class TestSizeGates:
    @pytest.mark.parametrize(
        "m, message",
        [
            (16, "196606 errors on 65535 registers needs about 4751 MB"),
            (40, "the limit is 128 MB"),
        ],
        ids=["m16", "m40"],
    )
    def test_huge_hamming_exits_two_before_building(self, runner, m, message):
        start = time.perf_counter()
        result = runner.invoke(main, ["verify", "hamming", "--m", str(m)])
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 2
        assert len(result.stderr.splitlines()) == 1
        assert message in result.stderr

    @pytest.mark.parametrize(
        "args",
        [["verify", "six-pair", "--cap", "5"], ["greedy", "--n", "5", "--t", "1", "--cap", "5"]],
        ids=["verify", "greedy"],
    )
    def test_cap_option_is_a_usage_error(self, runner, args):
        """The walk-size gate is the only size limit; there is no --cap."""
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "No such option '--cap'" in result.stderr

    @pytest.mark.parametrize("n, t", [(0, 0), (-1, 0), (3, 5), (3, -1)])
    def test_bad_greedy_parameters_exit_two(self, runner, n, t):
        result = runner.invoke(main, ["greedy", "--n", str(n), "--t", str(t)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1


_RANGES = st.one_of(
    st.integers(-3, 8).map(str),
    st.tuples(st.integers(-3, 8), st.integers(-3, 8)).map(lambda r: f"{r[0]}..{r[1]}"),
)
_FORMATS = st.sampled_from([[], ["--format", "csv"]])
_INVOCATIONS = st.one_of(
    st.tuples(st.integers(-2, 6), st.integers(-2, 6)).map(
        lambda nt: ["greedy", "--n", str(nt[0]), "--t", str(nt[1])]
    ),
    st.tuples(_RANGES, _RANGES, _FORMATS).map(
        lambda a: ["bounds", "--n", a[0], "--t", a[1], *a[2]]
    ),
    st.tuples(st.integers(-2, 40), _FORMATS).map(
        lambda a: ["mi", "--count", str(a[0]), *a[1]]
    ),
    st.tuples(st.integers(-2, 100), _FORMATS).map(
        lambda a: ["rates", "--points", str(a[0]), *a[1]]
    ),
    st.one_of(st.integers(-1, 6), st.integers(14, 64)).map(
        lambda m: ["verify", "hamming", "--m", str(m)]
    ),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(args=_INVOCATIONS)
def test_exit_codes_hold_under_fuzzing(args):
    """Any drawn invocation exits 0, 1 or 2 without an uncaught exception."""
    result = CliRunner().invoke(main, args)
    event(f"{args[0]} exit {result.exit_code}")
    assert result.exit_code in (0, 1, 2), (args, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), args
