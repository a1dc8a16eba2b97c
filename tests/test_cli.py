"""Tests for the command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import event, given, settings
from hypothesis import strategies as st

import twep
from twep import cli
from twep.bounds import bounds_table, rate_table
from twep.cli import _grid, main
from twep.errorspace import check_budget
from twep.stabilizer import SizeLimitError

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

    def test_bounds_csv_blank_gv_when_undefined(self, runner):
        result = runner.invoke(main, ["bounds", "--n", "3", "--t", "2", "--format", "csv"])
        line = result.output.splitlines()[1]
        assert line.split(",")[4] == ""

    def test_json_default(self, runner):
        result = runner.invoke(main, ["bounds", "--n", "6", "--t", "1"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload[0]["hamming_k"] == 1

    @pytest.mark.parametrize(
        "n_range, t_range",
        [
            ("1", "0"),
            ("1..12", "0..12"),
            ("5..9", "3"),
            ("40..41", "0..25"),
            ("298..300", "140..160"),
        ],
    )
    def test_json_is_json_dumps_byte_for_byte(self, runner, n_range, t_range):
        """The JSON table is written directly; it must be what the indenting
        encoder prints, including the null gv_k of rows with 2t > n."""
        result = runner.invoke(main, ["bounds", "--n", n_range, "--t", t_range])
        assert result.exit_code == 0
        ns, ts, _ = _grid(n_range, t_range)
        expected = json.dumps(list(map(vars, bounds_table(ns, ts))), indent=2) + "\n"
        assert result.stdout_bytes == expected.encode()

    def test_malformed_range_exits_two(self, runner):
        result = runner.invoke(main, ["bounds", "--n", "5...9", "--t", "1"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("n_range", ["1..x", "5..3"])
    def test_malformed_range_is_named(self, runner, n_range):
        result = runner.invoke(main, ["bounds", "--n", n_range, "--t", "0"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"malformed range {n_range!r}; expected N or LO..HI\n"

    @pytest.mark.parametrize(
        "n_range", ["1" + "0" * 4400, "1..1" + "0" * 4400], ids=["end", "range"]
    )
    def test_a_range_end_past_the_int_digit_limit_is_a_size_error(
        self, runner, default_int_digits, n_range
    ):
        """A well-formed end that Python refuses to read for its length
        names the limit in one line and does not echo its digits."""
        result = runner.invoke(main, ["bounds", "--n", n_range, "--t", "0"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "a range end passes Python's limit of 4300 digits on an int\n"

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

    def test_rates_csv_header(self, runner):
        result = runner.invoke(main, ["rates", "--points", "3", "--format", "csv"])
        lines = result.output.splitlines()
        assert lines[0] == "x,rate_2epp,rate_gv"
        assert lines[1] == "0.0,1.0,1.0"

    def test_json_fields(self, runner):
        result = runner.invoke(main, ["rates", "--points", "11"])
        payload = json.loads(result.output)
        assert set(payload[0]) == {"x", "rate_2epp", "rate_gv", "h"}

    @pytest.mark.parametrize("points", [2, 3, 51, 1001])
    def test_json_is_json_dumps_byte_for_byte(self, runner, points):
        """Endpoints x = 0 and x = 1/2 included, where the rates clamp."""
        result = runner.invoke(main, ["rates", "--points", str(points)])
        assert result.exit_code == 0
        table = rate_table(points)
        assert (table[0].x, table[-1].x) == (0.0, 0.5)
        expected = json.dumps(list(map(vars, table)), indent=2) + "\n"
        assert result.stdout_bytes == expected.encode()

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

    @pytest.mark.parametrize(
        "args, name",
        [
            (["nine-pair", "--error", "XIIIIIZII"], "nine-pair_XIIIIIZII"),
            (["six-pair", "--error", "IIIIZI", "--two-party"], "six-pair_IIIIZI_two-party"),
            (["hamming-m4", "--error", "IIIIIIIIIIIIIIY"], "hamming-m4_IIIIIIIIIIIIIIY"),
            (["qutrit-four", "--error", "I,XZ2,I,I"], "qutrit-four_I-XZ2-I-I"),
        ],
    )
    def test_simulate_through_a_discard(self, runner, args, name):
        result = runner.invoke(main, ["simulate", *args])
        assert result.exit_code == 0
        golden = FIXTURES / "golden" / f"simulate_{name}.out"
        assert result.stdout_bytes == golden.read_bytes()

    @pytest.mark.parametrize(
        "args, name",
        [
            (["bounds", "--n", "1..12", "--t", "0..12"], "bounds_n1-12_t0-12"),
            (["rates", "--points", "51"], "rates_p51"),
            (["mi", "--count", "40"], "mi_c40"),
        ],
    )
    def test_csv_table(self, runner, args, name):
        result = runner.invoke(main, [*args, "--format", "csv"])
        assert result.exit_code == 0
        golden = FIXTURES / "golden" / f"{name}.csv"
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

    @pytest.mark.parametrize(
        "args, message",
        [
            (["rates", "--points", "828505"], "rates over 828505 points needs about 128 MB"),
            (["rates", "--points", str(10**12)], "the limit is 128 MB"),
            (["mi", "--count", "29836"], "mi over 29836 terms needs about 128 MB"),
            (["mi", "--count", str(10**12)], "the limit is 128 MB"),
            (
                ["mi", "--count", "12165"],
                "mi over 12165 terms needs about 600,014,205,790 bit operations;"
                " the limit is 600,000,000,000",
            ),
            (["mi", "--count", "29835"], "the limit is 600,000,000,000"),
            (["bounds", "--n", "1..453438", "--t", "0..1"], "bounds over 906876 rows"),
            (["bounds", "--n", f"1..{10**9}", "--t", f"0..{10**9}"], "500000001500000000 rows"),
            (["bounds", "--n", str(10**6), "--t", "0..20000"], "20001 rows needs about 1748 MB"),
            (
                ["bounds", "--n", f"{10**3000}..{10**3000 + 3703}", "--t", "0..1"],
                "bounds over 7408 rows needs about 128 MB",
            ),
        ],
        ids=[
            "rates", "rates-far", "mi", "mi-far", "mi-time", "mi-time-far", "bounds",
            "bounds-far", "bounds-counts", "bounds-wide-n",
        ],
    )
    def test_a_table_past_its_limit_exits_two_before_building(self, runner, args, message):
        """A table writes its rows as it computes them; the bound on the
        text it would write is gated like a walk's memory."""
        start = time.perf_counter()
        result = runner.invoke(main, args)
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 2
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert message in result.stderr

    def test_a_wide_t_range_on_small_n_is_clipped_before_building(self, runner):
        """Only t <= max n holds a row, so a billion t values cost nothing."""
        wide = runner.invoke(main, ["bounds", "--n", "1..3", "--t", f"-{10**9}..{10**9}"])
        narrow = runner.invoke(main, ["bounds", "--n", "1..3", "--t", "0..3"])
        assert wide.exit_code == narrow.exit_code == 0
        assert wide.stdout == narrow.stdout

    def test_grid_counts_the_rows_bounds_table_builds(self):
        ends = range(-3, 7)
        for n_lo, n_hi, t_lo, t_hi in product(ends, ends, ends, ends):
            if n_hi < n_lo or t_hi < t_lo:
                continue
            n_range, t_range = f"{n_lo}..{n_hi}", f"{t_lo}..{t_hi}"
            ns, ts, count = _grid(n_range, t_range)
            rows = bounds_table(list(range(n_lo, n_hi + 1)), list(range(t_lo, t_hi + 1)))
            assert count == len(rows), (n_range, t_range)
            if count:
                assert bounds_table(ns, ts) == rows, (n_range, t_range)

    def test_mi_prints_terms_past_the_int_digit_limit(self, runner):
        """m_i has about i bits, and Python refuses by default to convert an
        int of more than 4,300 digits to text; mi lifts that for its output
        and restores the setting."""
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            result = runner.invoke(main, ["mi", "--count", "2200", "--format", "csv"])
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(limit)
        assert result.exit_code == 0
        last = result.stdout.splitlines()[-1].split(",")[1]
        assert len(last) > 640

    @pytest.mark.parametrize(
        "args, message",
        [
            (
                ["verify", "hamming", "--m", "14300"],
                "enumeration of at least 2^14301 errors on at least 2^14299 registers"
                " needs about at least 2^28580 MB; the limit is 128 MB",
            ),
            (
                ["simulate", "hamming", "--m", "14300", "--error", "X"],
                "on at least 2^14299 registers",
            ),
            (["verify", "hamming", "--m", "1000000"], "on at least 2^999999 registers"),
            (
                ["bounds", "--n", f"1..{10**4299}", "--t", f"0..{10**4299}"],
                "bounds over at least 2^28560 rows needs about at least 2^28555 MB",
            ),
            (["mi", "--count", str(10**2200)], f"mi over {10**2200} terms needs about at least"),
        ],
        ids=["verify-m14300", "simulate-m14300", "verify-m1000000", "bounds-huge", "mi-huge"],
    )
    def test_a_size_past_the_int_digit_limit_is_a_power_of_two_bound(
        self, runner, default_int_digits, args, message
    ):
        """Python refuses to write an int of more than 4,300 digits as text;
        such a size reads as the power of two it is at least."""
        start = time.perf_counter()
        result = runner.invoke(main, args)
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 2
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert message in result.stderr

    def test_a_size_refusal_from_any_command_is_one_line(self, runner, monkeypatch):
        def refuse(*args):
            raise SizeLimitError("refused")

        monkeypatch.setattr(cli.protocols, "get", refuse)
        result = runner.invoke(main, ["simulate", "six-pair", "--error", "IIIIII"])
        assert (result.exit_code, result.stdout, result.stderr) == (2, "", "refused\n")

    def test_other_faults_keep_their_traceback(self, runner, monkeypatch):
        """The CLI turns only SizeLimitError into exit 2."""

        def fault(*args):
            raise ValueError("not a size")

        monkeypatch.setattr(cli, "engine_verify", fault)
        result = runner.invoke(main, ["verify", "six-pair"])
        assert result.exit_code == 1
        assert isinstance(result.exception, ValueError)

    def test_a_huge_hamming_m_is_refused_before_its_pair_count(self, runner):
        start = time.perf_counter()
        result = runner.invoke(main, ["verify", "hamming", "--m", str(10**12)])
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 2
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert f"the pair count 2^{10**12} - 1 needs about" in result.stderr

    @pytest.mark.parametrize(
        "args",
        [["rates", "--points"], ["mi", "--count"], ["greedy", "--t", "1", "--n"],
         ["verify", "hamming", "--m"]],
        ids=["points", "count", "n", "m"],
    )
    def test_an_int_option_past_the_int_digit_limit_is_one_line(
        self, runner, default_int_digits, args
    ):
        """An option value that Python refuses to read for its length names
        the limit in one line and does not echo its digits."""
        result = runner.invoke(main, [*args, "9" * 5001])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert len(result.stderr_bytes) < 200
        assert f"--{args[-1][2:]} passes Python's limit of 4300 digits" in result.stderr

    def test_a_non_numeric_int_option_keeps_the_usage_error(self, runner):
        result = runner.invoke(main, ["rates", "--points", "x"])
        assert result.exit_code == 2
        assert "Invalid value for '--points': 'x' is not a valid integer." in result.stderr

    @pytest.mark.parametrize("n, t", [(0, 0), (-1, 0), (3, 5), (3, -1)])
    def test_bad_greedy_parameters_exit_two(self, runner, n, t):
        result = runner.invoke(main, ["greedy", "--n", str(n), "--t", str(t)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1


# One table in a fresh interpreter, which prints its peak RSS in kB (VmHWM)
# to stderr; with no arguments it only imports the CLI.
_PEAK = """
import os, sys
from twep.cli import main
if sys.argv[1:]:
    sys.stdout = open(os.devnull, "w")
    main(sys.argv[1:], standalone_mode=False)
print(next(line.split()[1] for line in open("/proc/self/status") if "VmHWM" in line),
      file=sys.stderr)
"""


def _cli_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(Path(twep.__file__).parents[1]))


def _peak_bytes(*args: str) -> int:
    out = subprocess.run(
        [sys.executable, "-c", _PEAK, *args], env=_cli_env(), capture_output=True, check=True
    )
    return int(out.stderr) * 1024


class _Admitted(Exception):
    """Ends a table command once its gate has admitted it."""


def _record_gates(monkeypatch, stop: bool = False) -> list[int]:
    """The estimates the CLI passes to ``check_budget`` from now on; with
    stop, a command ends at its first admitted estimate, before any row."""
    estimates = []

    def gate(estimate, what, *sizes):
        estimates.append(check_budget(estimate, what, *sizes))
        if stop:
            raise _Admitted
        return estimate

    monkeypatch.setattr(cli, "check_budget", gate)
    return estimates


class TestStreamingTables:
    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
    def test_the_largest_tables_of_the_old_gate_hold_no_table(self):
        """A table writes each row as it computes it: the peak RSS of the
        largest rates and bounds tables the old, memory-fitted gate admitted
        stays within 5 MB of an interpreter that has imported the CLI."""
        baseline = _peak_bytes()
        for args in (["rates", "--points", "95325"], ["bounds", "--n", "1..35246", "--t", "0..1"]):
            assert _peak_bytes(*args) - baseline <= 5 << 20, args

    @pytest.mark.parametrize(
        "args",
        [
            *(["rates", "--points", str(points)] for points in (2, 3, 51, 1000)),
            *(["mi", "--count", str(count)] for count in (1, 2, 40, 2200)),
            *(
                ["bounds", "--n", n, "--t", t]
                for n, t in [
                    ("0..3", "0..3"),  # null gv_k cells on tiny n
                    ("98..99", "97..99"),  # thm2_k = -n - 2 has one digit more than n
                    ("1..12", "0..12"),
                    ("1..300", "0..1"),
                    (f"{10**3000}..{10**3000 + 3}", "0..2"),
                ]
            ),
        ],
        ids=lambda args: "-".join([args[0], *args[2::2]])[:40],
    )
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_the_gate_bounds_the_text_written(self, runner, monkeypatch, args, fmt):
        """In either format a table writes no more than the estimate it
        passes to its gate; mi runs with the int digit limit below its
        longest terms."""
        estimates = _record_gates(monkeypatch)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640 if args[0] == "mi" else limit)
        try:
            result = runner.invoke(main, [*args, "--format", fmt])
        finally:
            sys.set_int_max_str_digits(limit)
        assert result.exit_code == 0
        assert len(estimates) == 1
        assert len(result.stdout_bytes) <= estimates[0]

    @pytest.mark.parametrize(
        "command, admitted, refused",
        [
            (["rates", "--points"], ["95325", "828504"], "828505"),
            (["mi", "--count"], ["15446", "29835"], "29836"),
            (["bounds", "--t", "0..1", "--n"], ["1..35246", "1..453437"], "1..453438"),
        ],
        ids=["rates", "mi", "bounds"],
    )
    def test_the_gates_admit_what_the_memory_fitted_gates_admitted(
        self, runner, monkeypatch, command, admitted, refused
    ):
        """The gates alone, the tables stopped once admitted: the largest
        tables of the old gates (95,325 rate points, 15,446 mi terms, bounds
        on n = 1..35,246 at t = 0..1) are admitted, and so is the table just
        below each new first refusal."""
        _record_gates(monkeypatch, stop=True)
        for size in admitted:
            result = runner.invoke(main, [*command, size])
            assert isinstance(result.exception, _Admitted), size
        assert runner.invoke(main, [*command, refused]).exit_code == 2

    def test_a_reader_that_stops_early_is_no_failure(self):
        """``twep rates ... | head -c 100``: the write to the closed pipe ends
        the table with exit 0 and nothing on stderr."""
        table = subprocess.Popen(
            [sys.executable, "-m", "twep.cli", "rates", "--points", "95325"],
            env=_cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert len(table.stdout.read(100)) == 100
        table.stdout.close()
        assert table.wait(timeout=60) == 0
        assert table.stderr.read() == b""


_RANGES = st.one_of(
    st.integers(-3, 8).map(str),
    st.tuples(st.integers(-3, 8), st.integers(-3, 8)).map(lambda r: f"{r[0]}..{r[1]}"),
)
_FORMATS = st.sampled_from([[], ["--format", "csv"]])
_FAR = st.integers(10**6, 10**18)
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
    # Far past each table's size limit, and a t range far past small n.
    st.tuples(st.sampled_from(["rates --points", "mi --count"]), _FAR, _FORMATS).map(
        lambda a: [*a[0].split(), str(a[1]), *a[2]]
    ),
    st.tuples(_FAR, _FORMATS).map(
        lambda a: ["bounds", "--n", f"1..{a[0]}", "--t", f"0..{a[0]}", *a[1]]
    ),
    st.tuples(_FAR, _FAR).map(
        lambda a: ["bounds", "--n", f"{-a[0]}..4", "--t", f"{-a[1]}..{a[1]}"]
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
