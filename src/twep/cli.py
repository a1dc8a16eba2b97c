"""Batch command-line front end.

Structured results go to stdout, diagnostics to stderr, so pipelines can
consume reports directly.  Exit codes: 0 success, 1 verification or
property failure, 2 usage and size errors.  Identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import json
import sys
from operator import mul

import click

from . import bounds as bounds_mod
from . import protocols, synth
from .engine import Strategy
from .engine import verify as engine_verify
from .engine import simulate as engine_simulate
from .errorspace import MAX_WALK_BYTES, check_size
from .pauli import PauliSyntaxError, parse, weight
from .stabilizer import SizeLimitError

def _fail(message: str, code: int):
    click.echo(message, err=True)
    sys.exit(code)


def _emit(text: str, output: str | None):
    if output:
        try:
            with open(output, "w") as handle:
                handle.write(text)
        except OSError as exc:
            _fail(f"cannot write --output {output!r}: {exc.strerror}", 2)
    else:
        click.echo(text, nl=False)


def _get_protocol(name: str, m: int | None = None) -> Strategy:
    if name == "hamming":
        if m is None:
            _fail("protocol 'hamming' needs --m", 2)
        if m < 3:
            _fail("--m must be at least 3", 2)
        try:
            # Gate before the family builds its operators on 2^m - 1 pairs.
            check_size(2**m - 1, 1, 2)
        except SizeLimitError as exc:
            _fail(str(exc), 2)
        return protocols.hamming_family(m)
    if m is not None:
        _fail("--m only applies to protocol 'hamming'", 2)
    try:
        return protocols.get(name)
    except KeyError:
        _fail(
            f"unknown protocol {name!r}; valid names: {', '.join(protocols.names())}"
            " (or 'hamming' with --m)",
            2,
        )


def _parse_range(text: str) -> range:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo_i, hi_i = int(lo), int(hi)
            if hi_i < lo_i:
                raise ValueError
            return range(lo_i, hi_i + 1)
        return range(int(text), int(text) + 1)
    except ValueError:
        _fail(f"malformed range {text!r}; expected N or LO..HI", 2)


# The table commands build their whole output before printing it.  Peak RSS
# (VmHWM) above an interpreter that has imported twep, Python 3.11, in the
# larger of the two formats: rates 807 bytes a point at 9 * 10^4 points and
# bounds 912 bytes a row on n = 1..30,000, t = 0..1, 2,451 near n = 10^100
# and 17,703 near 10^1000, so about 16 more per digit of n, plus the error
# counts of the widest n (JSON; CSV 374, 443, 2,107 and 17,366); mi 0.53
# bytes per count^2 at counts 8,000 and 12,000 (CSV), since m_i has about i
# bits.  The estimates below round these up and share the walk's budget.
_POINT_BYTES = 1408
_ROW_BYTES = 1792


def _check_table(estimate: int, what: str) -> None:
    if estimate > MAX_WALK_BYTES:
        limit = MAX_WALK_BYTES >> 20
        _fail(f"{what} needs about {estimate >> 20} MB; the limit is {limit} MB", 2)


def _grid(n_range: str, t_range: str) -> tuple[range, range, int]:
    """The n and t ranges without the values that hold no row (t outside
    0..max n, n below the least t), and the number of rows (n, t) with
    0 <= t <= n, counted from the ends, since a range can be too long for
    len(): each n up to the last t has n - ts[0] + 1 rows, each n above it
    one per t."""
    ns, ts = _parse_range(n_range), _parse_range(t_range)
    ts = range(max(ts.start, 0), min(ts.stop, ns.stop))
    ns = range(max(ns.start, ts.start), ns.stop)
    a, b, first = ts.start, ts.stop - 1, ns.start
    if b < a:
        return ns, ts, 0
    low = max(0, b - first + 1) * (first + b - 2 * a + 2) // 2
    return ns, ts, low + (ns.stop - max(first, b + 1)) * (b - a + 1)


def _counts_bytes(n: int, top: int) -> int:
    """A bound on the bytes of ``error_counts(n, top)``, the widest n's: a
    count sums top + 1 terms C(n, w) 3^w <= (3en / w)^w <= (9n / top)^top,
    and is below 4^n."""
    bits = top * (-(-9 * n // max(top, 1))).bit_length() + (top + 1).bit_length()
    return (top + 1) * (min(bits, 2 * n + 1) // 7 + 40)


def _json_rows(rows: list) -> str:
    """``json.dumps(list(map(vars, rows)), indent=2)`` plus a newline, byte
    for byte, written directly: the indenting encoder is pure Python.  The
    rows are dataclasses of one type whose values are ints, finite floats
    or None; ``json`` prints an int or a float as its ``repr``."""
    if not rows:
        return "[]\n"
    fields = ",\n".join(f"    {json.dumps(name)}: %s" for name in vars(rows[0]))
    template = "  {\n" + fields + "\n  }"
    body = ",\n".join(
        template % tuple("null" if v is None else repr(v) for v in vars(row).values())
        for row in rows
    )
    return "[\n" + body + "\n]\n"


@click.group()
def main():
    """Verify, simulate, and synthesize two-way purification protocols."""


@main.command()
@click.argument("protocol")
@click.option("--m", "m", type=int, default=None, help="family size for 'hamming'")
def verify(protocol: str, m: int | None):
    """Exhaustively verify a registered protocol."""
    strategy = _get_protocol(protocol, m)
    try:
        report = engine_verify(strategy)
    except SizeLimitError as exc:
        _fail(str(exc), 2)
    click.echo(report.to_text(), nl=False)
    sys.exit(0 if report.passed else 1)


@main.command()
@click.argument("protocol")
@click.option("--error", "error_text", required=True, help="hidden error, Pauli text")
@click.option("--m", "m", type=int, default=None, help="family size for 'hamming'")
@click.option("--two-party", is_flag=True, help="render per-party outcome columns")
def simulate(protocol: str, error_text: str, m: int | None, two_party: bool):
    """Run one protocol execution against a chosen hidden error."""
    strategy = _get_protocol(protocol, m)
    try:
        hidden = parse(error_text, strategy.d)
    except PauliSyntaxError as exc:
        _fail(f"bad --error value: {exc}", 2)
    if hidden.n != strategy.n:
        _fail(f"--error must name {strategy.n} registers, got {hidden.n}", 2)
    if weight(hidden) > strategy.t:
        _fail(f"--error weight {weight(hidden)} exceeds protocol bound {strategy.t}", 2)
    transcript = engine_simulate(strategy, hidden)
    if not two_party:
        click.echo(transcript.to_text(), nl=False)
        return
    # Demo view of the classical exchange: one party's raw results are fixed
    # to 0, the other's then carry the parity offset of the operator (the
    # sum of x[i]·z[i] over its sites) plus the outcome.
    records = transcript.to_records()
    for record, (op, outcome) in zip(records, transcript.history.entries):
        offset = sum(map(mul, op.x, op.z))
        record.update(alice=0, bob=(offset + outcome) % op.d)
    click.echo("\n".join(map(json.dumps, records)))


@main.command()
@click.option("--n", "n", type=int, required=True)
@click.option("--t", "t", type=int, required=True)
def greedy(n: int, t: int):
    """Synthesize the greedy strategy for (n, t) and verify it exhaustively."""
    if n < 1 or not 0 <= t <= n:
        _fail(f"greedy needs --n >= 1 and 0 <= --t <= --n, got n={n}, t={t}", 2)
    try:
        report, stats = synth.greedy_step_stats(n, t)
    except SizeLimitError as exc:
        _fail(str(exc), 2)
    payload = report.to_dict()
    payload.update(
        {
            "n": n,
            "t": t,
            "max_steps": stats.max_steps,
            "step_bound": stats.step_bound,
            "balance_ok": stats.balance_ok,
            "balance_violations": list(stats.balance_violations),
        }
    )
    click.echo(json.dumps(payload, indent=2))
    ok = report.passed and stats.max_steps <= stats.step_bound and stats.balance_ok
    sys.exit(0 if ok else 1)


@main.command()
@click.option("--n", "n_range", required=True, help="N or LO..HI")
@click.option("--t", "t_range", required=True, help="N or LO..HI")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@click.option("--output", type=click.Path(), default=None)
def bounds(n_range: str, t_range: str, fmt: str, output: str | None):
    """Tabulate the coding bounds over a parameter grid."""
    ns, ts, count = _grid(n_range, t_range)
    if not count:
        _fail("empty grid: no (n, t) with 0 <= t <= n", 2)
    n = ns[-1]
    estimate = count * (_ROW_BYTES + 5 * n.bit_length())
    estimate += _counts_bytes(n, min(n, 2 * ts[-1]))
    _check_table(estimate, f"bounds over {count} rows")
    rows = bounds_mod.bounds_table(ns, ts)
    if fmt == "csv":
        _emit(bounds_mod.bounds_csv(rows), output)
    else:
        _emit(_json_rows(rows), output)


@main.command()
@click.option("--points", type=int, required=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@click.option("--output", type=click.Path(), default=None)
def rates(points: int, fmt: str, output: str | None):
    """Sample the asymptotic rate curves."""
    if points < 2:
        _fail("--points must be at least 2", 2)
    _check_table(points * _POINT_BYTES, f"rates over {points} points")
    table = bounds_mod.rate_table(points)
    if fmt == "csv":
        _emit(bounds_mod.rates_csv(table), output)
    else:
        _emit(_json_rows(table), output)


@main.command()
@click.option("--count", type=int, required=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@click.option("--output", type=click.Path(), default=None)
def mi(count: int, fmt: str, output: str | None):
    """Print the greedy shrinkage threshold sequence."""
    if count < 1:
        _fail("--count must be at least 1", 2)
    _check_table(count * count * 9 // 16, f"mi over {count} terms")
    seq = bounds_mod.mi_sequence(count)
    # m_i has about i bits; print every digit, past Python's default limit
    # of 4,300 on converting an int to text.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if fmt == "csv":
            lines = ["i,mi"] + [f"{i},{v}" for i, v in enumerate(seq)]
            text = "\n".join(lines) + "\n"
        else:
            text = json.dumps(seq) + "\n"
    finally:
        sys.set_int_max_str_digits(limit)
    _emit(text, output)


if __name__ == "__main__":
    main()
