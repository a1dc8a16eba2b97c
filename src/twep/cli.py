"""Batch command-line front end.

Structured results go to stdout, diagnostics to stderr, so pipelines can
consume reports directly.  Exit codes: 0 success, 1 verification or
property failure, 2 usage and size errors; ``main`` reports a size
refusal (SizeLimitError) from any command as one stderr line.  The table
commands write each row as they compute it, after a gate on a bound of
the text they would write.  Identical invocations produce byte-identical
output.
"""

from __future__ import annotations

import json
import os
import re
import sys
from collections.abc import Iterable, Iterator
from dataclasses import fields
from itertools import islice
from operator import mul

import click

from . import bounds as bounds_mod
from . import protocols, synth
from .engine import Strategy
from .engine import verify as engine_verify
from .engine import simulate as engine_simulate
from .errorspace import check_budget
from .pauli import PauliSyntaxError, parse, weight
from .stabilizer import SizeLimitError

def _fail(message: str, code: int):
    click.echo(message, err=True)
    sys.exit(code)


def _emit(chunks: Iterator[str], output: str | None):
    """Write the chunks, none empty, to the --output file, or to stdout, as
    they come, 64 to a write."""
    batches = iter(lambda: "".join(islice(chunks, 64)), "")
    if output:
        try:
            with open(output, "w") as handle:
                handle.writelines(batches)
        except OSError as exc:
            _fail(f"cannot write --output {output!r}: {exc.strerror}", 2)
        return
    try:
        sys.stdout.writelines(batches)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early, as ``| head`` does: that is no
        # failure.  Python's flush at exit then writes to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _get_protocol(name: str, m: int | None = None) -> Strategy:
    if name == "hamming":
        if m is None:
            _fail("protocol 'hamming' needs --m", 2)
        if m < 3:
            _fail("--m must be at least 3", 2)
        return protocols.hamming_family(m)
    if m is not None:
        _fail("--m only applies to protocol 'hamming'", 2)
    try:
        return protocols.get(name)
    except KeyError:
        names = ", ".join(protocols.names()) + " (or 'hamming' with --m)"
        _fail(f"unknown protocol {name!r}; valid names: {names}", 2)


def _refuse_long_ints(what: str, *texts: str):
    """Called when ``int`` has refused one of texts: raise SizeLimitError
    naming what if every text is a well-formed integer, which ``int`` then
    refused only for its length."""
    if all(re.fullmatch(r"\s*[+-]?\d+(_\d+)*\s*", text) for text in texts):
        limit = f"Python's limit of {sys.get_int_max_str_digits()} digits"
        raise SizeLimitError(f"{what} passes {limit} on an int") from None


class _Int(click.types.IntParamType):
    """click's INT, except that an integer ``int`` refuses for its length
    is a size error, as a range end is."""

    def convert(self, value, param, ctx):
        try:
            return super().convert(value, param, ctx)
        except click.BadParameter:
            _refuse_long_ints(f"--{param.name}", value)
            raise


_INT = _Int()


def _parse_range(text: str) -> range:
    """N or LO..HI; an integer end that ``int`` refuses for its length is
    a size error."""
    ends = text.split("..", 1)
    try:
        lo, hi = int(ends[0]), int(ends[-1])
        if lo <= hi:
            return range(lo, hi + 1)
    except ValueError:
        _refuse_long_ints("a range end", *ends)
    _fail(f"malformed range {text!r}; expected N or LO..HI", 2)


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


def _template(cls) -> str:
    """The indented JSON object of a row of the dataclass cls, with a
    ``%s`` for each value."""
    lines = ",\n".join(f"    {json.dumps(field.name)}: %s" for field in fields(cls))
    return "  {\n" + lines + "\n  }"


def _joined(items: Iterable[str], first: str, sep: str, last: str) -> Iterator[str]:
    """first, the items with sep between them, then last, one item at a
    time; there is at least one item."""
    for item in items:
        yield first + item
        first = sep
    yield last


def _json_rows(rows: Iterable, cls) -> Iterator[str]:
    """``json.dumps(list(map(vars, rows)), indent=2)`` plus a newline, byte
    for byte: the indenting encoder is pure Python.  The rows are of the
    dataclass cls, and their values are ints, finite floats or None;
    ``json`` prints an int or a float as its ``repr``."""
    template = _template(cls)
    objects = (
        template % tuple("null" if v is None else repr(v) for v in vars(row).values())
        for row in rows
    )
    return _joined(objects, "[\n", ",\n", "\n]\n")


def _csv(header: str, rows) -> Iterator[str]:
    """The header line, then one line per row of values: None as an empty
    cell, every other value as its ``repr``."""
    yield header + "\n"
    for row in rows:
        yield ",".join("" if v is None else repr(v) for v in row) + "\n"


def _json_bytes(cls, rows: int, width: int) -> int:
    """The bytes ``_json_rows`` writes at most for rows of cls whose values
    print in at most width characters: "[\\n" or ",\\n" and the template
    per row, less 2 per ``%s``, then "\\n]\\n"."""
    return 3 + rows * (2 + len(_template(cls)) + len(fields(cls)) * (width - 2))


class _Group(click.Group):
    """Reports a SizeLimitError from any command as one stderr line, exit 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except SizeLimitError as exc:
            _fail(str(exc), 2)


@click.group(cls=_Group)
def main():
    """Verify, simulate, and synthesize two-way purification protocols."""


@main.command()
@click.argument("protocol")
@click.option("--m", "m", type=_INT, default=None, help="family size for 'hamming'")
def verify(protocol: str, m: int | None):
    """Exhaustively verify a registered protocol."""
    report = engine_verify(_get_protocol(protocol, m))
    click.echo(report.to_text(), nl=False)
    sys.exit(0 if report.passed else 1)


@main.command()
@click.argument("protocol")
@click.option("--error", "error_text", required=True, help="hidden error, Pauli text")
@click.option("--m", "m", type=_INT, default=None, help="family size for 'hamming'")
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
@click.option("--n", "n", type=_INT, required=True)
@click.option("--t", "t", type=_INT, required=True)
def greedy(n: int, t: int):
    """Synthesize the greedy strategy for (n, t) and verify it exhaustively."""
    if n < 1 or not 0 <= t <= n:
        _fail(f"greedy needs --n >= 1 and 0 <= --t <= --n, got n={n}, t={t}", 2)
    report, stats = synth.greedy_step_stats(n, t)
    payload = report.to_dict()
    payload.update(
        n=n, t=t, max_steps=stats.max_steps, step_bound=stats.step_bound,
        balance_ok=stats.balance_ok, balance_violations=list(stats.balance_violations),
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
    # The text of the longer format, JSON, and the widest n's error counts:
    # a value is null or an int of magnitude at most n + 2 (thm2_k at t = n).
    n = ns[-1]
    estimate = _json_bytes(bounds_mod.BoundsRow, count, max(4, len(str(n)) + 2))
    estimate += _counts_bytes(n, min(n, 2 * ts[-1]))
    check_budget(estimate, "bounds over {} rows", count)
    rows = bounds_mod.bounds_rows(ns, ts)
    if fmt == "csv":
        header = "n,t,hamming_k,singleton_k,gv_k,thm2_k"
        _emit(_csv(header, (vars(r).values() for r in rows)), output)
    else:
        _emit(_json_rows(rows, bounds_mod.BoundsRow), output)


@main.command()
@click.option("--points", type=_INT, required=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@click.option("--output", type=click.Path(), default=None)
def rates(points: int, fmt: str, output: str | None):
    """Sample the asymptotic rate curves."""
    if points < 2:
        _fail("--points must be at least 2", 2)
    # The text of the longer format, JSON: a float's repr has at most 24 characters.
    check_budget(_json_bytes(bounds_mod.RatePoint, points, 24), "rates over {} points", points)
    table = bounds_mod.rate_points(points)
    if fmt == "csv":
        rows = ((p.x, p.rate_2epp, p.rate_gv) for p in table)
        _emit(_csv("x,rate_2epp,rate_gv", rows), output)
    else:
        _emit(_json_rows(table, bounds_mod.RatePoint), output)


# The most work mi takes on: its largest admitted count, 12164, runs in
# about 2 s on a 2-vCPU machine with Python 3.11.
MI_MAX_WORK = 6 * 10**11


@main.command()
@click.option("--count", type=_INT, required=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@click.option("--output", type=click.Path(), default=None)
def mi(count: int, fmt: str, output: str | None):
    """Print the greedy shrinkage threshold sequence."""
    if count < 1:
        _fail("--count must be at least 1", 2)
    # The text of the longer format, CSV: "i,mi\n", then line i holds i < count
    # and m_i <= 2^i, of at most floor(i log10 2) + 1 digits, which sum to at
    # most count + floor(C(count, 2) log10 2).
    digits = count + count * (count - 1) // 2 * 30103 // 100000
    check_budget(5 + count * (len(str(count)) + 2) + digits, "mi over {} terms", count)
    # The time: m_i has about i bits, and its square root and its decimal
    # text each cost about i^2 bit operations, which sum to the work below.
    work = (count - 1) * count * (2 * count - 1) // 6
    if work > MI_MAX_WORK:
        raise SizeLimitError(
            f"mi over {count} terms needs about {work:,} bit operations;"
            f" the limit is {MI_MAX_WORK:,}"
        )
    terms = bounds_mod.mi_terms(count)
    if fmt == "csv":
        chunks = _csv("i,mi", enumerate(terms))
    else:
        chunks = _joined(map(str, terms), "[", ", ", "]\n")
    # m_i has about i bits; print every digit, past Python's default limit
    # of 4,300 on converting an int to text.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        _emit(chunks, output)
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    main()
