"""Batch command-line front end.

Structured results go to stdout, diagnostics to stderr, so pipelines can
consume reports directly.  Exit codes: 0 success, 1 verification or
property failure, 2 usage and size errors.  Identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict
from operator import mul

import click

from . import bounds as bounds_mod
from . import protocols, synth
from .engine import Strategy
from .engine import verify as engine_verify
from .engine import simulate as engine_simulate
from .errorspace import check_size
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


def _parse_range(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo_i, hi_i = int(lo), int(hi)
            if hi_i < lo_i:
                raise ValueError
            return list(range(lo_i, hi_i + 1))
        return [int(text)]
    except ValueError:
        _fail(f"malformed range {text!r}; expected N or LO..HI", 2)


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
    rows = bounds_mod.bounds_table(_parse_range(n_range), _parse_range(t_range))
    if not rows:
        _fail("empty grid: no (n, t) with 0 <= t <= n", 2)
    if fmt == "csv":
        _emit(bounds_mod.bounds_csv(rows), output)
    else:
        _emit(json.dumps(list(map(asdict, rows)), indent=2) + "\n", output)


@main.command()
@click.option("--points", type=int, required=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@click.option("--output", type=click.Path(), default=None)
def rates(points: int, fmt: str, output: str | None):
    """Sample the asymptotic rate curves."""
    if points < 2:
        _fail("--points must be at least 2", 2)
    table = bounds_mod.rate_table(points)
    if fmt == "csv":
        _emit(bounds_mod.rates_csv(table), output)
    else:
        _emit(json.dumps(list(map(asdict, table)), indent=2) + "\n", output)


@main.command()
@click.option("--count", type=int, required=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@click.option("--output", type=click.Path(), default=None)
def mi(count: int, fmt: str, output: str | None):
    """Print the greedy shrinkage threshold sequence."""
    if count < 1:
        _fail("--count must be at least 1", 2)
    seq = bounds_mod.mi_sequence(count)
    if fmt == "csv":
        lines = ["i,mi"] + [f"{i},{v}" for i, v in enumerate(seq)]
        _emit("\n".join(lines) + "\n", output)
    else:
        _emit(json.dumps(seq) + "\n", output)


if __name__ == "__main__":
    main()
