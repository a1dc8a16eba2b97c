"""Greedy strategy synthesis: bisect the candidate errors with near-balanced
commuting operators.

Each step scans every operator that commutes with the current stabilizer
but lies outside it, and measures the one separating the most surviving
error pairs (equivalently, with the smallest larger half).  An averaging
argument guarantees such an operator splits the survivors to within
sqrt(|E|)/2 of half, so the survivor count collapses geometrically and the
whole protocol spends at most ceil(log2 |E|) + 2 measurements.

The decision tree is built once, up front, on ``engine``'s outcome-tree
walk, whose report is then the tree's proof; the strategy looks its steps
up in that tree, and the step statistics are read from it.
Each node's scan is ``_kernels.best_splitter``, fed its survivors' rows,
which it takes from the enumeration by index: it visits candidates in key
order and stops at the first split no candidate can beat.  It sweeps only
the complement vectors whose anticommutation rows over the survivors are
independent of the rows before them, which leaves its winner unchanged:
2^rho masks for rows of rank rho, at most the survivors' coset classes,
instead of 2^D for D complement vectors, so deep nodes with few survivors
are cheap.  The scan reads only the normalizer complement's rows, kept
once per stabilizer, which sibling nodes share, so a node pays only for
its own survivors.  No complement is solved from scratch: the root's is
the 2n unit rows, and a child's is derived from its parent's
(``stabilizer._extended_basis``) in O(D) integer operations for a
complement of D vectors, already in the key form the scan takes.  The
scan's counts are kept per Measure node; they are the step statistics'
splits.

The root (t >= 1) needs no scan (``_root_split``).  Its survivors are every
error of weight <= t, a set that register permutations and local
relabellings of X, Y and Z keep, so an operator's split there depends only
on its weight w, and is counted in closed form; the scan's winner is then
the least key of the best weight, X on sites 0..w - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from . import _kernels, stabilizer
from .bounds import thm2_k
from .engine import (
    Finish,
    History,
    Measure,
    ProtocolError,
    Report,
    Step,
    Strategy,
    _walk,
)
from .errorspace import ErrorSet, base_errors, count_errors
from .pauli import PauliVec, _from_planes, _x_columns, symplectic_product
from .stabilizer import SizeLimitError, StabilizerSet, _extended_basis

# Unused here; perfbench's tracer wraps each of these as ``synth.<name>``.
from .engine import simulate, verify
from .errorspace import coset_classes, filter_by_outcome
from .pauli import multiply

SCAN_MAX_N = 10


class NoSeparatorError(ProtocolError):
    """All surviving errors are coset-equivalent; the caller should finish."""


@dataclass(frozen=True)
class SplitCount:
    """How a candidate operator divides an error set."""

    commuting: int
    anticommuting: int

    @property
    def separated_pairs(self) -> int:
        return self.commuting * self.anticommuting

    @property
    def max_side(self) -> int:
        return max(self.commuting, self.anticommuting)


def split_counts(m: PauliVec, errors: ErrorSet) -> SplitCount:
    """Exact commuting/anticommuting counts of the error set against m."""
    if m.d != 2 or errors.d != 2:
        raise ValueError("splitting is defined for d=2 only")
    if m.n != errors.n:
        raise ValueError("operator and error set disagree on n")
    anti = sum(1 for e in errors.members if symplectic_product(m, e))
    return SplitCount(commuting=len(errors.members) - anti, anticommuting=anti)


def choose_generator(s: StabilizerSet, errors: ErrorSet) -> PauliVec:
    """Best next measurement: the commuting, independent operator separating
    the most error pairs; ties minimize the larger side, then take the
    canonically smallest operator."""
    if s.d != 2 or errors.d != 2:
        raise ValueError("generator search is defined for d=2 only")
    if s.n > SCAN_MAX_N:
        raise SizeLimitError(f"generator scan needs n <= {SCAN_MAX_N}, got {s.n}")
    for e in errors.members:
        s._check(e)
    return _best_splitter(s, [e.one for e in errors.members], {})[0]


def _best_splitter(
    s: StabilizerSet, rows: list[int], bases: dict[tuple, list[int]]
) -> tuple[PauliVec, int]:
    """``choose_generator``'s operator for qubit errors given as rows, and
    how many of the errors commute with it.  ``bases`` memoizes the
    complement rows in key form by generator tuple and gains an entry for
    ``s`` if it has none: derived from its parent's entry
    (``_extended_basis``), whose splitter chose ``s``'s last generator, or
    else, as for ``choose_generator``'s stabilizer, read off
    ``stabilizer._complement_rows``."""
    residues = map(s._rows.reduce, rows)
    first = next(residues, None)
    if len(rows) < 2 or all(r == first for r in residues):
        raise NoSeparatorError(
            "remaining errors are coset-equivalent; no separator exists or is needed"
        )
    if s.gens not in bases:
        parent = bases.get(s.gens[:-1])
        if parent is None:
            bases[s.gens] = [one for one, _ in stabilizer._complement_rows(s)]
        else:
            bases[s.gens] = _extended_basis(parent, s)
    comp = bases[s.gens]
    if not comp:
        raise NoSeparatorError("stabilizer has full rank; nothing left to measure")
    # best_splitter reads no span or value-2 planes; perfbench counts by position.
    row, commuting, _ = _kernels.best_splitter([], [], comp, [], rows, s.n)
    return _from_planes(2, s.n, row, 0), commuting


def _anticommuting(n: int, t: int, w: int) -> int:
    """How many errors of weight <= t on n qubits anticommute with X on w
    sites: those with Y or Z on an odd number j of the w sites, X on a of
    the rest of them and any of the three on b of the other n - w."""
    return sum(
        comb(w, j) * 2**j * comb(w - j, a) * comb(n - w, b) * 3**b
        for j in range(1, min(t, w) + 1, 2)
        for a in range(t - j + 1)
        for b in range(t - j - a + 1)
    )


def _root_split(n: int, t: int) -> tuple[PauliVec, int]:
    """``_best_splitter``'s answer at synthesis's root, the empty stabilizer
    with every error of weight <= t (t >= 1) surviving, and how many of the
    errors commute with it: X on sites 0..w - 1 for the least w whose
    larger side is smallest, the least key among the operators of that
    weight, as the scan picks."""
    total = count_errors(n, t, 2)
    least = total + 1
    for w in range(1, n + 1):
        anti = _anticommuting(n, t, w)
        side = max(anti, total - anti)
        if side < least:
            least, best, commuting = side, w, total - anti
    return _from_planes(2, n, _x_columns(best), 0), commuting


def _synthesize(n: int, t: int) -> tuple[Strategy, dict, dict, Report]:
    """The greedy strategy, its decision tree (history entries to step),
    each Measure node's split (history entries to the enumeration index of
    its first survivor, its children's depth, its commuting count and its
    survivor count), and the tree's verification report.

    The tree grows on ``engine._walk``: a node whose survivors admit no
    separator finishes, any other measures ``choose_generator``'s operator.
    The walk reaches exactly the histories the strategy is ever consulted
    on, and its report is ``verify(strategy)``, because the chooser answers
    each node as the finished strategy does.  The root, for t >= 1, is
    answered by ``_root_split``; any other node passes the kernel its
    survivors' rows.  The complement rows are kept once per stabilizer,
    which sibling nodes share: the root's are the unit rows, and a child's
    are derived from its parent's."""
    if n < 1 or not 0 <= t <= n:
        raise ValueError(
            f"greedy synthesis needs n >= 1 and 0 <= t <= n, got n={n}, t={t}"
        )
    if n > SCAN_MAX_N:
        raise SizeLimitError(f"greedy synthesis needs n <= {SCAN_MAX_N}, got {n}")
    rows = [e.one for e in base_errors(2, n, t).members]
    bases: dict[tuple, list[int]] = {(): [1 << c for c in range(2 * n)]}
    tree: dict[tuple, Step] = {}
    splits: dict[tuple, tuple[int, int, int, int]] = {}

    def choose(history: History, s: StabilizerSet, reached: tuple[int, ...]) -> Step:
        entries = history.entries
        try:
            if not entries and t >= 1:
                op, commuting = _root_split(n, t)
            else:
                op, commuting = _best_splitter(s, [rows[i] for i in reached], bases)
        except NoSeparatorError:
            step = Finish()
        else:
            step = Measure(op)
            splits[entries] = (reached[0], len(entries) + 1, commuting, len(reached))
        tree[entries] = step
        return step

    k_claimed = max(0, thm2_k(n, t))
    strategy = Strategy(
        2, n, t, k_claimed, lambda h: tree[h.entries], name=f"greedy-{n}-{t}"
    )
    return strategy, tree, splits, _walk(strategy, choose)


def greedy_strategy(n: int, t: int) -> Strategy:
    """Strategy that measures the best splitter of the surviving errors until
    they share one coset.

    The whole decision tree is built up front, so the step function is a
    lookup; it answers every history a weight-<=t error can reach and no
    other.  Needs n >= 1 and 0 <= t <= n (ValueError otherwise)."""
    return _synthesize(n, t)[0]


@dataclass(frozen=True)
class GreedyStats:
    """Per-branch accounting for a verified greedy run."""

    step_bound: int
    max_steps: int
    balance_ok: bool
    balance_violations: tuple[str, ...]


def _balanced(max_side: int, total: int) -> bool:
    """max_side < total/2 + sqrt(total)/2, tested exactly in integers."""
    excess = 2 * max_side - total
    return excess <= 0 or excess * excess < total


def greedy_step_stats(n: int, t: int):
    """The greedy strategy's verification report, and its step counts and
    per-step split balance read from its tree.  Returns (report, stats).

    ``max_steps`` is the depth of the deepest Finish node.  A Measure node
    whose split is unbalanced is listed once, as "step <depth of its
    children>", ordered by the enumeration index of its first survivor,
    then by depth."""
    _, tree, splits, report = _synthesize(n, t)
    violations = [
        f"step {depth}: split {c}/{total - c} of {total}"
        for _, depth, c, total in sorted(splits.values())
        if not _balanced(max(c, total - c), total)
    ]
    stats = GreedyStats(
        step_bound=(count_errors(n, t, 2) - 1).bit_length() + 2,
        max_steps=max(
            len(key) for key, step in tree.items() if isinstance(step, Finish)
        ),
        balance_ok=not violations,
        balance_violations=tuple(violations),
    )
    return report, stats
