"""Evaluation codes over F_p: distances, subset-rank checks.

A LinearCode keeps the raw spanning rows it was built from (for evaluation
codes, one row per basis function); the dimension is the rank of those
rows. Brute-force enumerations are capped, with the cap overridable via
the PIR_AG_MAX_BRUTEFORCE environment variable.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from math import ceil, comb, log
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import linalg
from .curve import CurvePoint, PointAtInfinity
from .errors import (
    BadEnvironment,
    DuplicatePoint,
    InfinityUnsupported,
    LengthMismatch,
    PoleAtEvaluationPoint,
    PoleAtPoint,
    TooLarge,
)
from .field import inverses
from .function_space import RationalFunction, evaluate_rows

DEFAULT_CODEWORD_CAP = 10**6
DEFAULT_SUBSET_CAP = 10**7
DEFAULT_SAMPLE_COUNT = 300


def bruteforce_cap(default: int) -> int:
    env = os.environ.get("PIR_AG_MAX_BRUTEFORCE")
    if not env:
        return default
    try:
        return int(env)
    except ValueError:
        raise BadEnvironment(f"PIR_AG_MAX_BRUTEFORCE must be an integer, got {env!r}") from None


@dataclass(frozen=True)
class LinearCode:
    """A linear code given by spanning rows over F_p (length n, dimension rank)."""

    p: int
    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if any(len(r) != self.n for r in self.rows):
            raise LengthMismatch("all rows must have the code length")

    @cached_property
    def k(self) -> int:
        return linalg.rank(self.rows, self.p)

    def __repr__(self) -> str:
        return f"[{self.n}, {self.k}] code over F_{self.p}"


def evaluation_code(basis: Sequence[RationalFunction], points: Sequence[CurvePoint]) -> LinearCode:
    """Evaluate each basis function at each point; rows index the basis.

    The points are checked once, not once per entry: distinct, affine and on
    the basis curve. The rows are then one `function_space.evaluate_rows`
    call, the value rule `eval_at` reads too, so each atom row is computed
    once for the whole basis. A pole raises `PoleAtEvaluationPoint` for the
    first basis function that has one, at its first such point.
    """
    if not basis:
        raise ValueError("an evaluation code needs a non-empty basis")
    pts = tuple(points)
    if len(set(pts)) != len(pts):
        raise DuplicatePoint("evaluation points must be distinct")
    for pt in pts:
        if isinstance(pt, PointAtInfinity):
            raise InfinityUnsupported("cannot evaluate at the point at infinity")
    curve = basis[0].curve
    if any(f.curve != curve for f in basis):
        raise ValueError("the basis functions lie on different curves")
    for pt in pts:
        if not curve.contains(pt):
            raise ValueError(f"{pt!r} is not on {curve!r}")
    try:
        rows = tuple(evaluate_rows(basis, pts))
    except PoleAtPoint as exc:
        raise PoleAtEvaluationPoint(str(exc)) from exc
    return LinearCode(curve.field.p, len(pts), rows)


def divided_rows(
    rows: Sequence[Sequence[int]], values: Sequence[int], p: int
) -> list[list[int]]:
    """The rows with column n divided by values[n], as canonical residues.

    This is the one column-scaling rule: one inverse per column, then one
    product per entry. A zero value is a pole of the inverse at that column.
    With `rows` the evaluation code of a basis and `values` the values of a
    unit h at the same points, the result is the evaluation code of h^-1
    times that basis; scaling by units keeps the rank of every column subset.
    """
    if any(len(row) != len(values) for row in rows):
        raise LengthMismatch(f"{len(values)} column scales for rows of another length")
    inv = column_inverses(values, p)
    return [[a * b % p for a, b in zip(row, inv)] for row in rows]


def column_inverses(values: Sequence[int], p: int) -> list[int]:
    """The inverse of each column scale, as `divided_rows` takes them, by one `field.inverses`.

    A zero value is a pole of the inverse at that column.
    """
    for n, v in enumerate(values):
        if v % p == 0:
            raise PoleAtEvaluationPoint(f"column {n} has scale 0: the inverse has a pole there")
    return inverses(values, p)


def min_distance(code: LinearCode) -> int:
    """Minimum Hamming weight over all nonzero codewords, by brute force."""
    if code.k == 0:
        raise ValueError("the zero code has no nonzero codewords")
    limit = bruteforce_cap(DEFAULT_CODEWORD_CAP)
    total = code.p**code.k - 1
    if total > limit:
        raise TooLarge(f"{total} codewords exceeds the brute-force cap {limit}")
    p = code.p
    reduced, pivots = linalg.rref(code.rows, p)
    gen = reduced[: len(pivots)]
    best = code.n
    for coeffs in product(range(p), repeat=code.k):
        if not any(coeffs):
            continue
        weight = 0
        for j in range(code.n):
            if sum(c * gen[i][j] for i, c in enumerate(coeffs)) % p:
                weight += 1
                if weight >= best:
                    break
        if weight < best:
            best = weight
            if best == 1:
                break
    return best


class SubsetRankReport(NamedTuple):
    """What one subset check ran, and the first (at most five) dependent subsets it met."""

    t: int
    mode: str  # "all" or "sample": the mode that ran
    checked: int
    total: int
    failures: tuple[tuple[int, ...], ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def subset_rank_check(
    code: LinearCode,
    t: int,
    mode: str = "all",
    sample_count: int = DEFAULT_SAMPLE_COUNT,
    seed: int = 0,
) -> SubsetRankReport:
    """Check that (all or sampled) t-subsets of code columns are independent.

    The columns are those of the rows the code holds. They span the code, as
    a generator matrix would, so every column subset has the same rank.
    Exhaustive checking falls back to seeded sampling above the cap, and a
    sample as large as every subset runs exhaustively; `mode` is what ran.
    Sampled subsets are the sorted draws of `Random(seed).sample(range(n), t)`:
    `_sampled_subsets` makes `sample`'s own `getrandbits` calls in its order,
    in both of its branches, so it draws the same subsets without the call.

    Each subset is ranked on one systematic form of the code. One `rref`
    gives row operations E with E·G = [I on P | A], P the k pivot columns.
    E is invertible, so every column subset S of E·G has the rank of the same
    subset of G. The s columns of S in P are distinct unit vectors e_i; with
    their slots i cleared from S's other t - s columns, the rank of S is s
    plus the rank of those masked columns, a minor of A off the information
    set. Only that minor is eliminated, and only when it has two or more
    columns.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    p = code.p
    reduced, pivots = linalg.rref(code.rows, p)
    k = len(pivots)
    if t > k:
        raise ValueError(f"t = {t} exceeds the code dimension {k}")
    limit = bruteforce_cap(DEFAULT_SUBSET_CAP)
    total = comb(code.n, t)
    if mode == "all" and total > limit:
        mode = "sample"
    elif mode == "sample" and total <= min(sample_count, limit):
        mode = "all"
    failures: list[tuple[int, ...]] = []
    if mode == "all":
        subsets: Iterable[tuple[int, ...]] = combinations(range(code.n), t)
    elif mode == "sample":
        if sample_count < 1:
            raise ValueError(f"sampled checking needs sample_count >= 1, got {sample_count}")
        subsets = _sampled_subsets(seed, code.n, t, sample_count)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    # Rank is unchanged by transposing, so each column of E·G is one packed
    # row of k slots, sized for t pivots. A pivot column clears its unit slot
    # from the subset's mask; the other columns are ranked under that mask.
    columns, slot = linalg.pack_for_elimination(list(zip(*reduced[:k])), p, t)
    bits = 8 * slot
    unit_slot = {c: ((1 << bits) - 1) << (i * bits) for i, c in enumerate(pivots)}
    every_slot = (1 << (bits * k)) - 1
    checked = 0
    for cols in subsets:
        checked += 1
        mask = every_slot
        rest = []
        for c in cols:
            if c in unit_slot:
                mask ^= unit_slot[c]
            else:
                rest.append(columns[c])
        if len(rest) > 1:
            minor = [v & mask for v in rest]
            independent = len(linalg.eliminate_packed(minor, k, p, slot, full=False)) == len(rest)
        else:
            independent = not rest or rest[0] & mask != 0
        if not independent:
            failures.append(cols)
            if len(failures) >= 5:
                break
    return SubsetRankReport(
        t=t,
        mode=mode,
        checked=checked,
        total=total,
        failures=tuple(failures),
    )


def _sampled_subsets(seed: int, n: int, t: int, count: int) -> Iterator[tuple[int, ...]]:
    """The first `count` of `sorted(Random(seed).sample(range(n), t))`, drawn directly.

    `Random.sample` takes each index with `_randbelow(m)`: getrandbits of
    m's bit length, drawn again while it is m or more. With n at most
    21 + 4^ceil(log4(3t)) (21 alone for t <= 5) it draws from a pool of the
    unpicked indices, the last one moved into each vacancy; above that it
    draws from all n and draws again on an index already picked. This helper
    makes the same getrandbits calls in the same order, so its subsets are
    the library's, without the calls and copies of a general sequence.
    """
    getrandbits = random.Random(seed).getrandbits
    setsize = 21
    if t > 5:
        setsize += 4 ** ceil(log(t * 3, 4))
    if n <= setsize:
        ranges = [(m, m.bit_length()) for m in range(n, n - t, -1)]
        everything = list(range(n))
        for _ in range(count):
            pool = everything[:]
            picked = []
            for m, width in ranges:
                j = getrandbits(width)
                while j >= m:
                    j = getrandbits(width)
                picked.append(pool[j])
                pool[j] = pool[m - 1]
            picked.sort()
            yield tuple(picked)
    else:
        width = n.bit_length()
        for _ in range(count):
            chosen: set[int] = set()
            for _ in range(t):
                j = getrandbits(width)
                while j >= n or j in chosen:
                    j = getrandbits(width)
                chosen.add(j)
            yield tuple(sorted(chosen))


class InformationSet(NamedTuple):
    columns: tuple[int, ...]
    achieved: int


def information_set(rows: Sequence[Sequence[int]], p: int, want: int) -> InformationSet:
    """Leftmost pivot columns of the matrix, truncated to `want` of them."""
    _, pivots = linalg.rref(rows, p)
    cols = pivots[:want]
    return InformationSet(columns=cols, achieved=len(cols))


def is_grs(code: LinearCode, alphas: Sequence[int], multipliers: Sequence[int]) -> bool:
    """Whether the code equals the span of the rows (nu_j * alpha_j^i), i < k."""
    if len(alphas) != code.n or len(multipliers) != code.n:
        raise LengthMismatch("need one evaluation point and one multiplier per coordinate")
    p = code.p
    grs_rows = [
        [m % p * pow(a % p, i, p) % p for a, m in zip(alphas, multipliers)]
        for i in range(code.k)
    ]
    return linalg.row_space_equal(code.rows, grs_rows, p)
