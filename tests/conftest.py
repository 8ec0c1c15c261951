import random
from collections import Counter
from itertools import combinations, product
from math import comb
from operator import itemgetter

import pytest

from agpir import linalg
from agpir.agcode import DEFAULT_SUBSET_CAP, LinearCode, SubsetRankReport, bruteforce_cap
from agpir.curve import (
    AffinePoint,
    EllipticCurve,
    PointAtInfinity,
    ProjectiveLine,
    _chi_table,
    _cube_table,
)
from agpir.errors import (
    DuplicatePoint,
    InconsistentSystem,
    InfinityUnsupported,
    PoleAtEvaluationPoint,
    PoleAtPoint,
    ShapeMismatch,
    WrongCurveKind,
)
from agpir.field import PrimeField
from agpir.function_space import place_degree


@pytest.fixture(scope="session")
def f43():
    return PrimeField(43)


@pytest.fixture(scope="session")
def f127():
    return PrimeField(127)


@pytest.fixture(scope="session")
def curve43(f43):
    # y^2 = x^3 + 9, the 57-point curve used throughout
    return EllipticCurve(f43, 0, 9)


@pytest.fixture(scope="session")
def curve127(f127):
    # y^2 = x^3 + x + 33, 150 points, one rational zero of y
    return EllipticCurve(f127, 1, 33)


@pytest.fixture(scope="session")
def line43(f43):
    return ProjectiveLine(f43)


class ZeroRng:
    """Stub generator that always draws zero (forces all noise off)."""

    def getrandbits(self, _k):
        return 0


def point_counts_reference(q, coefficients):
    """(a, b, #E(a, b)) by one q-term character sum per curve: the reference for `_point_counts`.

    #E = q + 1 + sum over x of chi(x^3 + a x + b), with chi the Legendre
    symbol; (a, b) with 4a^3 + 27b^2 = 0 are singular and skipped.
    """
    chi, cubes = _chi_table(q), _cube_table(q)
    for a, b in coefficients:
        if (4 * a**3 + 27 * b * b) % q:
            yield a, b, q + 1 + sum(chi[(cubes[x] + a * x + b) % q] for x in range(q))


def server_view_reference(table, server):
    """One server's column of a table, read cell by cell: the reference for `server_view`."""
    get = itemgetter(server)
    return tuple([tuple(map(get, row)) for row in table])


def eval_at_reference(f, point):
    """One value of a factored function, computed entry by entry: the reference for `eval_at`.

    The order of f at an affine point (x0, y0) is the exponent e of x - x0,
    or 2e + k at a two-torsion point (y0 = 0), where k is the power of y.
    """
    if isinstance(point, PointAtInfinity):
        raise InfinityUnsupported("evaluation at infinity is not supported")
    if not f.curve.contains(point):
        raise ValueError(f"{point!r} is not on {f.curve!r}")
    p = f.curve.field.p
    x0 = point.x
    e = dict(f.x_factors).get(x0, 0)
    order = 2 * e + f.y_exp if point.y == 0 else e
    if order < 0:
        raise PoleAtPoint(f"{f!r} has a pole at {point!r}")
    if order > 0:
        return 0
    value = f.scalar
    for alpha, exp in f.x_factors:
        if alpha != x0:
            value = value * pow(x0 - alpha, exp, p) % p
    if point.y == 0:
        return value * pow(3 * x0 * x0 + f.curve.a, -e, p) % p
    if f.y_exp:
        value = value * pow(point.y, f.y_exp, p) % p
    return value


def values_at_reference(f, points):
    """One row of a factored function, a `pow` per entry and atom: the `evaluate_rows` reference.

    Each atom is applied to the whole row with the atom's own zero read as
    1; the order rule then runs only at the points over one of f's alphas and
    at the two-torsion points, and raises `PoleAtPoint` at the first pole.
    """
    p = f.curve.field.p
    exps = dict(f.x_factors)
    xs = [pt.x for pt in points]
    ys = [pt.y for pt in points]
    special = []
    if not exps.keys().isdisjoint(xs) or 0 in ys:
        for i, pt in enumerate(points):
            if pt.x in exps or pt.y == 0:
                e = exps.get(pt.x, 0)
                order = 2 * e + f.y_exp if pt.y == 0 else e
                if order < 0:
                    raise PoleAtPoint(f"{f!r} has a pole at {pt!r}")
                special.append((i, e, order))
    row = [f.scalar] * len(xs)
    for alpha, exp in f.x_factors:
        row = [v * pow(x0 - alpha or 1, exp, p) % p for v, x0 in zip(row, xs)]
    if f.y_exp:
        row = [v * pow(y0 or 1, f.y_exp, p) % p for v, y0 in zip(row, ys)]
    for i, e, order in special:
        if order > 0:
            row[i] = 0
        elif ys[i] == 0:
            x0 = xs[i]
            row[i] = row[i] * pow(3 * x0 * x0 + f.curve.a, -e, p) % p
    return tuple(row)


def valuation_reference(f, place):
    """Order of vanishing of f at a place (negative at poles).

    At an affine point (x0, y0) it is the exponent e of x - x0, or 2e + k at
    a two-torsion point (y0 = 0), where k is the power of y; at every other
    place it is the coefficient of `f.divisor()`.
    """
    if isinstance(place, AffinePoint):
        if not f.curve.contains(place):
            raise ValueError(f"{place!r} is not on {f.curve!r}")
        e = dict(f.x_factors).get(place.x, 0)
        return 2 * e + f.y_exp if place.y == 0 else e
    place_degree(place)  # a TypeError for anything that is not a place
    if f.curve.genus == 0 and not isinstance(place, PointAtInfinity):
        raise WrongCurveKind(f"{place!r} only exists on an elliptic curve")
    return f.divisor().coeff(place)


def evaluation_code_reference(basis, points):
    """`evaluation_code` with one `eval_at_reference` call per (function, point) entry."""
    if not basis:
        raise ValueError("an evaluation code needs a non-empty basis")
    pts = tuple(points)
    if len(set(pts)) != len(pts):
        raise DuplicatePoint("evaluation points must be distinct")
    for pt in pts:
        if isinstance(pt, PointAtInfinity):
            raise InfinityUnsupported("cannot evaluate at the point at infinity")
    try:
        rows = tuple(tuple(eval_at_reference(f, pt) for pt in pts) for f in basis)
    except PoleAtPoint as exc:
        raise PoleAtEvaluationPoint(str(exc)) from exc
    return LinearCode(basis[0].curve.field.p, len(pts), rows)


def decode_reference(inst, responses):
    """`decode` by a solve on its own information set and a re-encode of every symbol.

    The information set and the inverse there come from `decode_rows`
    alone, not from the instance's decode state.
    """
    if len(responses) != inst.n:
        raise ShapeMismatch(f"expected {inst.n} response symbols, got {len(responses)}")
    p = inst.p
    k = len(inst.decode_rows)
    cols, reduced = linalg.pivot_solve(inst.decode_rows, p, k)
    sub_inv = [row[inst.n :] for row in reduced]
    picked = [responses[c] % p for c in cols]
    coeffs = linalg.mat_vec(list(zip(*sub_inv)), picked, p)
    expected = linalg.mat_vec(list(zip(*inst.decode_rows)), coeffs, p)
    for n, (want, got) in enumerate(zip(expected, responses)):
        if want != got % p:
            raise InconsistentSystem(f"response symbol {n} is outside the decode row space")
    return tuple(coeffs[: inst.l])


def solve_decode_reference(rows, p, big_l, n):
    """(dropped candidate, fragment rows, parity checks) from one elimination of [R | E].

    The reference for the build's closed forms. R is the decode rows on the
    candidates and E the first L columns of I_k. The kept candidates are the
    pivots, filled up to N with the leftmost other candidates, and the build
    drops at most one. B is R's block on the pivots, so fragment row l is
    column l of B^-1 at the pivots and 0 at a spare, and the check of spare
    symbol n is -(B^-1 R)[j][n] at the j-th pivot, 1 at n and 0 at the other
    spares. None when the rows are dependent.
    """
    solved = linalg.pivot_solve(rows, p, big_l)
    if solved is None:
        return None
    pivots, reduced = solved
    width = len(rows[0])
    spare = sorted(set(range(width)) - set(pivots))
    keep = sorted(pivots + tuple(spare[: n - len(pivots)]))
    # Kept symbol m's row of B^-1 [R | E] at a pivot, None at a spare.
    lead = iter(reduced)
    solve = [None if idx in spare else next(lead) for idx in keep]
    fragment_rows = tuple(zip(*(r[width:] if r else (0,) * big_l for r in solve)))
    parity_checks = tuple(
        (m, tuple(-r[keep[m]] % p if r else int(c == m) for c, r in enumerate(solve)))
        for m, row in enumerate(solve)
        if not row
    )
    dropped = min(set(range(width + 1)) - set(keep))  # the width when every candidate is kept
    return dropped, fragment_rows, parity_checks


def eliminate_reference(rows, p, full):
    """Gaussian elimination on lists of residues, with leftmost pivoting.

    The reference for `linalg`'s packed elimination: it returns the same
    (matrix, pivot columns), reduced row echelon form when `full` is set and
    an echelon form otherwise, reducing every entry mod p after each update.
    """
    m = [[v % p for v in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [v * inv % p for v in m[r]]
        lead = m[r]
        for i in range(0 if full else r + 1, nrows):
            f = m[i][c]
            if i != r and f:
                m[i] = [(a - f * b) % p for a, b in zip(m[i], lead)]
        pivots.append(c)
        r += 1
    return m, tuple(pivots)


def rank_column_pivot(rows, p):
    """Rank over F_p by elimination scanning columns right to left.

    An independent oracle for `linalg.rank`, which scans left to right: the
    two pivot orders agree only on the number of pivots.
    """
    m = [[v % p for v in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    r = 0
    for c in range(ncols - 1, -1, -1):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [v * inv % p for v in m[r]]
        lead = m[r]
        for i in range(r + 1, nrows):
            f = m[i][c]
            if f:
                m[i] = [(a - f * b) % p for a, b in zip(m[i], lead)]
        r += 1
    return r


def subset_rank_check_reference(code, t, mode="all", sample_count=300, seed=0):
    """`subset_rank_check` with one `linalg.rank` per subset, each packing its t columns.

    The reference for the check that packs the code's columns once: the same
    subsets in the same order, the same mode fallback and the same stop after
    five failures, counting the subsets that were ranked.
    """
    if t > code.k:
        raise ValueError(f"t = {t} exceeds the code dimension {code.k}")
    if t < 0:
        raise ValueError("t must be >= 0")
    total = comb(code.n, t)
    limit = bruteforce_cap(DEFAULT_SUBSET_CAP)
    if mode == "all" and total > limit:
        mode = "sample"
    elif mode == "sample" and total <= min(sample_count, limit):
        mode = "all"
    if mode == "all":
        subsets = combinations(range(code.n), t)
    else:
        rng = random.Random(seed)
        subsets = (tuple(sorted(rng.sample(range(code.n), t))) for _ in range(sample_count))
    columns = list(zip(*code.rows))
    failures = []
    checked = 0
    for cols in subsets:
        checked += 1
        if linalg.rank([columns[c] for c in cols], code.p) < t:
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


def joint_oracle_reference(codes, bases_a, bases_b, p):
    """Whether the joint view of all cells has one distribution under both bases.

    The reference for `sim_harness`'s per-cell oracles: cell [l][m] is
    bases[l][m] plus a codeword of the rows codes[l], already restricted to
    the colluding servers, and the joint view of all L*M cells is enumerated
    over every choice of one codeword per cell, p^(dim*L*M) draws per side.
    """

    def codewords(rows):
        return [
            tuple(sum(c * v for c, v in zip(combo, col)) % p for col in zip(*rows))
            for combo in product(range(p), repeat=len(rows))
        ]

    tables = [codewords(rows) for rows in codes]

    def joint(bases):
        cells = [
            [tuple((b + v) % p for b, v in zip(base, word)) for word in table]
            for table, row in zip(tables, bases, strict=True)
            for base in row
        ]
        return Counter(product(*cells))

    return joint(bases_a) == joint(bases_b)
