"""Materialize the genus-0 and genus-1 retrieval schemes and run the protocol.

A built instance is fully deterministic in its parameters: fragment points
are the canonically smallest usable points, evaluation points are the first
admissible points (less the one candidate the closed form drops at genus
1), and all protocol randomness flows through one caller-supplied generator
with a fixed stream order (security noise first, then privacy noise, each
fragment-major then file-major). Each noise coefficient is drawn by rejection from
`getrandbits(p.bit_length())`, the loop `random.Random.randrange(p)` runs,
so the stream matches drawing every coefficient with `randrange(p)`.

Fragments are plain field scalars: the encoding space is the constants, so
the decoded coefficient on each fragment basis function is the fragment
itself.
"""

from __future__ import annotations

import random
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice, repeat
from math import prod
from operator import mul
from typing import NamedTuple

from . import linalg, sizes
from .agcode import (
    DEFAULT_SAMPLE_COUNT,
    LinearCode,
    SubsetRankReport,
    column_inverses,
    divided_rows,
    evaluation_code,
    subset_rank_check,
)
from .curve import (
    INFINITY,
    AffinePoint,
    Curve,
    CurvePoint,
    ProjectiveLine,
    hasse_window,
    resolve_curve,
)
from .errors import (
    BadIndex,
    BadL,
    BadParams,
    CurveTooSmall,
    DescriptorMismatch,
    Infeasible,
    InconsistentSystem,
    PoleAtEvaluationPoint,
    ShapeMismatch,
    UncertifiedRows,
)
from .field import PrimeField, inverses
from .function_space import (
    Divisor,
    RationalFunction,
    Y_ZEROS,
    basis_poles_at_infinity,
    interp_basis_g0,
    interp_basis_g1,
    noise_basis_g1,
)


class Table(tuple):
    """A share or query table, indexed [fragment][file][server].

    It is the plain nested tuple, so it compares and serializes as one. Its
    `views` regroup it once into every server's cells, in one C-level pass,
    so the N servers of a read cost one pass over the table, not N.
    """

    @cached_property
    def views(self) -> tuple[ServerView, ...]:
        """Every server's column of the table, one `ServerView` per server.

        A view keeps the server's L·M cells flat, fragment-major then
        file-major, with the shape (L, M). One `zip` over the table's cells
        in that order yields all N of them. Empty when the table has no
        servers, because it has no cells (L = 0 or M = 0) or its cells are
        empty (N = 0): `server_view` then refuses every server index.
        """
        if len(set(map(len, self))) > 1:
            raise ShapeMismatch("table rows hold different numbers of files")
        try:
            columns = tuple(zip(*chain.from_iterable(self), strict=True))
        except ValueError:
            raise ShapeMismatch("table cells hold different numbers of servers") from None
        shape = (len(self), len(self[0]) if self else 0)
        return tuple(map(ServerView, columns, repeat(shape)))


class ServerView(NamedTuple):
    """One server's column of a table: its L·M cells, fragment-major then file-major.

    `shape` is (L, M). Only `Table.views` makes these records.
    """

    cells: tuple[int, ...]
    shape: tuple[int, int]


@dataclass(frozen=True)
class SchemeParams:
    """Parameters of one scheme: prime p, genus, security X, privacy T, fragments L."""

    p: int
    genus: int
    x: int
    t: int
    l: int
    curve: tuple[int, int] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.genus not in (0, 1):
            raise BadParams(f"genus must be 0 or 1, got {self.genus}")
        sizes.check_levels(self.x, self.t)
        if self.l < 1:
            raise BadParams(f"need at least one fragment per file, got L = {self.l}")
        if self.genus == 1 and self.l % 2 == 0:
            raise BadL(f"genus 1 requires an odd fragment count, got L = {self.l}")
        if self.genus == 0 and self.curve is not None:
            raise BadParams("genus 0 does not take curve coefficients")


@dataclass(frozen=True)
class Database:
    """M files of L fragments each; fragments are canonical residues mod p."""

    p: int
    files: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for f in self.files:
            if any(not 0 <= v < self.p for v in f):
                raise ValueError("fragments must be canonical residues in [0, p)")

    @classmethod
    def random(cls, p: int, num_files: int, num_fragments: int, rng: random.Random) -> "Database":
        return cls(
            p,
            tuple(
                tuple(rng.randrange(p) for _ in range(num_fragments)) for _ in range(num_files)
            ),
        )

    def __len__(self) -> int:
        return len(self.files)


@dataclass(frozen=True)
class SchemeInstance:
    """A fully materialized scheme: points, bases, codes, and the decode solver.

    Security space l is h_l^-1 * L(D) for the fragment basis function h_l and
    one Riemann-Roch space L(D), so the instance keeps the basis of L(D) and
    its evaluation code once. Fragment l's code divides column n by h_l there
    (`info_rows[l][n]`): `store` divides cells of the shared code by it
    (`sec_units`), and only criteria 5 and 9 and the tests read `sec_codes`.
    At genus 0 the rows of `priv_code` and `sec_code` are the first T and X
    of `noise_rows`.
    `decode` reads `fragment_rows`, whose row l gives fragment l of any
    response vector in the row space of `decode_rows`, and `parity_checks`,
    one row (n, h) orthogonal to that space per spare symbol n (none at
    genus 0, one at genus 1), with h 1 at n, 0 at the other spares and
    -(B^-1 R)[j][n] at the j-th pivot. At genus 0 `fragment_rows` is the
    Cauchy-Vandermonde closed form; at genus 1 it and the parity check are
    read off the null space of the decode rows on whole fibers (see
    `build_scheme`).
    """

    params: SchemeParams
    curve: Curve
    fragment_points: tuple[CurvePoint, ...]
    eval_points: tuple[CurvePoint, ...]
    info_basis: tuple[RationalFunction, ...]
    noise_basis: tuple[RationalFunction, ...]
    priv_basis: tuple[RationalFunction, ...]
    sec_basis: tuple[RationalFunction, ...]
    info_rows: tuple[tuple[int, ...], ...]
    noise_rows: tuple[tuple[int, ...], ...]
    priv_code: LinearCode
    sec_code: LinearCode
    fragment_rows: tuple[tuple[int, ...], ...]
    parity_checks: tuple[tuple[int, tuple[int, ...]], ...]

    @property
    def p(self) -> int:
        return self.params.p

    @property
    def genus(self) -> int:
        return self.params.genus

    @property
    def l(self) -> int:
        return self.params.l

    @property
    def x(self) -> int:
        return self.params.x

    @property
    def t(self) -> int:
        return self.params.t

    @property
    def n(self) -> int:
        return len(self.eval_points)

    @property
    def rate(self) -> Fraction:
        return Fraction(self.l, self.n)

    @property
    def sec_dim(self) -> int:
        return len(self.sec_basis)

    @property
    def priv_dim(self) -> int:
        return len(self.priv_basis)

    @cached_property
    def descriptor(self) -> dict:
        """`scheme_descriptor(self)`, built once and shared by every transcript: read-only."""
        return scheme_descriptor(self)

    @cached_property
    def decode_rows(self) -> tuple[tuple[int, ...], ...]:
        return self.info_rows + self.noise_rows

    @cached_property
    def sec_bases(self) -> tuple[tuple[RationalFunction, ...], ...]:
        """Fragment l's security basis, h_l^-1 times each shared basis function.

        `scheme_descriptor` and `noise_products` read it; the noise
        containment check reads the factors h_l and w_i instead.
        """
        inverses = map(RationalFunction.inverse, self.info_basis)
        return tuple(tuple(h_inv * w for w in self.sec_basis) for h_inv in inverses)

    @cached_property
    def sec_codes(self) -> tuple[LinearCode, ...]:
        rows, p = self.sec_code.rows, self.p
        return tuple(
            LinearCode(p, self.n, tuple(map(tuple, divided_rows(rows, values, p))))
            for values in self.info_rows
        )

    # Packed forms of the rows the protocol combines (see linalg.PackedRows);
    # filled on first use, so building and verifying an instance never pays for them.

    @cached_property
    def packed_priv(self) -> linalg.PackedRows:
        return linalg.PackedRows.of(self.priv_code.rows, self.p)

    @cached_property
    def packed_info(self) -> tuple[int, ...]:
        """The information rows, packed as extra terms of `packed_priv`."""
        return tuple(map(self.packed_priv.pack, self.info_rows))

    @cached_property
    def packed_sec(self) -> linalg.PackedRows:
        """The shared security code, the one code every share is masked with."""
        return linalg.PackedRows.of(self.sec_code.rows, self.p)

    @cached_property
    def sec_units(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Per fragment l: the inverses of `info_rows[l]` (`column_inverses`), and the row packed."""
        p, pack = self.p, self.packed_sec.pack
        return tuple((tuple(column_inverses(v, p)), pack(v)) for v in self.info_rows)

    @cached_property
    def packed_fragments(self) -> linalg.PackedRows:
        """The N columns of `fragment_rows`: their combination by the responses is the fragments."""
        return linalg.PackedRows.of(tuple(zip(*self.fragment_rows)), self.p)

    def noise_divisor(self) -> Divisor:
        """Upper bound on every noise-product divisor."""
        bound = {INFINITY: sizes.noise_poles(self.genus, self.x, self.t)}
        if self.genus == 1:
            bound[Y_ZEROS] = 1
        return Divisor.of(self.curve, bound)

    def __repr__(self) -> str:
        return (
            f"SchemeInstance(p={self.p}, genus={self.genus}, X={self.x}, T={self.t}, "
            f"L={self.l}, N={self.n}, rate={self.rate})"
        )


def build_scheme(params: SchemeParams) -> SchemeInstance:
    """Build and sanity-check a deterministic scheme instance.

    The genus decides only the geometry and the closed form; the rest is one
    pipeline, with no elimination. One `evaluation_code` call evaluates the
    info and noise functions, and with them the y x^i of the privacy and
    security bases at genus 1: their x-powers are the first noise functions,
    so their rows are the first noise rows. At genus 0 it evaluates on the
    candidates. At genus 1 the candidates are fibers (x, y), (x, -y), and a
    function y^e g(x) is (-1)^e times its first value at the second point,
    so it evaluates on the first point of each fiber, and one `_fiber_row`
    per function reads the candidates off those values and the parity of e.
    The closed form reads the evaluated decode rows through its certificate:
    at genus 0 `_line_fragment_rows` gives `fragment_rows` and every
    candidate is kept, so the rows are used as they are; at genus 1
    `_fiber_decode` checks the parities and the partner points that the
    sign rule takes for granted, gives `fragment_rows` and the parity check,
    and names the one candidate to drop. Rows the certificate refuses raise
    the build condition they break when they are dependent, and
    `UncertifiedRows` otherwise.
    """
    genus, p, big_l = params.genus, params.p, params.l
    n = sizes.num_servers(genus, big_l, params.x, params.t)
    geometry = _line_geometry if genus == 0 else _elliptic_geometry
    curve, fragment, candidates, info, noise = geometry(params, PrimeField(p), n)
    priv = basis_poles_at_infinity(curve, sizes.masking_poles(genus, params.t))
    # The shared security space; each fragment's is a unit multiple of it.
    sec = basis_poles_at_infinity(curve, sizes.masking_poles(genus, params.x))
    # Each masking basis is x-powers, then y x^i at genus 1: the longer basis holds every y x^i.
    basis = info + noise + tuple(f for f in max(priv, sec, key=len) if f.y_exp)
    points = candidates[::2] if genus else candidates
    rows = evaluation_code(basis, points).rows
    k = len(info) + len(noise)
    _check_units(info, rows[:big_l], points)
    if genus:
        alphas = [pt.x for pt in fragment[::2]]
        odd = [f.y_exp % 2 for f in basis]
        solved = _fiber_decode(curve, alphas, candidates, rows[:big_l], rows[big_l:k], odd[:k])
        rows = tuple(tuple(_fiber_row(row, s, p)[: n + 1]) for row, s in zip(rows, odd))
    else:
        closed = _line_fragment_rows(candidates, rows[:big_l], rows[big_l:k], p)
        solved = None if closed is None else (n, closed, ())
    if solved is None:
        _raise_rank_defect(big_l, rows[:big_l], rows[big_l:k], p)
        name = "Cauchy-Vandermonde" if genus == 0 else "whole-fiber"
        raise UncertifiedRows(f"the decode rows fail the genus-{genus} {name} certificate")
    dropped, fragment_rows, parity_checks = solved
    eval_points = candidates[:dropped] + candidates[dropped + 1 :]
    if dropped < len(candidates):
        rows = tuple(row[:dropped] + row[dropped + 1 :] for row in rows)
    noise_rows, y_rows = rows[big_l:k], rows[k:]
    return SchemeInstance(
        params=params,
        curve=curve,
        fragment_points=fragment,
        eval_points=eval_points,
        info_basis=info,
        noise_basis=noise,
        priv_basis=priv,
        sec_basis=sec,
        info_rows=rows[:big_l],
        noise_rows=noise_rows,
        priv_code=LinearCode(p, n, _masking_rows(priv, noise_rows, y_rows)),
        sec_code=LinearCode(p, n, _masking_rows(sec, noise_rows, y_rows)),
        fragment_rows=fragment_rows,
        parity_checks=parity_checks,
    )


def _masking_rows(basis, noise_rows, y_rows) -> tuple:
    """A masking basis's rows by position: its x-powers are the first noise rows.

    The certificate has read those rows as the values of 1, x, x^2, ..., and
    the y x^i follow in the order that `build_scheme` evaluated them.
    """
    count = sum(not f.y_exp for f in basis)
    return noise_rows[:count] + y_rows[: len(basis) - count]


def _line_fragment_rows(candidates, info_rows, noise_rows, p: int) -> tuple | None:
    """The genus-0 `fragment_rows` in closed form, or None when the rows are not the line's.

    The certificate reads the evaluated rows themselves: the candidates are
    beta_n = L + n for n < N with L + N <= p, info row l is 1/(beta_n - l)
    and noise row j is beta_n^j. The decode matrix is then the
    Cauchy-Vandermonde matrix of cross-subspace alignment on the disjoint
    points alpha_l = l and beta_n, which is nonsingular: no pivot is spared
    and there is no parity check. Times A(beta_n), response n is a
    polynomial of degree below N read at beta_n, and fragment l is its value
    at alpha_l over A'(alpha_l), for A(x) = prod_l (x - alpha_l). By
    barycentric interpolation, with w_n the weights of the beta and
    ell(x) = prod_n (x - beta_n), entry (l, n) is
    A(beta_n) w_n ell(alpha_l) / ((alpha_l - beta_n) A'(alpha_l)): the info
    row times one factor per row and one per column. Each factor is a
    signed ratio of factorials below p. The inverses 1/m for m < L + N,
    which the info rows must equal, are one `field.inverses` batch, so one
    inversion; the factorials and the inverse factorials are running products.
    """
    big_l, n = len(info_rows), len(candidates)
    top = big_l + n - 1
    if top >= p or big_l + len(noise_rows) != n:
        return None
    if [pt.x for pt in candidates] != list(range(big_l, big_l + n)):
        return None
    # inverse[m] = 1/m, so info row l is the slice from L - l.
    inverse = [0] + inverses(range(1, top + 1), p)
    if any(list(row) != inverse[big_l - l : top + 1 - l] for l, row in enumerate(info_rows)):
        return None
    power = [1] * n
    for row in noise_rows:
        if list(row) != power:
            return None
        power = [v * x % p for x, v in enumerate(power, big_l)]
    fact, inv_fact = [1] * (top + 1), [1] * (top + 1)
    for m in range(1, top + 1):
        fact[m] = fact[m - 1] * m % p
        inv_fact[m] = inv_fact[m - 1] * inverse[m] % p
    # A(beta_n) w_n = (L+n)!/n! * (-1)^(N-1-n) / (n! (N-1-n)!).
    cols = [
        (-1) ** (n - 1 - m) * fact[big_l + m] * inv_fact[m] ** 2 * inv_fact[n - 1 - m] % p
        for m in range(n)
    ]
    # ell(alpha_l) / ((alpha_l - beta_n) A'(alpha_l)) times (beta_n - alpha_l), with
    # ell(alpha_l) = (-1)^N (L+N-1-l)!/(L-1-l)! and A'(alpha_l) = (-1)^(L-1-l) l! (L-1-l)!.
    scales = [
        (-1) ** (n + big_l - l) * fact[top - l] * inv_fact[big_l - 1 - l] ** 2 * inv_fact[l] % p
        for l in range(big_l)
    ]
    return tuple(
        tuple([s * c * v % p for c, v in zip(cols, row)]) for s, row in zip(scales, info_rows)
    )


def _fiber_decode(curve, alphas, candidates, info_rows, noise_rows, odd) -> tuple | None:
    """The genus-1 (dropped candidate, `fragment_rows`, `parity_checks`), or None.

    The layout, checked before any arithmetic: k decode rows, L = 2J - 1 of
    them info rows for J alphas, and N + 1 = k + 2 candidates. Candidates
    2f and 2f + 1 are the fiber (x_f, y_f), (x_f, -y_f); when k is odd the
    last candidate's partner is column 2G - 1, so the routine reads G whole
    fibers. The rows hold each decode function's value at the first point
    of each fiber, and odd[i] is the parity in y of decode function i: the
    build reads its value at the second point as (-1)^odd[i] times the
    first. The certificate checks what that sign rule takes for granted:
    the parities are the layout's (J even info functions, then J - 1 odd
    ones; h even noise functions, then odd ones), and candidate 2f + 1 is
    (x_f, -y_f). It reads the rows one product per entry: info row j is
    1/(x - alpha_j) and info row J + j is y/((x - alpha_j)(x - alpha_J));
    the noise rows are x^0..x^(h-1) and then x^0/y..x^(G-J-1)/y. The points
    read lie on the curve, and y != 0 there. A repeated abscissa or alpha,
    or R(alpha_j) = 0, returns None too.

    Every decode function is A(x) + y B(x), and fiber f's responses give
    A(x_f) = (r+ + r-)/2 and B(x_f) = (r+ - r-)/(2 y_f). Take
    Pi(x) = prod_j (x - alpha_j), ell(x) = prod_f (x - x_f), w_f the
    barycentric weights of the x_f, R = x^3 + ax + b and the functional
    lambda(P) = sum_j P(alpha_j) / (Pi'(alpha_j) R(alpha_j)). Both A Pi and
    P = B R Pi have degree below G, so Lagrange interpolation on all G
    nodes is exact: fragment j < J, the residue of A at alpha_j, is
    (A Pi)(alpha_j) / Pi'(alpha_j), and fragment J + j is
    (alpha_j - alpha_J) P(alpha_j) / (Pi'(alpha_j) R(alpha_j)). The null
    space of the decode rows on the 2G points is closed form too:
    x_f^e w_f Pi(x_f) on both points of fiber f while x^e A Pi stays below
    degree G - 1 (e = 0, or 0 and 1 when k is odd), and
    +-y_f Pi(x_f) lambda(L_f) for the Lagrange basis L_f, as lambda(P) = 0,
    the residues of B R at the alphas summing to 0, is the one condition on
    P (Riemann-Roch; H. Stichtenoth, Algebraic Function Fields and Codes).

    A right-to-left reduction of the null space names the columns that
    leftmost pivoting leaves out: from the right, the partner (if any), the
    dropped candidate and the spare. Its basis vector of each pivot is 1
    there and 0 at the other pivots. The parity row is the one of the
    spare, and each fragment row is its functional less, pivot by pivot,
    its entry there times that pivot's vector: the result of eliminating
    the rows on the candidates, which the tests hold it to. When the
    partner is not left out, those rows are dependent: None.
    """
    p = curve.field.p
    big_l, big_j = len(info_rows), len(alphas)
    width = big_l + len(noise_rows) + 2
    fibers = (width + 1) // 2
    h = len(noise_rows) + big_j - fibers  # the x-power noise rows come first
    if big_l != 2 * big_j - 1 or h < 1 or len(candidates) != width:
        return None
    if list(odd) != [0] * big_j + [1] * (big_j - 1) + [0] * h + [1] * (fibers - big_j):
        return None
    xs = [pt.x for pt in candidates[::2]]
    ys = [pt.y for pt in candidates[::2]]
    if [y * y % p for y in ys] != [curve.rhs(x) for x in xs]:
        return None
    if candidates[1::2] != tuple(AffinePoint(x, -y % p) for x, y in zip(xs, ys))[: width // 2]:
        return None
    if len({*xs, *alphas}) < fibers + big_j:
        return None

    ones = [1] * fibers

    def times(values, factors):
        return [v * f % p for v, f in zip(values, factors)]

    # u[j][f] = 1/(x_f - alpha_j).
    u = info_rows[:big_j]
    x_minus = [[x - a for x in xs] for a in alphas]
    y_last = times(ys, u[-1])
    if not all(times(v, dx) == ones for v, dx in zip(u, x_minus)):
        return None
    if not all(times(row, dx) == y_last for row, dx in zip(info_rows[big_j:], x_minus)):
        return None
    # Each noise row is the one before times x, but x^0 = 1 and x^0 / y = 1 / y.
    for i, row in enumerate(noise_rows):
        if i == 0:
            ok = list(row) == ones
        elif i == h:
            ok = times(row, ys) == ones
        else:
            ok = list(row) == times(prev, xs)
        if not ok:
            return None
        prev = row

    rhs = [curve.rhs(a) for a in alphas]
    # One product each, reduced once: its factors are below p in size.
    denominators = [prod([x - z for z in xs if z != x]) % p for x in xs] + [
        prod([a - b for b in alphas if b != a], start=r) % p for a, r in zip(alphas, rhs)
    ]
    if not all(denominators):
        return None
    inv = inverses(denominators, p)
    # weights[j] = ell(alpha_j) / (Pi'(alpha_j) R(alpha_j)); cols[f] = w_f Pi(x_f).
    weights = [prod([a - x for x in xs], start=g) % p for a, g in zip(alphas, inv[fibers:])]
    cols = times([prod(col) % p for col in zip(*x_minus)], inv[:fibers])
    # y_f w_f Pi(x_f) sum_j weights[j] u_j[f], which is -y_f Pi(x_f) lambda(L_f).
    tilt = [c * y * sum(map(mul, weights, col)) % p for c, y, col in zip(cols, ys, zip(*u))]
    null = [_fiber_row(tilt, 1, p)]
    power = cols
    for _ in range(fibers - big_j - h):
        null.append(_fiber_row(power, 0, p))
        power = times(power, xs)
    pivots, basis = _right_echelon(null, p)
    # Two non-pivots among the candidates, or their rows are dependent.
    if any(c < width for c in pivots[:-2]):
        return None
    dropped, spare = pivots[-2:]

    def kept(row):
        return tuple(row[:dropped] + row[dropped + 1 : width])

    def zeroed(values, parity):
        """The functional less the null vector that zeroes it at the pivots, on the kept points."""
        row = _fiber_row(values, parity, p)
        for c, vector in zip(pivots, basis):
            v = row[c]
            row = [(a - v * b) % p for a, b in zip(row, vector)]
        return kept(row)

    half, last = (p + 1) // 2, alphas[-1]
    fragment_rows = []
    for g, r, row in zip(weights, rhs, u):
        scale = -g * r * half % p
        fragment_rows.append(zeroed([scale * c * v % p for c, v in zip(cols, row)], 0))
    for a, g, row in zip(alphas, weights, u[:-1]):
        scale = (last - a) * g * half % p
        fragment_rows.append(zeroed([scale * c * y * v % p for c, y, v in zip(cols, ys, row)], 1))
    return dropped, tuple(fragment_rows), ((spare, kept(basis[-1])),)


def _right_echelon(vectors, p: int) -> tuple[list[int], list[list[int]]]:
    """(pivots, basis) of the span of independent reduced vectors, reduced from the right.

    The pivots descend: they are the last nonzero entries that vectors of the
    span can have. basis[i] is 1 at pivots[i], 0 after it and at every other pivot.
    """
    pivots, basis, rest = [], [], [list(v) for v in vectors]
    while rest:
        lasts = [next(c for c in range(len(v) - 1, -1, -1) if v[c]) for v in rest]
        c = max(lasts)
        lead = rest.pop(lasts.index(c))
        scale = pow(lead[c], -1, p)
        lead = [v * scale % p for v in lead]
        basis, rest = (
            [[(a - v[c] * b) % p for a, b in zip(v, lead)] if v[c] else v for v in group]
            for group in (basis, rest)
        )
        pivots.append(c)
        basis.append(lead)
    return pivots, basis


def _fiber_row(values, odd: int, p: int) -> list[int]:
    """values[f] at the first point of fiber f, and (-1)^odd times it at the second."""
    row = [0] * (2 * len(values))
    row[0::2] = values
    row[1::2] = [-v % p for v in values] if odd else values
    return row


def _line_geometry(params: SchemeParams, field: PrimeField, n: int) -> tuple:
    """(line, fragment points, candidates, info basis, noise basis) at genus 0.

    Fragments sit at x = 0..L-1 and the N candidates right after them.
    """
    q, big_l, x, t = params.p, params.l, params.x, params.t
    need = sizes.points_needed(0, big_l, x, t)
    if q + 1 < need:
        raise Infeasible(
            f"genus 0 needs q + 1 >= 2L + X + T + 1; {q + 1} < {need} for "
            f"(q={q}, L={big_l}, X={x}, T={t})"
        )
    line = ProjectiveLine(field)
    fragment = tuple(AffinePoint(alpha) for alpha in range(big_l))
    candidates = tuple(AffinePoint(alpha) for alpha in range(big_l, big_l + n))
    noise = basis_poles_at_infinity(line, sizes.noise_poles(0, x, t))
    return line, fragment, candidates, interp_basis_g0(line, range(big_l)), noise


def _elliptic_geometry(params: SchemeParams, field: PrimeField, n: int) -> tuple:
    """(curve, fragment points, candidates, info basis, noise basis) at genus 1.

    One walk over x = 0, 1, ... reads only the fibers it uses: the first
    (L+1)/2 full fibers hold the fragment pairs, the later ones the N + 1
    candidates (the spare lets the build skip a point on which the decode
    rows would be dependent). The points are counted only when 2L + X + T
    + 11 + Z for Z = 3 exceeds the Hasse bound q + 1 - floor(2 sqrt q);
    below it every smooth curve has enough.
    """
    big_l, x, t = params.l, params.x, params.t
    curve = resolve_curve(field, params.curve)
    if sizes.points_needed(1, big_l, x, t, 3) > hasse_window(field.p)[0]:
        points = curve.point_count()
        z = len(curve.zeros_of_y())
        need = sizes.points_needed(1, big_l, x, t, z)
        if points < need:
            raise CurveTooSmall(
                f"curve has {points} rational points but 2L + X + T + 11 + Z = {need} "
                f"are needed for (L={big_l}, X={x}, T={t}, Z={z})"
            )
    j = (big_l + 1) // 2
    pairs = []
    candidates = []
    for abscissa in range(field.p):
        fiber = curve.fiber(abscissa)
        if len(fiber) < 2:
            continue
        if len(pairs) < j:
            pairs.append(fiber)
            continue
        candidates.extend(fiber)
        if len(candidates) > n:
            break
    fragment = tuple(pt for pair in pairs for pt in pair)
    noise = noise_basis_g1(curve, sizes.noise_poles(1, x, t))
    return curve, fragment, tuple(candidates[: n + 1]), interp_basis_g1(curve, pairs), noise


def _check_units(info, info_rows, candidates) -> None:
    """Every fragment basis function h must be nonzero at every candidate."""
    for h, row in zip(info, info_rows):
        if 0 in row:
            # h^-1 times the constant 1 is a security basis function.
            pole = candidates[row.index(0)]
            raise PoleAtEvaluationPoint(f"{h.inverse()!r} has a pole at {pole!r}")


def _decode_ranks(info_rows, noise_rows, p: int) -> tuple[int, int, int]:
    """(information rank, noise rank, combined rank) of the decode rows.

    Independent decode rows have blocks of full rank that meet only in 0, so
    one elimination decides all three when it finds full rank.
    """
    combined = linalg.rank(info_rows + noise_rows, p)
    if combined == len(info_rows) + len(noise_rows):
        return len(info_rows), len(noise_rows), combined
    return linalg.rank(info_rows, p), linalg.rank(noise_rows, p), combined


def _raise_rank_defect(big_l: int, info_rows, noise_rows, p: int) -> None:
    """Name the build condition that dependent decode rows break; return if they are independent."""
    info_rank, noise_rank, combined = _decode_ranks(info_rows, noise_rows, p)
    if info_rank != big_l:
        raise RuntimeError(f"fragment basis rank {info_rank} != L = {big_l}")
    if noise_rank != len(noise_rows):
        raise RuntimeError(
            f"noise spanning set is dependent: rank {noise_rank} of {len(noise_rows)}"
        )
    if combined != info_rank + noise_rank:
        raise RuntimeError("information and noise row spaces intersect")


# -- protocol ------------------------------------------------------------------------


def check_database(inst: SchemeInstance, db: Database) -> None:
    """The rule of `store` and the security oracle: F_p as the scheme's, M >= 1 files of L."""
    if db.p != inst.p:
        raise ShapeMismatch(f"database is over F_{db.p}, scheme over F_{inst.p}")
    if not db.files:
        raise ShapeMismatch("a database holds at least one file")
    if any(len(f) != inst.l for f in db.files):
        raise ShapeMismatch(f"every file must have exactly L = {inst.l} fragments")


def store(inst: SchemeInstance, db: Database, rng: random.Random) -> Table:
    """Encode the database: share [l][m] is h_l^-1 * (f_{m,l} * h_l + a `sec_code` codeword)."""
    check_database(inst, db)
    inverses, info = zip(*inst.sec_units)
    extras = [[file[ell] * row for file in db.files] for ell, row in enumerate(info)]
    return _masked(inst.packed_sec, extras, inst.p, rng, inverses)


def make_queries(
    inst: SchemeInstance, theta: int, num_files: int, rng: random.Random
) -> Table:
    """Queries for file theta (1-based), masked with privacy noise."""
    sizes.check_theta(theta, num_files)
    extras = [
        [base if m == theta - 1 else 0 for m in range(num_files)] for base in inst.packed_info
    ]
    return _masked(inst.packed_priv, extras, inst.p, rng)


def _masked(
    code: linalg.PackedRows,
    extras: Sequence[Sequence[int]],
    p: int,
    rng: random.Random,
    scales: Sequence[Sequence[int]] | None = None,
) -> Table:
    """Cell [l][m] is extras[l][m] plus a random codeword of `code`, times scales[l] by column.

    This is the one masking rule of shares and queries alike. The codeword
    coefficients over F_p are drawn in one `_draw` call and split cell by
    cell, fragment-major then file-major.
    """
    dim = len(code.rows)
    draws = iter(_draw(rng, p, dim * sum(map(len, extras))))
    return Table(
        tuple(code.combine(list(islice(draws, dim)), extra, scale) for extra in row)
        for row, scale in zip(extras, scales or repeat(None))
    )


def _draw(rng: random.Random, p: int, count: int) -> list[int]:
    """`[rng.randrange(p) for _ in range(count)]`, with the loop in C.

    `randrange(p)` draws `getrandbits(p.bit_length())` until a value is below
    p. Filtering one batch of draws per round and drawing only as many as are
    still missing consumes the same stream: the last draw is always accepted,
    so the generator ends in the same state.
    """
    bits = p.bit_length()
    out: list[int] = []
    while len(out) < count:
        out += filter(p.__gt__, map(rng.getrandbits, repeat(bits, count - len(out))))
    return out


def server_view(table: Table, server: int) -> ServerView:
    """One server's column of a share or query table, as a `ServerView`.

    It is read from the table's `views`, built on the first call, so every
    call for one server hands out the same record. The table is one that
    `store` or `make_queries` returned, or a loaded one wrapped once with
    `Table(...)`; anything else raises `TypeError`. A server outside 0..N-1
    raises `BadIndex`, and so does every server of a table without servers:
    one without cells, or whose cells are empty.
    """
    if not isinstance(table, Table):
        raise TypeError(f"server_view reads a Table, got {type(table).__name__}")
    views = table.views
    if not views:
        raise BadIndex(
            f"server index {server}: the table has no servers (no cells, or empty cells)"
        )
    if not 0 <= server < len(views):
        raise BadIndex(f"server index {server} outside 0..{len(views) - 1}")
    return views[server]


def server_respond(shares_n: ServerView, queries_n: ServerView, p: int) -> int:
    """The single response symbol: sum of share * query over all table cells.

    Both arguments are `ServerView`s, as `server_view` returns them, or
    `TypeError` is raised. Their (L, M) shapes must be equal, and each must
    hold L·M cells, or `ShapeMismatch` is raised; then the cells pair up in
    their flat order.
    """
    if not (isinstance(shares_n, ServerView) and isinstance(queries_n, ServerView)):
        raise TypeError(
            "server_respond reads two ServerViews, got "
            f"{type(shares_n).__name__} and {type(queries_n).__name__}"
        )
    if shares_n.shape != queries_n.shape:
        raise ShapeMismatch("share and query views have different shapes")
    l, m = shares_n.shape
    if not len(shares_n.cells) == len(queries_n.cells) == l * m:
        raise ShapeMismatch(f"views of shape {shares_n.shape} hold {l * m} cells")
    return sum(map(mul, shares_n.cells, queries_n.cells)) % p


def decode(inst: SchemeInstance, responses: Sequence[int]) -> tuple[int, ...]:
    """The fragments, `fragment_rows` times the responses, once every parity check holds."""
    if len(responses) != inst.n:
        raise ShapeMismatch(f"expected {inst.n} response symbols, got {len(responses)}")
    for n, row in inst.parity_checks:
        if sum(map(mul, row, responses)) % inst.p:
            raise InconsistentSystem(f"response symbol {n} is outside the decode row space")
    return inst.packed_fragments.combine(responses)


# -- verification ---------------------------------------------------------------------


@dataclass(frozen=True)
class SchemeReport:
    """What `verify_scheme` measured; `_checks` decides every verdict from it.

    `security` is the shared security code's report, which stands for each
    of the `fragments` (L) security codes. `passed` and `lines()` both read
    the one (text, verdict) list of `_checks`.
    """

    units_ok: bool
    info_rank: int
    noise_rank: int
    combined_rank: int
    num_decode_rows: int
    privacy: SubsetRankReport
    security: SubsetRankReport
    fragments: int

    def _checks(self) -> list[tuple[str, bool]]:
        info, total = self.info_rank, self.combined_rank
        return [
            ("fragment basis functions are units", self.units_ok),
            (f"information rank {info} equals L", info == self.fragments),
            (f"information + noise ranks add ({total} total)", total == info + self.noise_rank),
            ("evaluation map injective on the combined space", total == self.num_decode_rows),
            (f"privacy: {_independent(self.privacy)}", self.privacy.passed),
        ] + [
            (f"security fragment {ell}: {_independent(self.security)}", self.security.passed)
            for ell in range(1, self.fragments + 1)
        ]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self._checks())

    def lines(self) -> list[str]:
        return [verdict_line(text, ok) for text, ok in self._checks()]


def _independent(rep: SubsetRankReport) -> str:
    return f"{rep.t}-subsets independent ({rep.mode}, {rep.checked}/{rep.total})"


def verdict_line(text: str, ok: bool) -> str:
    """The one PASS/FAIL line format of `verify`; `agpir verify` exits 1 on a FAIL line."""
    return f"{'PASS' if ok else 'FAIL'}  {text}"


def verify_scheme(
    inst: SchemeInstance,
    subsets: str = "all",
    sample_count: int = DEFAULT_SAMPLE_COUNT,
    sample_seed: int = 0,
) -> SchemeReport:
    """Re-check the build conditions and the subset-rank collusion criteria.

    The report keeps only what was measured and decides each verdict from it.
    Every security code is the shared security code with its columns divided
    by a fragment basis function's values. Those values are units exactly
    when `units_ok` holds, and scaling columns by units keeps the rank of
    every column subset, so the shared code's subset check is each security
    code's check. When the shared security code and X are the privacy code
    and T, as they are at X = T, the two checks are one: the report depends
    only on the code, the level and the sampling, so it is taken once.
    """
    p = inst.p
    info_rank, noise_rank, combined = _decode_ranks(inst.info_rows, inst.noise_rows, p)
    privacy = subset_rank_check(
        inst.priv_code, inst.t, mode=subsets, sample_count=sample_count, seed=sample_seed
    )
    if (inst.sec_code.rows, inst.x) == (inst.priv_code.rows, inst.t):
        security = privacy
    else:
        security = subset_rank_check(
            inst.sec_code, inst.x, mode=subsets, sample_count=sample_count, seed=sample_seed
        )
    return SchemeReport(
        units_ok=all(v % p for row in inst.info_rows for v in row),
        info_rank=info_rank,
        noise_rank=noise_rank,
        combined_rank=combined,
        num_decode_rows=len(inst.decode_rows),
        privacy=privacy,
        security=security,
        fragments=inst.l,
    )


def noise_labels(inst: SchemeInstance) -> Iterator[str]:
    """The label of every cross-term product, in report order.

    Per fragment l: the security functions times the fragment's query
    function, then times each privacy function (j-major); after all
    fragments, the encoding function times each privacy function.
    """
    l, sec_dim, priv_dim = inst.l, len(inst.sec_basis), len(inst.priv_basis)
    pair_tails = [f"][{i}] * priv[{j}]" for j in range(priv_dim) for i in range(sec_dim)]
    for ell in range(l):
        head = f"sec[{ell}"
        yield from (f"{head}][{i}] * query[{ell}]" for i in range(sec_dim))
        yield from map(head.__add__, pair_tails)
    yield from (f"enc * priv[{j}]" for j in range(priv_dim))


def noise_products(inst: SchemeInstance) -> list[tuple[str, RationalFunction]]:
    """Every cross-term product that must stay inside the noise space, formed symbolically.

    Fragment l's security functions h_l^-1 * w_i are read from `sec_bases`.
    """
    one = RationalFunction.one(inst.curve)
    priv = inst.priv_basis
    products = []
    for h, sec in zip(inst.info_basis, inst.sec_bases):
        products += [s * h for s in sec]
        products += [s * v for v in priv for s in sec]
    products += [one * v for v in priv]
    return list(zip(noise_labels(inst), products, strict=True))


def check_noise_containment(inst: SchemeInstance) -> list[tuple[str, bool]]:
    """Each noise product's label (`noise_labels`) with its `noise_containment_verdicts` entry."""
    return list(zip(noise_labels(inst), noise_containment_verdicts(inst), strict=True))


def noise_containment_verdicts(inst: SchemeInstance) -> list[bool]:
    """Whether each noise product's divisor clears the noise bound, in label order.

    The divisor of a product is the sum of its factors' divisors, exactly as
    `RationalFunction.divisor` computes them: a product merges the factors'
    exponents and the divisor is linear in them. So one divisor is taken per
    factor: each fragment function h_l, privacy function v_j and shared
    security function w_i. Fragment l's security functions are h_l^-1 * w_i
    (`sec_bases`, which this never forms), and with B the noise bound:

    - sec[l][i] * query[l] is w_i for every l, decided once per i by
      div(w_i) + B >= 0;
    - all pairs sec[l][i] * priv[j] of fragment l lie inside the bound
      exactly when, at every place P,
      min_i ord_P(w_i) + min_j ord_P(v_j) + B_P >= ord_P(h_l),
      since the least coefficient over a product of two families is the sum
      of the two least ones. Only a fragment that fails this test
      enumerates its pairs, div(w_i) + B - div(h_l) + div(v_j) >= 0, to name
      them;
    - enc * priv[j] is decided by div(v_j) + B >= 0.
    """
    bound = inst.noise_divisor()
    sec = [w.divisor() for w in inst.sec_basis]
    priv = [v.divisor() for v in inst.priv_basis]
    query_ok = [(w + bound).is_effective for w in sec]
    floor = Divisor.family_min(sec) + Divisor.family_min(priv) + bound
    oks: list[bool] = []
    for h in inst.info_basis:
        h_div = h.divisor()
        oks += query_ok
        if h_div <= floor:
            oks += repeat(True, len(sec) * len(priv))
        else:
            shifted = [w + bound - h_div for w in sec]
            oks += [(s + v).is_effective for v in priv for s in shifted]
    oks += [(bound + v).is_effective for v in priv]
    return oks


# -- serialization ----------------------------------------------------------------------


def _point_json(pt: CurvePoint) -> list:
    return [pt.x, pt.y]


def _function_json(f: RationalFunction) -> dict:
    return {
        "scalar": f.scalar,
        "y_exp": f.y_exp,
        "x_factors": [[alpha, exp] for alpha, exp in f.x_factors],
    }


def scheme_descriptor(inst: SchemeInstance) -> dict:
    """JSON-ready descriptor with byte-stable ordering of every array."""
    params = inst.params
    return {
        "p": params.p,
        "genus": params.genus,
        "curve": None
        if params.genus == 0
        else {"a": inst.curve.a, "b": inst.curve.b},
        "x": params.x,
        "t": params.t,
        "l": params.l,
        "n": inst.n,
        "seed": params.seed,
        "rate": {"num": inst.rate.numerator, "den": inst.rate.denominator},
        "fragment_points": [_point_json(pt) for pt in inst.fragment_points],
        "eval_points": [_point_json(pt) for pt in inst.eval_points],
        "basis_descriptors": {
            "info": [_function_json(f) for f in inst.info_basis],
            "noise": [_function_json(f) for f in inst.noise_basis],
            "privacy": [_function_json(f) for f in inst.priv_basis],
            "security": [[_function_json(f) for f in basis] for basis in inst.sec_bases],
        },
    }


def scheme_from_descriptor(descriptor: dict) -> SchemeInstance:
    """Rebuild the instance and confirm that its (cached) `descriptor` is this one exactly."""
    if not isinstance(descriptor, dict):
        raise DescriptorMismatch("a scheme descriptor is a JSON object")
    curve = descriptor.get("curve")
    try:
        entries = {key: descriptor[key] for key in ("p", "genus", "x", "t", "l")}
        entries["seed"] = descriptor.get("seed", 0)
        if curve is not None and not isinstance(curve, dict):
            raise DescriptorMismatch(
                f"descriptor 'curve' entry is neither null nor an object: {curve!r}"
            )
        coeffs = {} if curve is None else {"curve a": curve["a"], "curve b": curve["b"]}
    except KeyError as exc:
        raise DescriptorMismatch(f"descriptor has no {exc.args[0]!r} entry") from None
    for key, value in {**entries, **coeffs}.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise DescriptorMismatch(f"descriptor {key!r} entry is not an integer: {value!r}")
    if entries["genus"] == 1 and curve is None:
        # A rebuild without the curve would search for one, up to q rows of one product each.
        raise DescriptorMismatch("a genus-1 descriptor names its curve: 'curve' is null")
    params = SchemeParams(**entries, curve=tuple(coeffs.values()) or None)
    # The rebuild's work grows with N, so N must match entries the descriptor
    # spells out: then L, X and T are bounded by the length of the file.
    n = descriptor.get("n")
    if type(n) is not int or n != sizes.num_servers(params.genus, params.l, params.x, params.t):
        raise DescriptorMismatch(f"descriptor 'n' entry {n!r} is not L + X + T + 8 * genus")
    for key, count in (("eval_points", n), ("fragment_points", params.l + params.genus)):
        points = descriptor.get(key)
        if not isinstance(points, list) or len(points) != count:
            raise DescriptorMismatch(f"descriptor {key!r} entry is not a list of {count} points")
    inst = build_scheme(params)
    if inst.descriptor != descriptor:
        raise DescriptorMismatch("descriptor does not match the deterministic rebuild")
    return inst
