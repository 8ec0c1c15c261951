"""Function-field elements in factored form, divisors, and explicit bases.

Every function handled here is a unit of the shape

    scalar * y^k * prod (x - alpha_i)^e_i

so valuations, divisors and values all come straight from per-atom rules
instead of general local-uniformizer machinery or polynomial arithmetic.
At an affine point (x0, y0) let e be the exponent of x - x0:

- away from two-torsion (genus 0, or y0 != 0) x - x0 is a uniformizer, so
  the order is e, and at order 0 the value is
  scalar * prod_{alpha != x0} (x0 - alpha)^e_alpha * y0^k;
- at a rational two-torsion point (r, 0) y is a uniformizer and x - r
  ramifies, so the order is 2e + k (H. Stichtenoth, Algebraic Function
  Fields and Codes). At order 0, k = -2e and the atom (x - r)^e * y^(-2e)
  is (y^2 / (x - r))^(-e), whose value at r is (3r^2 + a)^(-e): nonzero,
  since r is a simple root of the cubic of a smooth curve.

A negative order is a pole; a positive order gives the value 0.

The zero locus of y is tracked as one symbolic degree-3 place regardless of
how the cubic splits, matching how the schemes use it (an aggregate pole
bound). Divisors therefore put the mass of y-atoms on that symbolic place,
while point valuations are the true local orders; the two views only
differ at rational two-torsion points, which the schemes never evaluate at.

`Divisor` is the one divisor algebra: `+`, `-`, `is_effective` (no negative
coefficient), `family_min` (the per-place least coefficient over a non-empty
family, 0 off a support) and `<=` (coefficientwise). A divisor is an
unordered set of nonzero (place, coefficient) pairs; only `repr` sorts it.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from .curve import (
    INFINITY,
    AffinePoint,
    Curve,
    CurvePoint,
    EllipticCurve,
    PointAtInfinity,
    ProjectiveLine,
    point_key,
)
from .errors import (
    DuplicateAlpha,
    InfinityUnsupported,
    NegativeOrder,
    PoleAtPoint,
    TwoTorsionPoint,
    UnsupportedDivisor,
    WrongCurveKind,
    ZeroScalar,
)
from .field import inverses


@dataclass(frozen=True)
class QuadraticPlace:
    """Degree-2 place over x = alpha whose fiber has no rational points.

    Needed so that deg((f)) = 0 holds for every factored function even when
    some x - alpha vanishes only at a conjugate pair over F_{p^2}.
    """

    x: int

    def __repr__(self) -> str:
        return f"Pair(x={self.x})"


class YZerosPlace:
    """The aggregate degree-3 zero locus of y on a short-Weierstrass curve."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "(y)_0"


Y_ZEROS = YZerosPlace()

Place = Union[PointAtInfinity, AffinePoint, QuadraticPlace, YZerosPlace]


def place_degree(place: Place) -> int:
    if isinstance(place, (PointAtInfinity, AffinePoint)):
        return 1
    if isinstance(place, QuadraticPlace):
        return 2
    if isinstance(place, YZerosPlace):
        return 3
    raise TypeError(f"not a place: {place!r}")


def place_key(place: Place) -> tuple[int, int, int]:
    """Canonical place order: rational points as `point_key` orders them, then the rest."""
    if isinstance(place, (PointAtInfinity, AffinePoint)):
        return point_key(place)
    if isinstance(place, QuadraticPlace):
        return (2, place.x, -1)
    return (3, -1, -1)


@dataclass(frozen=True)
class Divisor:
    """Formal integer combination of places on a fixed curve: its nonzero (place, coeff) set."""

    curve: Curve
    items: frozenset[tuple[Place, int]]

    @classmethod
    def of(cls, curve: Curve, coeffs: Mapping[Place, int]) -> "Divisor":
        return cls(curve, frozenset((pl, n) for pl, n in coeffs.items() if n))

    @classmethod
    def zero(cls, curve: Curve) -> "Divisor":
        return cls(curve, frozenset())

    def coeff(self, place: Place) -> int:
        return next((n for pl, n in self.items if pl == place), 0)

    def as_dict(self) -> dict[Place, int]:
        return dict(self.items)

    @property
    def degree(self) -> int:
        return sum(n * place_degree(pl) for pl, n in self.items)

    @property
    def is_zero(self) -> bool:
        return not self.items

    @property
    def is_effective(self) -> bool:
        return all(n >= 0 for _, n in self.items)

    def __add__(self, other: "Divisor") -> "Divisor":
        if self.curve != other.curve:
            raise ValueError("divisors on different curves")
        out = self.as_dict()
        for pl, n in other.items:
            out[pl] = out.get(pl, 0) + n
        return Divisor.of(self.curve, out)

    def __neg__(self) -> "Divisor":
        return Divisor(self.curve, frozenset((pl, -n) for pl, n in self.items))

    def __sub__(self, other: "Divisor") -> "Divisor":
        return self + -other

    def __le__(self, other: "Divisor") -> bool:
        """Coefficientwise comparison over the union of supports, with no difference formed."""
        if self.curve != other.curve:
            raise ValueError("divisors on different curves")
        theirs = other.as_dict()
        if any(theirs.pop(pl, 0) < n for pl, n in self.items):
            return False
        return all(n >= 0 for n in theirs.values())

    @classmethod
    def family_min(cls, family: Sequence["Divisor"]) -> "Divisor":
        """At each place, the least coefficient over a non-empty family (0 off a support)."""
        curves = {d.curve for d in family}
        if len(curves) != 1:
            raise ValueError("a family minimum needs a non-empty family on one curve")
        (curve,) = curves
        maps = [d.as_dict() for d in family]
        return cls.of(curve, {pl: min(d.get(pl, 0) for d in maps) for pl in set().union(*maps)})

    def __repr__(self) -> str:
        if not self.items:
            return "0"
        ordered = sorted(self.items, key=lambda kv: place_key(kv[0]))
        return " + ".join(f"{n}*{pl!r}" for pl, n in ordered)


def rr_dim(divisor: Divisor) -> int:
    """Dimension of the space of functions with pole orders bounded by the divisor.

    Genus 0 uses the canonical divisor -2*Infinity, genus 1 uses 0; both
    make the dimension a pure function of the degree except in the
    ambiguous genus-1 degree-0 case, which is refused unless the divisor
    is identically zero.
    """
    deg = divisor.degree
    if deg < 0:
        return 0
    if divisor.curve.genus == 0:
        return deg + 1
    if deg == 0:
        if divisor.is_zero:
            return 1
        raise UnsupportedDivisor(
            "genus-1 divisor of degree 0 needs a principality test; not supported"
        )
    return deg


@dataclass(frozen=True)
class RationalFunction:
    """A unit of the function field in factored form.

    x_factors is a tuple of (alpha, exponent) pairs, alphas strictly
    increasing in [0, p) and exponents nonzero, as `make` forms them; y_exp
    is the (possibly negative) power of y, forced to 0 on the projective
    line. The constructor refuses anything else, so `__mul__` can merge.
    """

    curve: Curve
    scalar: int
    x_factors: tuple[tuple[int, int], ...]
    y_exp: int = 0

    def __post_init__(self):
        p = self.curve.field.p
        if self.scalar % p == 0:
            raise ZeroScalar("factored functions are units; scalar must be nonzero")
        if self.curve.genus == 0 and self.y_exp != 0:
            raise WrongCurveKind("no y coordinate on the projective line")
        last = -1
        for alpha, exp in self.x_factors:
            if not last < alpha < p or not exp:
                raise ValueError(
                    f"x_factors {self.x_factors!r} are not sorted, distinct alphas in "
                    f"[0, {p}) with nonzero exponents; build with RationalFunction.make"
                )
            last = alpha

    @classmethod
    def make(
        cls,
        curve: Curve,
        scalar: int = 1,
        x_factors: Mapping[int, int] | Iterable[tuple[int, int]] = (),
        y_exp: int = 0,
    ) -> "RationalFunction":
        p = curve.field.p
        merged: dict[int, int] = {}
        pairs = x_factors.items() if isinstance(x_factors, Mapping) else x_factors
        for alpha, exp in pairs:
            alpha %= p
            merged[alpha] = merged.get(alpha, 0) + exp
        cleaned = tuple(sorted((a, e) for a, e in merged.items() if e != 0))
        return cls(curve, scalar % p, cleaned, y_exp)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def one(cls, curve: Curve) -> "RationalFunction":
        return cls.make(curve)

    @classmethod
    def x_minus(cls, curve: Curve, alpha: int, exp: int = 1) -> "RationalFunction":
        return cls.make(curve, x_factors={alpha: exp})

    @classmethod
    def x_power(cls, curve: Curve, i: int) -> "RationalFunction":
        return cls.make(curve, x_factors={0: i})

    # -- algebra ---------------------------------------------------------------

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        """The product, `make` of the concatenated factors, by one merge of the sorted tuples."""
        if self.curve is not other.curve and self.curve != other.curve:
            raise ValueError("functions on different curves")
        mine, theirs = self.x_factors, other.x_factors
        merged = []
        i = j = 0
        while i < len(mine) and j < len(theirs):
            alpha, beta = mine[i][0], theirs[j][0]
            if alpha < beta:
                merged.append(mine[i])
                i += 1
            elif beta < alpha:
                merged.append(theirs[j])
                j += 1
            else:
                exp = mine[i][1] + theirs[j][1]
                if exp:
                    merged.append((alpha, exp))
                i += 1
                j += 1
        merged += mine[i:] or theirs[j:]
        p = self.curve.field.p
        return RationalFunction(
            self.curve, self.scalar * other.scalar % p, tuple(merged), self.y_exp + other.y_exp
        )

    def inverse(self) -> "RationalFunction":
        return RationalFunction.make(
            self.curve,
            self.curve.field.inv(self.scalar),
            tuple((a, -e) for a, e in self.x_factors),
            -self.y_exp,
        )

    # -- valuations, divisor, evaluation ----------------------------------------

    def _order_at(self, point: AffinePoint) -> tuple[int, int]:
        """(e, order): the exponent e of x - x0 and the order of vanishing at the point."""
        e = dict(self.x_factors).get(point.x, 0)
        if point.y == 0:
            # x - x0 ramifies at two-torsion; y is a uniformizer there.
            return e, 2 * e + self.y_exp
        return e, e

    def divisor(self) -> Divisor:
        """Zeros minus poles; y-atom mass sits on the aggregate (y)_0 place."""
        coeffs: dict[Place, int] = {}

        def bump(pl: Place, n: int) -> None:
            coeffs[pl] = coeffs.get(pl, 0) + n

        if self.curve.genus == 0:
            for alpha, exp in self.x_factors:
                bump(AffinePoint(alpha), exp)
                bump(INFINITY, -exp)
            return Divisor.of(self.curve, coeffs)
        for alpha, exp in self.x_factors:
            fiber = self.curve.fiber(alpha)
            if len(fiber) == 2:
                bump(fiber[0], exp)
                bump(fiber[1], exp)
            elif len(fiber) == 1:
                bump(fiber[0], 2 * exp)
            else:
                bump(QuadraticPlace(alpha), exp)
            bump(INFINITY, -2 * exp)
        if self.y_exp:
            bump(Y_ZEROS, self.y_exp)
            bump(INFINITY, -3 * self.y_exp)
        return Divisor.of(self.curve, coeffs)

    def eval_at(self, point: CurvePoint) -> int:
        """Exact value at an affine rational point that is not a pole.

        The one-entry case of `evaluate_rows`, after checking that the point
        is affine and on the curve.
        """
        if isinstance(point, PointAtInfinity):
            raise InfinityUnsupported("evaluation at infinity is not supported")
        if not self.curve.contains(point):
            raise ValueError(f"{point!r} is not on {self.curve!r}")
        return evaluate_rows((self,), (point,))[0][0]

    def __repr__(self) -> str:
        parts = [] if self.scalar == 1 and (self.x_factors or self.y_exp) else [str(self.scalar)]
        if self.y_exp:
            parts.append("y" if self.y_exp == 1 else f"y^{self.y_exp}")
        for alpha, exp in self.x_factors:
            atom = "x" if alpha == 0 else f"(x-{alpha})"
            parts.append(atom if exp == 1 else f"{atom}^{exp}")
        return " * ".join(parts) if parts else "1"


def evaluate_rows(
    functions: Sequence[RationalFunction], points: Sequence[AffinePoint]
) -> list[tuple[int, ...]]:
    """Exact values of functions on one curve at its affine rational points, a row each.

    This is the one value rule; `eval_at` is its one-entry case. The points
    must be affine points of the curve: `eval_at` and
    `agcode.evaluation_code` check that, once per point. Each atom row,
    (x - alpha)^e or y^e over the points with the atom's own zero read as 1,
    is computed once for all the functions: e = 1 by one pass, e = -1 by
    one `field.inverses` batch of that row, and every other exponent as a
    running product of those. A function's row is its scalar times the product of its atom rows.
    The order rule then runs only at the points where the order can be
    nonzero, those over one of its alphas and the two-torsion points. Raises
    `PoleAtPoint` at the first pole of the first function that has one.
    """
    if not functions:
        return []
    curve = functions[0].curve
    p = curve.field.p
    xs = [pt.x for pt in points]
    ys = [pt.y for pt in points]
    atoms: dict[tuple[int | None, int], list[int]] = {}

    def atom(alpha: int | None, exp: int) -> list[int]:
        """(x - alpha)^exp over the points, or y^exp for alpha None; shared, never mutated."""
        row = atoms.get((alpha, exp))
        if row is not None:
            return row
        if exp == 1:
            row = [y0 or 1 for y0 in ys] if alpha is None else [(x0 - alpha) % p or 1 for x0 in xs]
        elif exp == -1:
            row = inverses(atom(alpha, 1), p)
        else:
            step = 1 if exp > 0 else -1
            unit, done = atom(alpha, step), exp - step
            while (alpha, done) not in atoms:  # stops at the unit at the latest
                done -= step
            row = atoms[alpha, done]
            while done != exp:
                done += step
                row = [a * b % p for a, b in zip(row, unit)]
                atoms[alpha, done] = row
        atoms[alpha, exp] = row
        return row

    abscissas, torsion = set(xs), 0 in ys
    rows = []
    for f in functions:
        special = []
        if torsion or any(alpha in abscissas for alpha, _ in f.x_factors):
            exps = dict(f.x_factors)
            for i, pt in enumerate(points):
                if pt.x in exps or pt.y == 0:
                    e, order = f._order_at(pt)
                    if order < 0:
                        raise PoleAtPoint(f"{f!r} has a pole at {pt!r}")
                    special.append((i, e, order))
        factors = [atom(alpha, exp) for alpha, exp in f.x_factors]
        if f.y_exp:
            factors.append(atom(None, f.y_exp))
        if not factors:
            row = [f.scalar] * len(xs)
        else:
            row = factors[0]
            for other in factors[1:]:
                row = [a * b % p for a, b in zip(row, other)]
            if f.scalar != 1:
                row = [f.scalar * v % p for v in row]
        if special:
            row = list(row)
            for i, e, order in special:
                if order > 0:
                    row[i] = 0
                elif ys[i] == 0:
                    # (x - x0)^e * y^(-2e) = (y^2 / (x - x0))^(-e), and y^2 / (x - x0)
                    # is 3 x0^2 + a at x0.
                    x0 = xs[i]
                    row[i] = row[i] * pow(3 * x0 * x0 + curve.a, -e, p) % p
        rows.append(tuple(row))
    return rows


# -- explicit bases -------------------------------------------------------------


def basis_poles_at_infinity(curve: Curve, m: int) -> tuple[RationalFunction, ...]:
    """Basis of the functions with poles only at infinity, of order at most m.

    Genus 0: 1, x, ..., x^m. Genus 1: x^i for 2i <= m together with y*x^i
    for 2i + 3 <= m (pole orders 2i and 2i + 3 respectively).
    """
    if m < 0:
        raise NegativeOrder(f"pole-order bound must be >= 0, got {m}")
    if curve.genus == 0:
        return tuple(RationalFunction.x_power(curve, i) for i in range(m + 1))
    xs = [RationalFunction.x_power(curve, i) for i in range(m // 2 + 1)]
    ys = [
        RationalFunction.make(curve, x_factors={0: i}, y_exp=1)
        for i in range((m - 3) // 2 + 1)
    ]
    return tuple(xs) + tuple(ys)


def interp_basis_g0(line: ProjectiveLine, alphas: Sequence[int]) -> tuple[RationalFunction, ...]:
    """Fragment basis 1/(x - alpha) for each alpha; divisor Infinity - P_alpha."""
    if not isinstance(line, ProjectiveLine):
        raise WrongCurveKind("genus-0 interpolation basis lives on the projective line")
    p = line.field.p
    norm = [a % p for a in alphas]
    if len(set(norm)) != len(norm):
        raise DuplicateAlpha(f"interpolation points must be distinct, got {list(alphas)}")
    return tuple(RationalFunction.x_minus(line, a, -1) for a in norm)


def interp_basis_g1(
    curve: EllipticCurve, pairs: Sequence[tuple[AffinePoint, AffinePoint]]
) -> tuple[RationalFunction, ...]:
    """Fragment basis for J conjugate point pairs; returns L = 2J - 1 functions.

    The first J functions are 1/(x - alpha_j); the remaining J - 1 are
    y / ((x - alpha_j)(x - alpha_J)). All of their divisors are bounded
    above by 2*Infinity + (y)_0.
    """
    if not isinstance(curve, EllipticCurve):
        raise WrongCurveKind("genus-1 interpolation basis needs an elliptic curve")
    if not pairs:
        raise ValueError("need at least one point pair")
    p = curve.field.p
    alphas = []
    for pt, conj in pairs:
        if not (curve.contains(pt) and curve.contains(conj)):
            raise ValueError(f"{pt!r}, {conj!r} must lie on {curve!r}")
        if pt.y == 0 or conj.y == 0:
            raise TwoTorsionPoint(f"fragment point {pt!r} has y = 0")
        if conj.x != pt.x or conj.y != (-pt.y) % p:
            raise ValueError(f"{conj!r} is not the conjugate of {pt!r}")
        alphas.append(pt.x)
    if len(set(alphas)) != len(alphas):
        raise DuplicateAlpha(f"fragment x-coordinates must be distinct, got {alphas}")
    last = alphas[-1]
    first = [RationalFunction.x_minus(curve, a, -1) for a in alphas]
    second = [
        RationalFunction.make(curve, x_factors={a: -1, last: -1}, y_exp=1)
        for a in alphas[:-1]
    ]
    return tuple(first) + tuple(second)


def noise_basis_g1(curve: EllipticCurve, m: int) -> tuple[RationalFunction, ...]:
    """Spanning set of the noise space with poles bounded by m*Infinity + (y)_0.

    x^i for 2i <= m plus x^j / y for 2j <= m + 3; sizes add to m + 3, the
    Riemann-Roch dimension of the bound, and independence is validated by
    evaluation rank downstream.
    """
    if not isinstance(curve, EllipticCurve):
        raise WrongCurveKind("the (y)_0 noise space needs an elliptic curve")
    if m < 0:
        raise NegativeOrder(f"pole-order bound must be >= 0, got {m}")
    xs = [RationalFunction.x_power(curve, i) for i in range(m // 2 + 1)]
    over_y = [
        RationalFunction.make(curve, x_factors={0: j}, y_exp=-1)
        for j in range((m + 3) // 2 + 1)
    ]
    return tuple(xs) + tuple(over_y)
