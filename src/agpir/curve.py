"""Genus-0 (projective line) and genus-1 (short Weierstrass) curves over F_p.

Point enumeration is canonical everywhere: the point at infinity first,
then affine points by ascending x, then ascending y. Downstream point
selection relies on this order being stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import isqrt
from typing import Iterable, Iterator, Union

from .errors import FieldTooLarge, NoSuchCurve, SingularCurve
from .field import PrimeField


class PointAtInfinity:
    """The unique point at infinity ([1:0] on the line, [0:1:0] on a cubic)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Infinity"


INFINITY = PointAtInfinity()


@dataclass(frozen=True)
class AffinePoint:
    """An affine rational point; y is None on the projective line."""

    x: int
    y: int | None = None

    def __repr__(self) -> str:
        return f"({self.x})" if self.y is None else f"({self.x}, {self.y})"


CurvePoint = Union[AffinePoint, PointAtInfinity]


def point_key(pt: CurvePoint) -> tuple[int, int, int]:
    """Canonical sort key: infinity first, then (x, y) ascending."""
    if isinstance(pt, PointAtInfinity):
        return (0, -1, -1)
    return (1, pt.x, -1 if pt.y is None else pt.y)


@dataclass(frozen=True)
class ProjectiveLine:
    """P^1 over F_p; genus 0, exactly p + 1 rational points."""

    field: PrimeField

    genus = 0

    def enumerate_points(self) -> tuple[CurvePoint, ...]:
        return (INFINITY,) + tuple(AffinePoint(x) for x in range(self.field.p))

    def contains(self, pt: CurvePoint) -> bool:
        if isinstance(pt, PointAtInfinity):
            return True
        return pt.y is None and 0 <= pt.x < self.field.p


@dataclass(frozen=True)
class EllipticCurve:
    """y^2 = x^3 + a x + b over F_p, smooth (4a^3 + 27b^2 != 0)."""

    field: PrimeField
    a: int
    b: int

    genus = 1

    def __post_init__(self):
        p = self.field.p
        object.__setattr__(self, "a", self.a % p)
        object.__setattr__(self, "b", self.b % p)
        if (4 * self.a**3 + 27 * self.b**2) % p == 0:
            raise SingularCurve(f"y^2 = x^3 + {self.a}x + {self.b} over F_{p} is singular")

    def rhs(self, x: int) -> int:
        p = self.field.p
        return (x * x % p * x + self.a * x + self.b) % p

    def contains(self, pt: CurvePoint) -> bool:
        if isinstance(pt, PointAtInfinity):
            return True
        p = self.field.p
        if pt.y is None or not (0 <= pt.x < p and 0 <= pt.y < p):
            return False
        return pt.y * pt.y % p == self.rhs(pt.x)

    def fiber(self, x: int) -> tuple[AffinePoint, ...]:
        """Affine points with the given x-coordinate (0, 1 or 2 of them)."""
        return tuple(AffinePoint(x, y) for y in self.field.sqrt(self.rhs(x)))

    def enumerate_points(self) -> tuple[CurvePoint, ...]:
        pts: list[CurvePoint] = [INFINITY]
        for x in range(self.field.p):
            pts.extend(self.fiber(x))
        return tuple(pts)

    def zeros_of_y(self) -> tuple[AffinePoint, ...]:
        """Rational two-torsion points (r, 0), one per rational root of the cubic."""
        _check_countable(self.field.p)
        return tuple(AffinePoint(r, 0) for r in range(self.field.p) if self.rhs(r) == 0)

    def point_count(self) -> int:
        ((_, _, count),) = _point_counts(self.field.p, [(self.a, self.b)])
        return count


Curve = Union[ProjectiveLine, EllipticCurve]


def hasse_window(q: int) -> tuple[int, int]:
    """Closed interval of admissible elliptic point counts over F_q."""
    PrimeField(q)  # validates q prime, >= 5
    s = isqrt(4 * q)
    return (q + 1 - s, q + 1 + s)


def admissible_traces(q: int) -> set[int]:
    """Traces a with q + 1 - a attained by some elliptic curve over F_q (q prime).

    For prime q the existence criterion is |a| <= 2*sqrt(q) with gcd(a, q) = 1,
    plus a = 0 (supersingular curves exist over every prime field). The
    square-q branch of the general statement (a = +-2*sqrt(q)) never applies
    to a prime and is not modelled here.
    """
    PrimeField(q)
    s = isqrt(4 * q)
    return {a for a in range(-s, s + 1) if a == 0 or a % q != 0}


# Full (a, b) enumeration is quadratic in q; keep it to desk scale.
ENUMERATION_FIELD_CAP = 500
# Counting the points of one curve, or the roots of its cubic, sweeps all of
# F_q and tabulates it; keep that below a few million steps.
COUNTING_FIELD_CAP = 2**21


def attained_traces(q: int) -> set[int]:
    """Traces realized by exhaustive enumeration of all smooth curves over F_q."""
    if q > ENUMERATION_FIELD_CAP:
        raise FieldTooLarge(f"refusing to enumerate all curves over F_{q} (cap {ENUMERATION_FIELD_CAP})")
    PrimeField(q)
    return {q + 1 - count for _, _, count in _point_counts(q, product(range(q), repeat=2))}


def find_curve(field: PrimeField, min_points: int) -> EllipticCurve:
    """First curve in lexicographic (a, b) order with at least min_points points."""
    q = field.p
    lo, hi = hasse_window(q)
    if min_points > hi:
        raise NoSuchCurve(f"{min_points} points exceeds the Hasse bound {hi} for q = {q}")
    for a, b, count in _point_counts(q, product(range(q), repeat=2)):
        if count >= min_points:
            return EllipticCurve(field, a, b)
    raise NoSuchCurve(f"no curve over F_{q} has {min_points} rational points")


def resolve_curve(field: PrimeField, curve: tuple[int, int] | None) -> EllipticCurve:
    """The curve with the given coefficients (a, b), else the first maximal one."""
    if curve is not None:
        return EllipticCurve(field, *curve)
    return find_curve(field, hasse_window(field.p)[1])


def _point_counts(
    q: int, coefficients: Iterable[tuple[int, int]]
) -> Iterator[tuple[int, int, int]]:
    """(a, b, #E(a, b)) for each smooth curve among the (a, b), in the order given.

    #E = q + 1 + sum over x of chi(x^3 + a x + b), with chi the Legendre symbol;
    (a, b) with 4a^3 + 27b^2 = 0 are singular and skipped.
    """
    _check_countable(q)
    chi, cubes = _chi_table(q), _cube_table(q)
    for a, b in coefficients:
        if (4 * a**3 + 27 * b * b) % q:
            yield a, b, q + 1 + sum(chi[(cubes[x] + a * x + b) % q] for x in range(q))


def _check_countable(q: int) -> None:
    if q > COUNTING_FIELD_CAP:
        raise FieldTooLarge(f"refusing to count points over F_{q} (cap {COUNTING_FIELD_CAP})")


@lru_cache(maxsize=None)
def _chi_table(p: int) -> tuple[int, ...]:
    field = PrimeField(p)
    return tuple(field.legendre(v) for v in range(p))


@lru_cache(maxsize=None)
def _cube_table(p: int) -> tuple[int, ...]:
    return tuple(x * x % p * x % p for x in range(p))
