"""Exact arithmetic in prime fields F_p (p >= 5) and univariate polynomials.

Field elements are plain ints kept in canonical form (0 <= v < p).
Everything here is pure, exact, and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import CharTooSmall, NotPrime, ZeroPolynomial

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (exact for n < 3.3e24, far past word scale)."""
    if n < 2:
        return False
    for small in _MR_BASES:
        if n % small == 0:
            return n == small
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Square roots below this bound come from a per-field lookup table, above it
# from Tonelli-Shanks. The two must produce identical output (tested).
SQRT_TABLE_LIMIT = 1 << 16


class PrimeField:
    """The prime field F_p for a prime p >= 5.

    Its methods (inv, pow_, legendre, sqrt) take ints and return canonical
    residues.
    """

    __slots__ = ("p", "_sqrt_table")

    def __init__(self, p: int):
        if not isinstance(p, int) or isinstance(p, bool) or not is_prime(p):
            raise NotPrime(f"{p!r} is not a prime modulus")
        if p < 5:
            raise CharTooSmall(f"characteristic {p} is excluded, need p >= 5")
        self.p = p
        self._sqrt_table = None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"F_{self.p}"

    # -- int-level arithmetic -------------------------------------------------

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of zero in {self!r}")
        return pow(a, self.p - 2, self.p)

    def pow_(self, a: int, e: int) -> int:
        if e < 0:
            return pow(self.inv(a), -e, self.p)
        return pow(a, e, self.p)

    # -- quadratic residues ---------------------------------------------------

    def legendre(self, a: int) -> int:
        """Legendre symbol (a|p) as -1, 0 or 1."""
        a %= self.p
        if a == 0:
            return 0
        return 1 if pow(a, (self.p - 1) // 2, self.p) == 1 else -1

    def sqrt(self, a: int) -> tuple[int, ...]:
        """All square roots of a, smaller residue first.

        Returns (0,) for a = 0, () when a is a non-residue, and (r, p - r)
        with r < p - r otherwise.
        """
        a %= self.p
        if a == 0:
            return (0,)
        if self.p < SQRT_TABLE_LIMIT:
            root = self._table().get(a)
        else:
            root = self._tonelli(a)
        if root is None:
            return ()
        return (root, self.p - root) if root < self.p - root else (self.p - root, root)

    def _table(self) -> dict[int, int]:
        if self._sqrt_table is None:
            table: dict[int, int] = {}
            for v in range(self.p):  # ascending, so the smaller root wins
                table.setdefault(v * v % self.p, v)
            self._sqrt_table = table
        return self._sqrt_table

    def _tonelli(self, a: int) -> int | None:
        """Tonelli-Shanks square root; None for non-residues."""
        p = self.p
        if self.legendre(a) != 1:
            return None
        if p % 4 == 3:
            r = pow(a, (p + 1) // 4, p)
            return min(r, p - r)
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while self.legendre(z) != -1:
            z += 1
        m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            t2, i = t * t % p, 1
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            t, r = t * c % p, r * b % p
        return min(r, p - r)


@dataclass(frozen=True)
class Polynomial:
    """Univariate polynomial over F_p, coefficients lowest degree first.

    The zero polynomial is the empty tuple; otherwise the leading
    coefficient is nonzero. Construction normalizes both properties.
    """

    field: PrimeField
    coeffs: tuple[int, ...]

    def __post_init__(self):
        p = self.field.p
        cs = [c % p for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, field: PrimeField) -> "Polynomial":
        return cls(field, ())

    @classmethod
    def one(cls, field: PrimeField) -> "Polynomial":
        return cls(field, (1,))

    @classmethod
    def constant(cls, field: PrimeField, c: int) -> "Polynomial":
        return cls(field, (c,))

    @classmethod
    def from_roots(cls, field: PrimeField, roots: Iterable[int]) -> "Polynomial":
        out = cls.one(field)
        for r in roots:
            out = out * cls(field, (-r, 1))
        return out

    # -- structure ------------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % self.field.p
        return Polynomial(self.field, tuple(out))

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.field, tuple(-c % self.field.p for c in self.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero or other.is_zero:
            return Polynomial.zero(self.field)
        p = self.field.p
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = (out[i + j] + a * b) % p
        return Polynomial(self.field, tuple(out))

    def scale(self, c: int) -> "Polynomial":
        p = self.field.p
        return Polynomial(self.field, tuple(a * c % p for a in self.coeffs))

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError("negative polynomial power")
        out = Polynomial.one(self.field)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __call__(self, x: int) -> int:
        """Evaluate by Horner's rule."""
        p = self.field.p
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % p
        return acc

    def divmod_(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero:
            raise ZeroPolynomial("division by the zero polynomial")
        p = self.field.p
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Polynomial.zero(self.field), self
        quo = [0] * (dq + 1)
        inv_lead = self.field.inv(other.leading)
        for i in range(dq, -1, -1):
            c = rem[i + other.degree] * inv_lead % p
            quo[i] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[i + j] = (rem[i + j] - c * b) % p
        return Polynomial(self.field, tuple(quo)), Polynomial(self.field, tuple(rem))

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return self.divmod_(other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return self.divmod_(other)[1]

    def monic(self) -> "Polynomial":
        if self.is_zero:
            return self
        return self.scale(self.field.inv(self.leading))

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Monic greatest common divisor."""
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic()

    def roots(self) -> tuple[int, ...]:
        """All x in F_p with f(x) = 0, by full sweep over the field."""
        if self.is_zero:
            raise ZeroPolynomial("the zero polynomial vanishes everywhere")
        return tuple(x for x in range(self.field.p) if self(x) == 0)

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*x" if c != 1 else "x")
            else:
                terms.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return " + ".join(terms)

