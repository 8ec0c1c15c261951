"""Exact arithmetic in prime fields F_p (p >= 5).

Field elements are plain ints kept in canonical form (0 <= v < p); sums,
products and powers use the builtin int operations and pow(a, e, p), so
the field itself only supplies inverses, Legendre symbols and square
roots. Each has one algorithm, polynomial in log p and with no per-field
table: inverses by the builtin pow(a, -1, p), a batch of them by one such
`pow` of their product (`inverses`), Legendre symbols by Euler's criterion,
square roots by Tonelli-Shanks. Everything here is pure, exact, and deterministic.
"""

from __future__ import annotations

from typing import Sequence

from .errors import CharTooSmall, NotPrime

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


def inverses(values: Sequence[int], p: int) -> list[int]:
    """1/v mod p for each value v; a value that is 0 mod p raises ValueError, as `pow` does.

    Montgomery's batch inversion: the running products of the values, one
    pow(., -1, p) of the last, then one backward pass that peels off a value
    per step. Three products per value and one inversion, at every p.
    """
    before = [1]
    for v in values:
        before.append(before[-1] * v % p)
    inv = pow(before.pop(), -1, p)
    out = []
    # inv is 1/(v_0 ... v_i) here, and before[i] is v_0 ... v_(i-1).
    for v, head in zip(reversed(values), reversed(before)):
        out.append(inv * head % p)
        inv = inv * v % p
    out.reverse()
    return out


class PrimeField:
    """The prime field F_p for a prime p >= 5.

    Its methods (inv, legendre, sqrt) take ints and return canonical
    residues.
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or isinstance(p, bool) or not is_prime(p):
            raise NotPrime(f"{p!r} is not a prime modulus")
        if p < 5:
            raise CharTooSmall(f"characteristic {p} is excluded, need p >= 5")
        self.p = p

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
        return pow(a, -1, self.p)

    # -- quadratic residues ---------------------------------------------------

    def legendre(self, a: int) -> int:
        """Legendre symbol (a|p) as -1, 0 or 1."""
        a %= self.p
        if a == 0:
            return 0
        return 1 if pow(a, (self.p - 1) // 2, self.p) == 1 else -1

    def sqrt(self, a: int) -> tuple[int, ...]:
        """All square roots of a by Tonelli-Shanks, smaller residue first.

        Returns (0,) for a = 0, () when a is a non-residue, and (r, p - r)
        with r < p - r otherwise.
        """
        p = self.p
        a %= p
        if a == 0:
            return (0,)
        if self.legendre(a) != 1:
            return ()
        if p % 4 == 3:
            r = pow(a, (p + 1) // 4, p)
        else:
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
        return (r, p - r) if r < p - r else (p - r, r)
