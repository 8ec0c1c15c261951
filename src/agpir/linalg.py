"""Dense exact linear algebra over F_p.

Matrices are sequences of rows of ints. All routines copy their input and
reduce mod p as they go; nothing here mutates caller data.

`PackedRows` evaluates many linear combinations of one fixed set of rows by
Kronecker substitution: each row of length n is packed into one Python int
with n fixed-width little-endian slots (residue j at byte offset j * slot),
so a combination sum(c_i * row_i) is `dim` native big-int multiply-adds
followed by one unpack and a reduction mod p. Slots never carry into each
other because the width is chosen from the largest value a slot can reach:
with residues in [0, p) and room for one extra packed term, that is
(dim + 1) * (p - 1)**2. Slots of 4 or 8 bytes are read back with
`memoryview.cast`; wider slots, needed only once p approaches
2**32 / sqrt(dim + 1), are read with `int.from_bytes` on fixed-width slices.
"""

from __future__ import annotations

import struct
import sys
from dataclasses import dataclass
from operator import mul
from typing import Sequence

Matrix = Sequence[Sequence[int]]

# Slot widths that memoryview.cast reads directly: native unsigned formats,
# usable only where native order matches the little-endian slot layout.
_CAST_FORMATS = {struct.calcsize(f): f for f in "IQ"} if sys.byteorder == "little" else {}


def _copy(rows: Matrix, p: int) -> list[list[int]]:
    return [[v % p for v in row] for row in rows]


def _eliminate(rows: Matrix, p: int, full: bool) -> tuple[list[list[int]], tuple[int, ...]]:
    """Gaussian elimination with leftmost pivoting; returns (matrix, pivot columns).

    Each pivot row is normalised and its column cleared below it, and also
    above it when `full` is set, which gives the reduced row echelon form.
    Without it the result is only an echelon form, enough to count pivots.
    """
    m = _copy(rows, p)
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
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


def rref(rows: Matrix, p: int) -> tuple[list[list[int]], tuple[int, ...]]:
    """Reduced row echelon form with leftmost pivoting; returns (R, pivot columns)."""
    return _eliminate(rows, p, full=True)


def rank(rows: Matrix, p: int) -> int:
    """Number of pivots, by forward elimination only."""
    return len(_eliminate(rows, p, full=False)[1])


def pivot_inverse(rows: Matrix, p: int) -> tuple[tuple[int, ...], list[list[int]]] | None:
    """Leftmost pivot columns of a k x n matrix and the inverse of its k x k block there.

    One elimination of [rows | I_k]: when the rows are independent all k
    pivots fall among the first n columns, and the row operations that turn
    those columns into I_k turn I_k into their inverse. Returns None when the
    rank is below k.
    """
    k = len(rows)
    if not k:
        return (), []
    n = len(rows[0])
    aug = [[v % p for v in row] + [int(i == j) for j in range(k)] for i, row in enumerate(rows)]
    reduced, pivots = rref(aug, p)
    if len(pivots) < k or pivots[-1] >= n:
        return None
    return pivots, [row[n:] for row in reduced]


def invert(rows: Matrix, p: int) -> list[list[int]]:
    """Inverse of a square nonsingular matrix."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    solved = pivot_inverse(rows, p)
    if solved is None:
        raise ValueError("matrix is singular")
    return solved[1]


def mat_vec(rows: Matrix, vec: Sequence[int], p: int) -> list[int]:
    return [sum(a * b for a, b in zip(row, vec)) % p for row in rows]


def row_space_equal(a: Matrix, b: Matrix, p: int) -> bool:
    ra, rb = rank(a, p), rank(b, p)
    if ra != rb:
        return False
    return rank(list(a) + list(b), p) == ra


@dataclass(frozen=True)
class PackedRows:
    """Rows of length n over F_p packed into ints of n fixed-width slots each."""

    p: int
    n: int
    slot: int  # bytes per slot
    rows: tuple[int, ...]

    @classmethod
    def of(cls, rows: Matrix, p: int) -> PackedRows:
        """Pack a non-empty matrix, with slots wide enough for one extra packed term."""
        bound = (len(rows) + 1) * (p - 1) ** 2
        slot = next((b for b in (4, 8) if bound < 1 << (8 * b)), (bound.bit_length() + 7) // 8)
        n = len(rows[0])
        if any(len(row) != n for row in rows):
            raise ValueError("rows have different lengths")
        return cls(p, n, slot, tuple(_pack(row, p, slot) for row in rows))

    def pack(self, row: Sequence[int]) -> int:
        """One row of length n as a packed int, entries reduced to [0, p)."""
        if len(row) != self.n:
            raise ValueError(f"row has length {len(row)}, expected {self.n}")
        return _pack(row, self.p, self.slot)

    def combine(self, coeffs: Sequence[int], extra: int = 0) -> tuple[int, ...]:
        """sum(coeffs[i] * rows[i]) + extra, reduced mod p, as a tuple of n residues.

        `extra` is 0 or one packed row (from `pack`) times a residue in [0, p).
        """
        if len(coeffs) != len(self.rows):
            raise ValueError(f"{len(coeffs)} coefficients for {len(self.rows)} rows")
        p, n, slot = self.p, self.n, self.slot
        acc = sum(map(mul, [c % p for c in coeffs], self.rows), extra)
        raw = acc.to_bytes(n * slot, "little")
        fmt = _CAST_FORMATS.get(slot)
        if fmt is not None:
            return tuple([v % p for v in memoryview(raw).cast(fmt)])
        return tuple(
            [int.from_bytes(raw[i : i + slot], "little") % p for i in range(0, n * slot, slot)]
        )


def _pack(row: Sequence[int], p: int, slot: int) -> int:
    return int.from_bytes(b"".join((v % p).to_bytes(slot, "little") for v in row), "little")
